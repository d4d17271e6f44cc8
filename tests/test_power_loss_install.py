"""A power loss after acknowledged commits: only what an fsync covered survives.

A killed process leaves what it wrote in the OS page cache, so the
SIGKILL suites cannot tell an install that was fsynced from one that was
only written.  A power loss can.  :func:`cut_power` stops every site at
the same instant, cuts each segment file back to the offset its store's
last fsync covered (``SegmentedFileStore.synced``) and drops the log's
volatile tail.  The sites then reboot over those directories and
recover, and every acknowledged transfer must still show in the
balances: local, federated (two subordinates, full two-phase commit)
and last agent.  The local scenario also makes a one-phase commit, whose
store write is its commit point, and a cell store with small segments
rolls over between checkpoints, and a commit whose install failed on
one store is redriven.  Two more cuts do not trust the stores'
bookkeeping (an fsync witness records what each fsync covered): one
after a killed process restarted and recovered over its unsynced
installs, and one after a failed fsync.
"""

import errno
import os

import pytest

from repro.apps.site_apps import bank_node_id
from repro.orb.reference import ObjectRef
from repro.orb.site import SiteConfig, SiteRuntime
from repro.ots import factory as factory_module
from repro.ots import (
    RecoverableRegistry,
    RecoveryManager,
    TransactionalCell,
    TransactionFactory,
    TransactionStatus,
)
from repro.persistence import MemoryStore, SegmentedFileStore, WriteAheadLog
from repro.persistence.object_store import StoreError
from repro.testing.process_harness import free_port

pytestmark = pytest.mark.usefixtures("close_segmented_stores")


def truncate_to_synced(root, synced):
    """What a power loss leaves of a store: each segment file up to the
    offset its last fsync covered, nothing of a file none covered."""
    for name in os.listdir(root):
        seg_id = int(name[len("seg-") : -len(".log")])
        os.truncate(os.path.join(root, name), synced.get(seg_id, 0))


@pytest.fixture
def fabric(tmp_path):
    """Starts in-process sites over real sockets (serve loops off: the
    test runs each housekeeping round itself), cuts their power, and
    stops whatever is still running at teardown."""

    class Fabric:
        def __init__(self):
            self.running = []

        def start(self, sites):
            ports = {site: free_port() for site in sites}
            peers = {site: ("127.0.0.1", port) for site, port in ports.items()}
            runtimes = {
                site: SiteRuntime(
                    SiteConfig(
                        site_id=site,
                        port=ports[site],
                        peers=peers,
                        data_dir=str(tmp_path / site),
                        cell_store="segmented",
                        app=f"repro.apps.site_apps:{app}",
                    )
                )
                for site, app in sites.items()
            }
            for runtime in runtimes.values():
                runtime.transport.start()
                self.running.append(runtime)
            return runtimes

        def stop(self, runtime):
            self.running.remove(runtime)
            runtime.stop()
            runtime.transport.close()

        def cut_power(self, runtimes):
            """Every site loses power at once: the synced offsets are
            taken first, then the sites stop (whatever stopping writes
            is cut away with the rest of the unsynced tail)."""
            cut = []
            for runtime in runtimes.values():
                runtime.wal.crash()
                for kind, store in (("wal", runtime.wal.store), ("cells", runtime.cell_store)):
                    cut.append((os.path.join(runtime.config.data_dir, kind), dict(store.synced)))
            for runtime in runtimes.values():
                self.stop(runtime)
            for root, synced in cut:
                truncate_to_synced(root, synced)

        def reboot(self, sites):
            """Restart over the cut directories and run housekeeping
            rounds until every site has recovered and settled."""
            runtimes = self.start(sites)
            for _ in range(3):
                for runtime in runtimes.values():
                    runtime.housekeeping_round(0.0)
            for site, runtime in runtimes.items():
                assert runtime.recovered and runtime.recovery_error is None, site
                assert not runtime.factory.log_index().delegated, site
            return runtimes

    fabric = Fabric()
    yield fabric
    for runtime in list(fabric.running):
        fabric.stop(runtime)


def balances(runtime):
    node = runtime.orb.node(bank_node_id(runtime.config.site_id))
    return tuple(node.servant(key).balance() for key in ("acct-1", "acct-2"))


def desk_of(runtime):
    return runtime.orb.node(bank_node_id(runtime.config.site_id)).servant("desk")


def housekeeping(runtimes):
    for runtime in runtimes.values():
        runtime.housekeeping_round(0.0)


class TestAcknowledgedTransfersSurvivePowerLoss:
    """Two cuts per scenario (three for the local one, whose last cut
    follows a one-phase commit).  The first finds the last burst's
    completions parked and its installs lost: recovery redoes them from
    the forced records.  The second comes right after a round, so every
    completion is durable and recovery redoes nothing: each install the
    completions cover must have been synced.  (A replayed intention
    carries the cell's whole new state, so only a cut with nothing to
    replay shows a lost install.)"""

    def test_local_transfers_and_a_one_phase_commit(self, fabric):
        sites = {"desk": "transfer_desk_site"}
        here = bank_node_id("desk")

        def transfer(runtimes):
            desk_of(runtimes["desk"]).transfer("acct-1", here, "acct-2", 1.0)

        runtimes = fabric.start(sites)
        for _ in range(3):
            transfer(runtimes)
        housekeeping(runtimes)
        for _ in range(3):
            transfer(runtimes)  # installs buffered, completions parked
        fabric.cut_power(runtimes)
        runtimes = fabric.reboot(sites)
        assert balances(runtimes["desk"]) == (94.0, 106.0)

        for _ in range(3):
            transfer(runtimes)
        housekeeping(runtimes)
        fabric.cut_power(runtimes)
        runtimes = fabric.reboot(sites)
        assert balances(runtimes["desk"]) == (91.0, 109.0)

        desk = runtimes["desk"]
        desk.current.begin()  # one cell: a one-phase commit, no log record
        desk.orb.node(here).servant("acct-1").withdraw(5.0)
        desk.current.commit()
        fabric.cut_power(runtimes)
        assert balances(fabric.reboot(sites)["desk"]) == (86.0, 109.0)

    def test_federated_transfers_with_two_subordinates(self, fabric):
        sites = {"desk": "transfer_desk_site", "far": "bank_site", "farther": "bank_site"}

        def transfer(runtimes):
            """Debit 2 at the desk, credit 1 on each of the two other
            sites: two subordinates keep full two-phase commit."""
            desk = runtimes["desk"]
            desk.current.begin()
            desk.orb.node(bank_node_id("desk")).servant("acct-1").withdraw(2.0)
            for site in ("far", "farther"):
                ObjectRef(bank_node_id(site), "acct-2", "BankAccount").bind(desk.orb).invoke(
                    "deposit", 1.0
                )
            desk.current.commit()

        def assert_balances(runtimes, transfers):
            assert balances(runtimes["desk"]) == (100.0 - 2 * transfers, 100.0)
            assert balances(runtimes["far"]) == (100.0, 100.0 + transfers)
            assert balances(runtimes["farther"]) == (100.0, 100.0 + transfers)

        runtimes = fabric.start(sites)
        for _ in range(2):
            transfer(runtimes)
        housekeeping(runtimes)
        for _ in range(3):
            transfer(runtimes)
        fabric.cut_power(runtimes)
        runtimes = fabric.reboot(sites)
        assert_balances(runtimes, 5)

        for _ in range(3):
            transfer(runtimes)
        housekeeping(runtimes)
        fabric.cut_power(runtimes)
        assert_balances(fabric.reboot(sites), 8)

    def test_last_agent_transfers(self, fabric):
        sites = {"desk": "transfer_desk_site", "far": "bank_site"}

        def transfer(runtimes):
            desk_of(runtimes["desk"]).transfer("acct-1", bank_node_id("far"), "acct-2", 1.0)

        runtimes = fabric.start(sites)
        for _ in range(3):
            transfer(runtimes)
        housekeeping(runtimes)
        for _ in range(3):
            transfer(runtimes)
        fabric.cut_power(runtimes)
        runtimes = fabric.reboot(sites)
        assert balances(runtimes["desk"]) == (94.0, 100.0)
        assert balances(runtimes["far"]) == (100.0, 106.0)

        for _ in range(3):
            transfer(runtimes)
        housekeeping(runtimes)
        fabric.cut_power(runtimes)
        runtimes = fabric.reboot(sites)
        assert balances(runtimes["desk"]) == (91.0, 100.0)
        assert balances(runtimes["far"]) == (100.0, 109.0)


def boot(root, **cell_store_options):
    """A factory over a log and a cell store in ``root``, cells a and b."""
    wal = WriteAheadLog(SegmentedFileStore(str(root / "wal")))
    cell_store = SegmentedFileStore(str(root / "cells"), **cell_store_options)
    factory = TransactionFactory(wal=wal)
    registry = RecoverableRegistry()
    cells = [
        TransactionalCell(key, 100, factory, store=cell_store, registry=registry)
        for key in ("a", "b")
    ]
    return wal, cell_store, factory, registry, cells


def transfer(factory, a, b):
    tx = factory.create()
    a.write(tx, a.read(tx) - 1)
    b.write(tx, b.read(tx) + 1)
    tx.commit()
    return tx


class FsyncWitness:
    """Records, per file, the size the last fsync of it made durable,
    whichever store instance or descriptor made it — so a cut does not
    trust the bookkeeping of the store under test."""

    def __init__(self, monkeypatch):
        self.durable = {}
        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            stat = os.fstat(fd)
            self.durable[(stat.st_dev, stat.st_ino)] = stat.st_size

        monkeypatch.setattr(os, "fsync", fsync)

    def cut(self, root):
        for name in os.listdir(root):
            path = os.path.join(root, name)
            stat = os.stat(path)
            os.truncate(path, self.durable.get((stat.st_dev, stat.st_ino), 0))


class TestRolledSegmentsAreSynced:
    def test_checkpointed_installs_survive_in_rolled_segments(self, tmp_path):
        # Small segments that only roll, never compact: every rollover
        # leaves a segment the next checkpoint no longer touches.
        options = {"segment_bytes": 256, "auto_compact_ratio": None}
        wal, cell_store, factory, _, (a, b) = boot(tmp_path, **options)
        for _ in range(12):
            transfer(factory, a, b)
        assert factory.checkpoint() == 12
        wal.force()  # every completion is durable now
        assert len(cell_store.synced) > 2  # the installs rolled the segment over
        cut = {"wal": dict(wal.store.synced), "cells": dict(cell_store.synced)}
        wal.store.close()
        cell_store.close()
        for kind, synced in cut.items():
            truncate_to_synced(str(tmp_path / kind), synced)
        wal, cell_store, _, registry, (a, b) = boot(tmp_path, **options)
        RecoveryManager(wal, registry).recover()
        assert (a.committed_value, b.committed_value) == (88, 112)


class TestPowerLossAfterAKilledProcessRestarted:
    def test_the_restart_syncs_what_the_killed_process_left_unsynced(
        self, tmp_path, monkeypatch
    ):
        """A SIGKILL leaves the buffered installs in the page cache.  The
        restarted process's recovery finds them there, installs nothing
        and forces their completions; a power loss after that must not
        find those completions over lost installs."""
        witness = FsyncWitness(monkeypatch)
        wal, _, factory, _, (a, b) = boot(tmp_path)
        for _ in range(3):
            transfer(factory, a, b)
        assert wal.of_kind("tx_completed") == []  # parked
        wal.crash()  # killed: the volatile tail goes, the stores are left unsynced
        wal, _, _, registry, _ = boot(tmp_path)
        RecoveryManager(wal, registry).recover()
        completed = wal.of_kind("tx_completed")
        assert [record.payload.get("recovered") for record in completed] == [True] * 3
        assert wal.durable_upto >= completed[-1].lsn
        for kind in ("wal", "cells"):
            witness.cut(str(tmp_path / kind))
        wal, _, _, registry, (a, b) = boot(tmp_path)
        RecoveryManager(wal, registry).recover()
        assert (a.committed_value, b.committed_value) == (97, 103)


class TestAFailedFsyncFailsTheStore:
    def test_no_completion_is_logged_over_a_failed_sync(self, tmp_path, monkeypatch):
        """The commit path's own checkpoint (no round serves this factory)
        meets a failed cell-store fsync.  The commit stands; nothing is
        logged over the pages that fsync may have lost: not the parked
        completions, not one parked after the failure, not a later
        commit's, even once fsync works again.  A reopen recovers all."""
        monkeypatch.setattr(factory_module, "PARKED_COMPLETION_LIMIT", 2)
        wal, cell_store, factory, _, (a, b) = boot(tmp_path)
        transfer(factory, a, b)
        cells_root = str(tmp_path / "cells")
        cell_files = {os.stat(os.path.join(cells_root, n)).st_ino for n in os.listdir(cells_root)}
        real_fsync = os.fsync

        def failing_fsync(fd):
            if os.fstat(fd).st_ino in cell_files:
                raise OSError(errno.EIO, "lost pages")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        assert transfer(factory, a, b).status is TransactionStatus.COMMITTED
        monkeypatch.setattr(os, "fsync", real_fsync)  # a retry would report success
        with pytest.raises(StoreError):
            cell_store.sync()
        factory.log_completion("tx-parked-late", [cell_store])
        assert factory.checkpoint() == 0
        with pytest.raises(StoreError):
            transfer(factory, a, b)  # decided, its install refused: stranded
        assert factory.redrive_stuck() == []
        wal.force()
        assert wal.of_kind("tx_completed") == []
        wal, _, _, registry, (a, b) = boot(tmp_path)
        RecoveryManager(wal, registry).recover()
        assert (a.committed_value, b.committed_value) == (97, 103)


class FailingInstallStore(MemoryStore):
    """A cell medium whose next batch write raises."""

    fail_next = False

    def put_many(self, items):
        if self.fail_next:
            self.fail_next = False
            raise StoreError("cell device error")
        super().put_many(items)


class TestRedriveAfterAPartialInstall:
    def test_the_store_written_first_is_synced_before_the_redrive_completes(self, tmp_path):
        """The buffered install lands on one store and fails on the other;
        the redrive's completion waits for the checkpoint to sync the
        store the first pass left unsynced."""
        wal = WriteAheadLog(SegmentedFileStore(str(tmp_path / "wal")))
        cells_root = str(tmp_path / "cells")
        segmented, flaky = SegmentedFileStore(cells_root), FailingInstallStore()
        factory = TransactionFactory(wal=wal)
        a = TransactionalCell("a", 0, factory, store=segmented)
        b = TransactionalCell("b", 0, factory, store=flaky)
        tx = factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        flaky.fail_next = True
        with pytest.raises(StoreError):
            tx.commit()
        assert tx.status is TransactionStatus.COMMITTING
        assert factory.redrive_stuck() == [tx.tid]
        assert wal.of_kind("tx_completed") == []  # parked
        assert factory.checkpoint() == 1
        wal.force()
        assert [r.payload["tid"] for r in wal.of_kind("tx_completed")] == [tx.tid]
        synced = dict(segmented.synced)
        segmented.close()
        wal.store.close()
        truncate_to_synced(cells_root, synced)
        reopened = SegmentedFileStore(cells_root)
        assert reopened.get("cell:a") == [1, 1]
