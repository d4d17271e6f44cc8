"""What one durable commit costs, pinned with exact counts (no timings).

A force appends its own batch and nothing else however long the log has
grown; a site's housekeeping round reads only the records forced since
the previous round; a committed two-cell transfer performs two store
appends and one fsync (the forced decision, carrying both intentions,
and one unsynced install batch), a federated one four appends and two
fsyncs, one per site, over two cross-site requests, an aborted one
none.  The completions wait for the round's checkpoint, which syncs
each dirty cell store once and lets them ride the round's force.  And the crash
guarantee those counts lean on: a torn append reads back as a frame
prefix, so the decision frame is the commit point and any prefix of the
install batch recovers to the committed values.
"""

import gc
import os
import weakref

import pytest

from repro.apps.site_apps import bank_node_id
from repro.config import FactoryConfig
from repro.orb.federation import coordination_node_id
from repro.orb.reference import ObjectRef
from repro.orb.site import SiteConfig, SiteRuntime
from repro.ots import (
    RecoverableRegistry,
    RecoveryManager,
    Resource,
    SimulatedCrash,
    TransactionalCell,
    TransactionFactory,
    TransactionRolledBack,
    Vote,
)
from repro.persistence import MemoryStore, SegmentedFileStore, WriteAheadLog
from repro.testing.process_harness import free_port


def directory_bytes(root):
    return sum(os.path.getsize(os.path.join(root, name)) for name in os.listdir(root))


def segment_file(root):
    (name,) = os.listdir(root)
    return os.path.join(root, name)


class TestForceCostsItsOwnBatch:
    def test_first_and_thousandth_force_append_the_same_bytes(self, tmp_path):
        root = str(tmp_path / "wal")
        store = SegmentedFileStore(root)
        wal = WriteAheadLog(store)
        grown = []
        for i in range(1000):
            before = directory_bytes(root)
            wal.append_volatile("tx_commit_decision", tid=f"tx-{i:06d}", keys=["a", "b"])
            wal.append_volatile("tx_completed", tid=f"tx-{i:06d}")
            wal.force()
            grown.append(directory_bytes(root) - before)
        store.close()
        assert grown[0] == grown[999] > 0
        assert set(grown) == {grown[0]}
        assert store.flushes == 1000  # one append + fsync per force, no head writes
        assert store.auto_compactions == 0  # no key is ever overwritten
        assert store.dead_record_ratio() == 0.0


@pytest.fixture
def desk_site(tmp_path):
    """One in-process site with two durable accounts and a transfer desk."""
    runtime = SiteRuntime(
        SiteConfig(
            site_id="desk",
            port=0,
            data_dir=str(tmp_path / "desk"),
            cell_store="segmented",
            app="repro.apps.site_apps:transfer_desk_site",
        )
    )
    node = bank_node_id("desk")
    desk = runtime.orb.node(node).servant("desk")

    def transfer(amount=1.0):
        return desk.transfer("acct-1", node, "acct-2", amount)

    yield runtime, transfer
    runtime.stop()
    runtime.transport.close()


def start_sites(tmp_path, sites):
    """In-process sites over real sockets, serve loops not running (no
    housekeeping round forces a log tail behind the test's back)."""
    ports = {site: free_port() for site in sites}
    peers = {site: ("127.0.0.1", port) for site, port in ports.items()}
    runtimes = [
        SiteRuntime(
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
    ]
    for runtime in runtimes:
        runtime.transport.start()
    return runtimes


def stop_sites(runtimes):
    for runtime in runtimes:
        runtime.stop()
        runtime.transport.close()


@pytest.fixture
def two_sites(tmp_path):
    runtimes = start_sites(tmp_path, {"desk": "transfer_desk_site", "far": "bank_site"})
    desk = runtimes[0].orb.node(bank_node_id("desk")).servant("desk")

    def transfer(amount=1.0):
        return desk.transfer("acct-1", bank_node_id("far"), "acct-2", amount)

    yield runtimes[0], runtimes[1], transfer
    stop_sites(runtimes)


@pytest.fixture
def three_sites(tmp_path):
    runtimes = start_sites(
        tmp_path, {"desk": "transfer_desk_site", "far": "bank_site", "farther": "bank_site"}
    )
    yield runtimes
    stop_sites(runtimes)


def requests_sent(*runtimes):
    return sum(runtime.transport.stats.requests_sent for runtime in runtimes)


def run_on_desk(desk, *remote_sites, debit=True):
    """One transaction rooted at ``desk``: debit a local account (unless
    told not to), credit acct-2 on each remote site."""
    desk.current.begin()
    if debit:
        desk.orb.node(bank_node_id("desk")).servant("acct-1").withdraw(len(remote_sites))
    for site in remote_sites:
        ObjectRef(bank_node_id(site), "acct-2", "BankAccount").bind(desk.orb).invoke(
            "deposit", 1.0
        )
    desk.current.commit()


def flush_counts(*runtimes):
    """Per site: (log appends, cell appends, log forces, log fsyncs,
    cell fsyncs)."""
    return [
        (
            runtime.wal.store.flushes,
            runtime.cell_store.flushes,
            runtime.wal.forces,
            runtime.wal.store.fsyncs,
            runtime.cell_store.fsyncs,
        )
        for runtime in runtimes
    ]


def flush_deltas(before, *runtimes):
    return [
        tuple(now - then for now, then in zip(after, earlier))
        for after, earlier in zip(flush_counts(*runtimes), before)
    ]


class NoVoter(Resource):
    def prepare(self):
        return Vote.ROLLBACK

    def commit(self):
        raise AssertionError("a no-voter is never committed")

    def rollback(self):
        pass

    def commit_one_phase(self):
        raise AssertionError("registered beside other resources")

    def forget(self):
        pass


class TestCommitPathCounts:
    def test_two_cell_transfer_is_two_store_flushes(self, desk_site):
        runtime, transfer = desk_site
        transfer()  # first use creates the segment files
        before = flush_counts(runtime)
        forced = runtime.wal.records_forced
        transfer()
        # 1 log force (the decision, carrying both intentions) + 1
        # install batch (both new states), appended without an fsync:
        # 2 appends, 1 fsync.  Phase one writes nothing.
        assert flush_deltas(before, runtime) == [(1, 1, 1, 1, 0)]
        # That one force carried this decision only: both transfers'
        # completions wait for the round's checkpoint.
        assert runtime.wal.records_forced - forced == 1
        first, decision = runtime.wal.records()
        assert (first.kind, decision.kind) == ("tx_commit_decision", "tx_commit_decision")
        assert decision.payload["intentions"] == {
            "account:acct-1": [2, 98.0],
            "account:acct-2": [2, 102.0],
        }
        runtime.wal.force()  # nothing volatile yet: not a force
        assert flush_deltas(before, runtime) == [(1, 1, 1, 1, 0)]
        # The round's checkpoint: one cell-store fsync covers both
        # installs, then both completions ride the round's one force.
        before = flush_counts(runtime)
        runtime.service.retire_completed()
        assert flush_deltas(before, runtime) == [(1, 0, 1, 1, 1)]
        assert [r.kind for r in runtime.wal.records()[-2:]] == ["tx_completed"] * 2
        assert [r.payload["tid"] for r in runtime.wal.records()[-2:]] == [
            first.payload["tid"],
            decision.payload["tid"],
        ]
        assert dict(runtime.cell_store.items()) == {
            "cell:account:acct-1": [2, 98.0],
            "cell:account:acct-2": [2, 102.0],
        }

    def test_n_commits_and_one_tail_force(self, desk_site):
        runtime, transfer = desk_site
        for _ in range(10):
            transfer()
        runtime.wal.force()  # the completions are parked: not a force
        assert (runtime.wal.forces, runtime.wal.records_forced) == (10, 10)
        assert (runtime.wal.store.fsyncs, runtime.cell_store.fsyncs) == (10, 0)
        assert runtime.factory.checkpoint() == 10  # one cell fsync for all ten
        runtime.wal.force()
        assert runtime.wal.forces == 10 + 1
        assert runtime.wal.records_forced == 2 * 10
        assert (runtime.wal.store.fsyncs, runtime.cell_store.fsyncs) == (11, 1)
        assert runtime.factory.checkpoint() == 0
        runtime.wal.force()  # nothing left: not a force
        assert runtime.wal.forces == 11
        assert (runtime.wal.store.fsyncs, runtime.cell_store.fsyncs) == (11, 1)

    def test_federated_transfer_is_four_store_flushes(self, two_sites):
        desk, far, transfer = two_sites
        transfer()
        before = flush_counts(desk, far)
        sent = requests_sent(desk, far)
        assert transfer() == {"from_balance": 98.0, "to_balance": 102.0}
        # desk: tx_delegated (with its intention), install batch.  far,
        # the last agent: its decision (with its intention and the root
        # tid), install.  4 appends, 2 fsyncs (one force per site; the
        # installs wait for the checkpoint).  Across the wire: the
        # deposit, whose reply registers far's subordinate, and one
        # commit_one_phase.
        assert flush_deltas(before, desk, far) == [(1, 1, 1, 1, 0), (1, 1, 1, 1, 0)]
        assert requests_sent(desk, far) - sent == 2
        (delegated,) = desk.wal.records()[-1:]
        assert delegated.kind == "tx_delegated"
        assert delegated.payload["intentions"] == {"account:acct-1": [2, 98.0]}
        assert delegated.payload["agent"].startswith("fedsub-tx:far:")
        (decision,) = far.wal.records()[-1:]
        assert decision.kind == "tx_commit_decision"
        assert decision.payload["intentions"] == {"account:acct-2": [2, 102.0]}
        assert decision.payload["root"] == delegated.payload["tid"]

    def test_two_remote_subordinates_keep_two_phase_commit(self, three_sites):
        desk, far, farther = three_sites
        run_on_desk(desk, "far", "farther")
        before = flush_counts(desk, far, farther)
        sent = requests_sent(desk, far, farther)
        run_on_desk(desk, "far", "farther")
        # Two deposits, then a prepare and a commit to each subordinate.
        assert requests_sent(desk, far, farther) - sent == 6
        # Each subordinate: subtx_prepared, its decision, install.
        assert flush_deltas(before, desk, far, farther) == [
            (1, 1, 1, 1, 0),
            (2, 1, 2, 2, 0),
            (2, 1, 2, 2, 0),
        ]
        assert desk.wal.records()[-1].kind == "tx_commit_decision"

    def test_lone_remote_subordinate_keeps_the_one_phase_call(self, two_sites):
        desk, far, _ = two_sites
        run_on_desk(desk, "far", debit=False)
        before = flush_counts(desk, far)
        sent = requests_sent(desk, far)
        run_on_desk(desk, "far", debit=False)
        # The deposit and one commit_one_phase; the root logs nothing,
        # the subordinate one rooted decision and its install.
        assert requests_sent(desk, far) - sent == 2
        assert flush_deltas(before, desk, far) == [(0, 0, 0, 0, 0), (1, 1, 1, 1, 0)]

    def test_overdrawn_federated_transfer_writes_nothing(self, two_sites):
        desk, far, transfer = two_sites
        transfer()
        before = flush_counts(desk, far)
        sent = requests_sent(desk, far)
        with pytest.raises(ValueError):
            transfer(1e9)  # withdraw refuses before the remote leg
        assert flush_deltas(before, desk, far) == [(0,) * 5, (0,) * 5]
        assert requests_sent(desk, far) == sent

    def test_overdrawn_transfer_writes_nothing(self, desk_site):
        runtime, transfer = desk_site
        transfer()
        before = flush_counts(runtime)
        with pytest.raises(ValueError):
            transfer(1e9)  # withdraw refuses; rolled back while ACTIVE
        assert flush_deltas(before, runtime) == [(0,) * 5]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_phase_one_abort_writes_nothing(self, tmp_path, workers):
        cells_store = SegmentedFileStore(str(tmp_path / "cells"))
        wal_store = SegmentedFileStore(str(tmp_path / "wal"))
        factory = TransactionFactory(
            wal=WriteAheadLog(wal_store),
            config=FactoryConfig(parallel_participants=workers),
        )
        a, b = (TransactionalCell(key, 0, factory, store=cells_store) for key in "ab")
        tx = factory.create()
        a.write(tx, 1)
        b.write(tx, 2)
        tx.register_resource(NoVoter())
        with pytest.raises(TransactionRolledBack):
            tx.commit()
        factory.shutdown_participant_pool()
        # Both cells had voted COMMIT; their intentions were never written.
        assert (cells_store.flushes, wal_store.flushes) == (0, 0)
        assert (a.committed_value, b.committed_value) == (0, 0)
        assert not a.is_locked() and not b.is_locked()
        assert cells_store.keys() == ()

    def test_housekeeping_round_reads_only_new_records(self, desk_site):
        runtime, transfer = desk_site
        wal = runtime.wal
        read = []
        plain_records = wal.records

        def counting_records(after=0):
            records = plain_records(after)
            read.append(len(records))
            return records

        wal.records = counting_records

        def housekeeping_round():
            del read[:]
            runtime.service.sweep_orphans()
            runtime.service.resolve_in_doubt()
            return sum(read)

        for _ in range(20):
            transfer()
        # Only the 20 decisions are durable: the round's checkpoint
        # appends the 20 parked completions and forces them first, and
        # its first look reads it all.
        assert len(wal) == 20
        assert housekeeping_round() == 40
        assert housekeeping_round() == 0
        for _ in range(3):
            transfer()
        assert housekeeping_round() == 6  # 3 commits x 2 records, not 46
        assert len(wal) == 46
        # History rewritten under the index: it starts over.
        wal.truncate(up_to_lsn=40)
        assert housekeeping_round() == 6
        assert housekeeping_round() == 0


class TestTornBatchIsAFramePrefix:
    def frame_ends(self, data, start):
        ends, offset = [], start
        while offset < len(data):
            header_len, value_len = SegmentedFileStore._LEN.unpack_from(data, offset)
            offset += SegmentedFileStore._LEN.size + header_len + value_len
            ends.append(offset)
        return ends

    def test_every_cut_through_a_three_frame_batch(self, tmp_path):
        """puts + tombstone, cut at every byte: reopen never raises and
        shows exactly the frames that are whole."""
        root = str(tmp_path / "seed")
        store = SegmentedFileStore(root)
        store.put("keep", 1)
        store.put("gone", 2)
        base = os.path.getsize(segment_file(root))
        store.put_many({"a": "x" * 10, "b": {"n": [1, 2, 3]}}, removes=["gone"])
        assert store.flushes == 3
        store.close()
        with open(segment_file(root), "rb") as handle:
            full = handle.read()
        ends = self.frame_ends(full, base)
        assert len(ends) == 3
        states = [
            {"keep": 1, "gone": 2},
            {"keep": 1, "gone": 2, "a": "x" * 10},
            {"keep": 1, "gone": 2, "a": "x" * 10, "b": {"n": [1, 2, 3]}},
            {"keep": 1, "a": "x" * 10, "b": {"n": [1, 2, 3]}},
        ]
        for cut in range(base, len(full) + 1):
            torn_root = str(tmp_path / f"cut-{cut}")
            os.makedirs(torn_root)
            with open(os.path.join(torn_root, os.path.basename(segment_file(root))), "wb") as out:
                out.write(full[:cut])
            reopened = SegmentedFileStore(torn_root)
            whole = sum(1 for end in ends if end <= cut)
            assert dict(reopened.items()) == states[whole], cut
            assert reopened.torn_frames_dropped == (0 if cut in [base] + ends else 1)
            # Writing on cuts the torn tail off instead of burying the
            # new frame behind it.
            reopened.put("later", cut)
            reopened.close()
            again = SegmentedFileStore(torn_root)
            assert dict(again.items()) == {**states[whole], "later": cut}
            assert again.torn_frames_dropped == 0

    def test_coordinator_batches_are_all_or_nothing_at_every_cut(self, tmp_path):
        """One committed two-cell transaction writes one log frame before
        any install: the forced decision, carrying both intentions; the
        completion frame follows the install.  Cut the log file at every
        byte and pair it with the cell store as it stood at that moment,
        recover: no cut short of the whole decision frame commits
        anything, every later cut installs both values."""
        root = str(tmp_path / "wal")
        log_store = SegmentedFileStore(root)
        factory = TransactionFactory(wal=WriteAheadLog(log_store, "txlog"))
        cells_store = MemoryStore()
        a, b = (TransactionalCell(key, 0, factory, store=cells_store) for key in "ab")
        tx = factory.create()
        a.write(tx, 11)
        b.write(tx, 22)
        tx.commit()
        assert (log_store.flushes, cells_store.writes) == (1, 1)
        installed = dict(cells_store.items())
        assert installed == {"cell:a": [1, 11], "cell:b": [1, 22]}
        factory.wal.force()  # the completion, appended after the install
        log_store.close()
        with open(segment_file(root), "rb") as handle:
            full = handle.read()
        decided, completed = self.frame_ends(full, 0)
        assert completed == len(full)

        def recovered(cut, cell_image):
            torn_root = str(tmp_path / f"cut-{cut}-{len(cell_image)}")
            os.makedirs(torn_root)
            with open(os.path.join(torn_root, os.path.basename(segment_file(root))), "wb") as out:
                out.write(full[:cut])
            log = SegmentedFileStore(torn_root)
            wal = WriteAheadLog(log, "txlog")
            registry = RecoverableRegistry()
            store = MemoryStore()
            store.put_many(cell_image)
            rebooted = TransactionFactory(wal=wal)
            cells = [
                TransactionalCell(key, 0, rebooted, store=store, registry=registry)
                for key in "ab"
            ]
            RecoveryManager(wal, registry).recover()
            log.close()
            return [cell.committed_value for cell in cells], dict(store.items())

        for cut in range(0, decided):  # crash before the decision was forced
            assert recovered(cut, {}) == ([0, 0], {}), cut
        for cut in range(decided, completed):  # decided, install maybe not
            for cell_image in ({}, installed):
                assert recovered(cut, cell_image) == ([11, 22], installed), cut
        assert recovered(completed, installed) == ([11, 22], installed)

    def test_cell_install_recovers_from_every_prefix(self, tmp_path):
        """Crash right after the commit decision is logged, then tear the
        recovery's install write at every byte: the next recovery still
        installs both committed values, each at its logged version."""
        root = str(tmp_path / "cells")
        log_store = MemoryStore()

        def boot(cell_root, log_image=None):
            if log_image is not None:
                store = MemoryStore()
                store.put_many(log_image)
            else:
                store = log_store
            wal = WriteAheadLog(store, "txlog")
            factory = TransactionFactory(wal=wal)
            registry = RecoverableRegistry()
            cells_store = SegmentedFileStore(cell_root)
            cells = [
                TransactionalCell(key, 0, factory, store=cells_store, registry=registry)
                for key in ("a", "b")
            ]
            return factory, wal, registry, cells_store, cells

        factory, wal, registry, cells_store, (a, b) = boot(root)
        tx = factory.create()
        a.write(tx, 11)
        b.write(tx, 22)
        factory.failpoints.arm("after_commit_log")
        with pytest.raises(SimulatedCrash):
            tx.commit()
        cells_store.close()
        log_image = dict(log_store.items())
        assert os.listdir(root) == []  # phase one wrote nothing to the cells

        # One clean recovery gives the bytes phase two appends.
        _, wal, registry, cells_store, _ = boot(root, log_image)
        flushes = cells_store.flushes
        assert RecoveryManager(wal, registry).recover().recommitted
        assert cells_store.flushes - flushes == 1  # one write per recovered transaction
        cells_store.close()
        with open(segment_file(root), "rb") as handle:
            full = handle.read()
        assert len(self.frame_ends(full, 0)) == 2

        for cut in range(0, len(full) + 1):
            torn_root = str(tmp_path / f"cut-{cut}")
            os.makedirs(torn_root)
            with open(os.path.join(torn_root, os.path.basename(segment_file(root))), "wb") as out:
                out.write(full[:cut])
            _, wal, registry, cells_store, (a, b) = boot(torn_root, log_image)
            RecoveryManager(wal, registry).recover()
            assert (a.committed_value, b.committed_value) == (11, 22), cut
            cells_store.close()
            survivor = SegmentedFileStore(torn_root)
            assert dict(survivor.items()) == {"cell:a": [1, 11], "cell:b": [1, 22]}, cut


class TestNothingKeptPerFinishedTransaction:
    def test_coordination_nodes_hold_only_the_recovery_servant(self, two_sites):
        desk, far, transfer = two_sites
        for _ in range(20):
            transfer()
        for runtime in (desk, far):
            runtime.housekeeping_round(orphan_min_age=5.0)
        for runtime, site in ((desk, "desk"), (far, "far")):
            node = runtime.orb.node(coordination_node_id(site))
            assert node.object_ids() == ("fedrecovery",), site

    def test_root_registry_holds_only_its_cells(self, two_sites):
        # Remote subordinates get recovery proxies only from a recovery
        # pass, never one per enlisted transfer.
        desk, _, transfer = two_sites
        for _ in range(100):
            transfer()
        desk.housekeeping_round(orphan_min_age=5.0)
        assert desk.registry.keys() == ("account:acct-1", "account:acct-2")

    def test_finished_transactions_are_freed_by_refcount(self, two_sites):
        desk, far, transfer = two_sites
        desk_account = desk.orb.node(bank_node_id("desk")).servant("desk")
        gc.collect()
        gc.disable()  # nothing may be left for the cycle collector
        try:
            for _ in range(10):
                transfer()  # federated
                desk_account.transfer("acct-2", bank_node_id("desk"), "acct-1", 1.0)
            finished = [
                weakref.ref(tx)
                for runtime in (desk, far)
                for tx in runtime.factory._transactions.values()
            ]
            for runtime in (desk, far):
                runtime.housekeeping_round(orphan_min_age=5.0)
            assert len(finished) == 30  # 20 roots, 10 subordinates
            assert [ref() for ref in finished if ref() is not None] == []
        finally:
            gc.enable()
