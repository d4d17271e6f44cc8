"""What one durable commit costs, pinned with exact counts (no timings).

A force appends its own batch and nothing else however long the log has
grown; a site's housekeeping round reads only the records forced since
the previous round; a committed two-cell transfer performs six store
flushes.  And the crash guarantee those counts lean on: a torn
multi-frame append reads back as a frame prefix, from which the cell
install recovers.
"""

import os

import pytest

from repro.apps.site_apps import bank_node_id
from repro.orb.site import SiteConfig, SiteRuntime
from repro.ots import (
    RecoverableRegistry,
    RecoveryManager,
    SimulatedCrash,
    TransactionalCell,
    TransactionFactory,
)
from repro.persistence import MemoryStore, SegmentedFileStore, WriteAheadLog


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


class TestCommitPathCounts:
    def test_two_cell_transfer_is_six_store_flushes(self, desk_site):
        runtime, transfer = desk_site
        transfer()  # first use creates the segment files
        wal_store, cells = runtime.wal.store, runtime.cell_store
        before = (wal_store.flushes, cells.flushes, runtime.wal.forces)
        transfer()
        # 2 intention records (prepare) + 2 log forces (decision,
        # completion) + 2 installs (state put + intention tombstone each).
        assert wal_store.flushes - before[0] == 2
        assert cells.flushes - before[1] == 4
        assert runtime.wal.forces - before[2] == 2
        assert [r.kind for r in runtime.wal.records()][-2:] == [
            "tx_commit_decision",
            "tx_completed",
        ]
        assert not [key for key in cells.keys() if key.startswith("prepared:")]

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
        assert housekeeping_round() == 40  # the first look reads it all
        assert housekeeping_round() == 0
        for _ in range(3):
            transfer()
        assert len(wal) == 46
        assert housekeeping_round() == 6  # 3 commits x 2 records, not 46
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

    def test_cell_install_recovers_from_every_prefix(self, tmp_path):
        """Crash right after the commit decision is logged, then tear the
        recovery's install writes at every byte: the next recovery still
        installs both committed values and clears the intentions."""
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
        base = os.path.getsize(segment_file(root))

        # One clean recovery gives the bytes phase two appends.
        _, wal, registry, cells_store, _ = boot(root, log_image)
        flushes = cells_store.flushes
        assert RecoveryManager(wal, registry).recover().recommitted
        assert cells_store.flushes - flushes == 2  # one write per install
        cells_store.close()
        with open(segment_file(root), "rb") as handle:
            full = handle.read()
        assert len(self.frame_ends(full, base)) == 4

        for cut in range(base, len(full) + 1):
            torn_root = str(tmp_path / f"cut-{cut}")
            os.makedirs(torn_root)
            with open(os.path.join(torn_root, os.path.basename(segment_file(root))), "wb") as out:
                out.write(full[:cut])
            _, wal, registry, cells_store, (a, b) = boot(torn_root, log_image)
            RecoveryManager(wal, registry).recover()
            assert (a.committed_value, b.committed_value) == (11, 22), cut
            cells_store.close()
            survivor = SegmentedFileStore(torn_root)
            assert dict(survivor.items()) == {"cell:a": 11, "cell:b": 22}, cut
