"""Figure 14 (extension) — group commit amortises the commit-decision force.

Not a figure from the paper: the presumed-abort protocol it describes
forces the commit decision to stable storage before phase two, so under
concurrent load the durable force is the commit path's dominant cost.
This bench measures what the ROADMAP's "fast as the hardware allows"
goal needs: commits/sec and *durable forces per committed transaction*
swept over the number of concurrent committers, with the write-ahead log
in immediate-force mode vs group-commit mode
(:class:`~repro.persistence.wal.GroupCommitWAL`).

Each transaction enlists two resources so it takes the full logged 2PC
path (decision record + completion record).  Only the decision is
forced — the completion record rides the next force — so immediate force
costs exactly 1 force per commit; group commit shares each force across
every transaction that reaches the log inside the batching window.

Quick mode (``BENCH_QUICK=1``) shrinks the sweep for CI smoke runs.
"""

import os
import threading
import time

import pytest

from repro.ots import TransactionFactory
from repro.ots.status import Vote
from repro.persistence import GroupCommitWAL, MemoryStore, WriteAheadLog

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
TX_PER_THREAD = 4 if QUICK else 16
CONCURRENCY = [1, 4, 16]
WINDOW = 0.002


class PreparedResource:
    """Minimal two-phase participant that always votes commit."""

    def prepare(self):
        return Vote.COMMIT

    def commit(self):
        return None

    def rollback(self):
        return None


def make_factory(group_commit, store=None, name="txlog"):
    store = store if store is not None else MemoryStore()
    if group_commit:
        wal = GroupCommitWAL(store, name, window=WINDOW)
    else:
        wal = WriteAheadLog(store, name)
    return TransactionFactory(wal=wal)


def run_committers(factory, thread_count, tx_per_thread):
    """Drive ``thread_count`` concurrent committers; return elapsed seconds."""
    errors = []
    start_gate = threading.Barrier(thread_count + 1)

    def worker():
        try:
            start_gate.wait()
            for _ in range(tx_per_thread):
                tx = factory.create()
                tx.register_resource(PreparedResource(), recovery_key="r1")
                tx.register_resource(PreparedResource(), recovery_key="r2")
                tx.commit()
        except Exception as exc:  # pragma: no cover - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(thread_count)]
    for thread in threads:
        thread.start()
    start_gate.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    assert not errors, errors
    return elapsed


class TestFig14GroupCommit:
    @pytest.mark.parametrize("mode", ["immediate", "group"])
    def test_bench_commit_throughput_16_threads(self, benchmark, mode):
        def run():
            factory = make_factory(group_commit=(mode == "group"))
            run_committers(factory, 16, TX_PER_THREAD)
            return factory

        factory = benchmark.pedantic(run, rounds=1 if QUICK else 3, iterations=1)
        assert factory.committed == 16 * TX_PER_THREAD

    def test_force_amortisation_series(self, emit):
        rows = []
        for threads in CONCURRENCY:
            per_mode = {}
            for mode in ("immediate", "group"):
                factory = make_factory(group_commit=(mode == "group"))
                elapsed = run_committers(factory, threads, TX_PER_THREAD)
                committed = factory.committed
                assert committed == threads * TX_PER_THREAD
                forces = factory.wal.forces
                # Both engines log the same records (decision + completion
                # per commit); only the number of forces differs.  The
                # last completions are still unforced: one tail force
                # (not counted against the commits) lands them.
                factory.wal.force()
                assert factory.wal.records_forced == 2 * committed
                per_mode[mode] = (
                    forces / committed,
                    committed / elapsed if elapsed > 0 else float("inf"),
                )
            rows.append((threads, per_mode["immediate"], per_mode["group"]))

        emit(
            "fig14",
            ["fig 14 — durable forces per committed transaction (2 logged"
             " records each):",
             "  threads  immediate_f/commit  group_f/commit  immediate_c/s"
             "  group_c/s"]
            + [
                f"  {threads:7d}  {imm[0]:18.3f}  {grp[0]:14.3f}"
                f"  {imm[1]:13.0f}  {grp[1]:9.0f}"
                for threads, imm, grp in rows
            ],
            data={
                "max_threads": rows[-1][0],
                "immediate_forces_per_commit": rows[-1][1][0],
                "group_forces_per_commit": rows[-1][2][0],
                "immediate_commits_per_s": rows[-1][1][1],
                "group_commits_per_s": rows[-1][2][1],
            },
        )

        # Immediate force pays 1 force per commit (the decision); at 16
        # concurrent committers the shared window must amortise that at
        # least 3x.
        threads, immediate, group = rows[-1]
        assert threads == 16
        assert immediate[0] == pytest.approx(1.0)
        assert immediate[0] / group[0] >= 3.0

    def test_group_commit_preserves_recovery_replay(self):
        """The group-committed log replays identically to the classic one."""
        classic_store, grouped_store = MemoryStore(), MemoryStore()
        classic = make_factory(False, classic_store)
        grouped = make_factory(True, grouped_store)
        for factory in (classic, grouped):
            run_committers(factory, 4, 2)
            factory.wal.force()  # clean stop: land the unforced completions
        classic_log = [
            (r.kind, sorted(r.payload.get("recovery_keys", [])))
            for r in classic.wal.reopen().records()
        ]
        grouped_log = [
            (r.kind, sorted(r.payload.get("recovery_keys", [])))
            for r in grouped.wal.reopen().records()
        ]
        assert sorted(classic_log) == sorted(grouped_log)
