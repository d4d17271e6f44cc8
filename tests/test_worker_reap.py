"""Worker-pool idle reaping: the daemon-thread leak, pinned (PR 10).

Before this PR a single burst of parallel 2PC traffic lazily spawned up
to ``parallel_participants`` daemon threads that then parked forever —
every factory a process ever built kept its peak thread count for life.
The regression tests below audit with ``threading.enumerate()`` (the
reap joins its workers, so the audit is deterministic) and cover the
safety rail: a pool with work in flight is never torn down.
"""

import threading

import pytest

from repro.ots import TransactionFactory
from repro.util.workers import ReentrantWorkerPool


def _threads_named(prefix):
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


class _Participant:
    def __init__(self):
        self.calls = []

    def prepare(self):
        self.calls.append("prepare")
        from repro.ots.status import Vote

        return Vote.COMMIT

    def commit(self):
        self.calls.append("commit")

    def rollback(self):
        self.calls.append("rollback")


def _run_commit(factory, count=4):
    tx = factory.create()
    participants = [_Participant() for _ in range(count)]
    for index, participant in enumerate(participants):
        tx.register_resource(participant, recovery_key=f"r{index}")
    tx.commit()
    return participants


class TestPoolReap:
    def test_reap_releases_threads_and_next_submit_recreates(self):
        pool = ReentrantWorkerPool(4, thread_name_prefix="reap-probe")
        assert _threads_named("reap-probe") == []  # lazy: no submit, no threads
        pool.submit(lambda: None).result(timeout=5)
        assert len(_threads_named("reap-probe")) >= 1

        assert pool.reap_if_idle(0.0) is True
        assert _threads_named("reap-probe") == []  # joined, not abandoned
        assert pool.reaped == 1

        pool.submit(lambda: 7).result(timeout=5)  # transparently recreated
        assert len(_threads_named("reap-probe")) >= 1
        pool.shutdown(wait=True)
        assert _threads_named("reap-probe") == []

    def test_never_reaps_with_work_in_flight(self):
        pool = ReentrantWorkerPool(2, thread_name_prefix="busy-probe")
        release = threading.Event()
        future = pool.submit(release.wait, 10)
        try:
            assert pool.in_flight == 1
            assert pool.reap_if_idle(0.0) is False  # refused: op running
            assert pool.reaped == 0
        finally:
            release.set()
        future.result(timeout=5)
        assert pool.in_flight == 0
        assert pool.reap_if_idle(0.0) is True
        assert _threads_named("busy-probe") == []

    def test_idle_threshold_is_respected(self):
        pool = ReentrantWorkerPool(2, thread_name_prefix="young-probe")
        pool.submit(lambda: None).result(timeout=5)
        assert pool.reap_if_idle(3600.0) is False  # idle, but not *that* idle
        assert pool.idle_seconds() < 3600.0
        assert pool.reap_if_idle(0.0) is True

    def test_failed_submit_rolls_back_in_flight(self):
        pool = ReentrantWorkerPool(1, thread_name_prefix="rollback-probe")
        pool.shutdown(wait=True)
        pool._pool = None  # force _ensure to build, then poison submit

        class Poisoned:
            def submit(self, *args):
                raise RuntimeError("executor refused")

        pool._pool = Poisoned()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)
        assert pool.in_flight == 0  # a failed submit must not wedge reaping
        pool._pool = None
        assert pool.reap_if_idle(0.0) is False  # nothing live to reap


class TestFactoryReap:
    def test_participant_burst_then_reap_returns_to_baseline(self):
        from repro.config import FactoryConfig

        factory = TransactionFactory(config=FactoryConfig(parallel_participants=4))
        baseline = len(_threads_named("participants"))
        participants = _run_commit(factory)
        assert all(p.calls == ["prepare", "commit"] for p in participants)
        assert len(_threads_named("participants")) > baseline  # the leak-to-be

        assert factory.reap_idle_workers(max_idle=0.0) is True
        assert len(_threads_named("participants")) == baseline

        # The next burst recreates the pool and commits identically.
        again = _run_commit(factory)
        assert all(p.calls == ["prepare", "commit"] for p in again)
        factory.shutdown_participant_pool()

    def test_serial_factory_never_spawns_threads_to_reap(self):
        factory = TransactionFactory()  # parallel_participants=1, serial path
        _run_commit(factory)
        assert factory.reap_idle_workers(max_idle=0.0) is False
