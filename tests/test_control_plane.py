"""Control-plane scaling: queue-driven deadline expiry, sharded
registries and bounded tracing."""

import threading

import pytest

from repro.config import FactoryConfig, RuntimeConfig
from repro.core import ActivityManager, ThreadPoolBroadcastExecutor
from repro.core.status import CompletionStatus
from repro.ots import TransactionFactory
from repro.ots.status import TransactionStatus
from repro.util.clock import Clock, SimulatedClock, WallClock
from repro.util.events import EventLog
from repro.util.sharding import StripedMap


def expiry_trace(manager):
    return [
        (event.kind, event.detail.get("activity"), event.detail.get("status"))
        for event in manager.event_log
        if event.kind in ("completion_status", "activity_timeout")
    ]


def reference_sweep(manager):
    """The full-registry scan that ``expire_timeouts`` must agree with:
    latch every active activity strictly past its deadline, in begin
    order."""
    now = manager.clock.now()
    overdue = [
        activity
        for activity in manager._activities.values()
        if not activity.status.is_terminal
        and activity.deadline is not None
        and now > activity.deadline
        and activity.get_completion_status() is not CompletionStatus.FAIL_ONLY
    ]
    overdue.sort(key=lambda activity: activity.begin_seq)
    for activity in overdue:
        activity.set_completion_status(CompletionStatus.FAIL_ONLY)
    return [activity.activity_id for activity in overdue]


def queue_sweep(manager):
    return manager.expire_timeouts()


class ManualClock(Clock):
    """A clock that moves only when told to and fires nothing itself."""

    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time

    def sleep(self, seconds: float) -> None:
        self.time += seconds

    advance = sleep


class TestWheelExpiryParity:
    """The queue-backed ``expire_timeouts`` must mirror the full scan."""

    def _scenario(self, sweep):
        manager = ActivityManager()
        manager.event_log.attach()  # expiry_trace reads it
        slow = manager.begin("slow", timeout=5.0)
        slower = manager.begin("slower", timeout=8.0)
        patient = manager.begin("patient", timeout=100.0)
        done = manager.begin("done", timeout=5.0)
        done.complete()  # completes before its deadline: timer cancelled
        untimed = manager.begin("untimed")
        manager.clock.advance(6.0)
        first = sweep(manager)
        manager.clock.advance(3.0)
        second = sweep(manager)
        third = sweep(manager)  # nothing new
        return manager, (slow, slower, patient, done, untimed), (first, second, third)

    def test_same_expirations_same_events_as_sweep(self):
        naive, naive_acts, naive_sweeps = self._scenario(reference_sweep)
        queued, queued_acts, queued_sweeps = self._scenario(queue_sweep)
        assert naive_sweeps == queued_sweeps
        assert naive_sweeps[0] == [naive_acts[0].activity_id]
        assert naive_sweeps[1] == [naive_acts[1].activity_id]
        assert naive_sweeps[2] == []
        assert expiry_trace(naive) == expiry_trace(queued)
        for acts in (naive_acts, queued_acts):
            assert acts[0].get_completion_status() is CompletionStatus.FAIL_ONLY
            assert acts[1].get_completion_status() is CompletionStatus.FAIL_ONLY
            assert acts[2].get_completion_status() is CompletionStatus.SUCCESS

    def test_deadline_exactly_at_sweep_time_not_expired(self):
        for sweep in (reference_sweep, queue_sweep):
            manager = ActivityManager()
            manager.begin("edge", timeout=5.0)
            manager.clock.advance(5.0)
            assert sweep(manager) == []  # strict: now > deadline
            manager.clock.advance(0.5)
            assert len(sweep(manager)) == 1

    def test_completion_cancels_wheel_timer(self):
        manager = ActivityManager()
        activity = manager.begin("quick", timeout=5.0)
        assert len(manager._deadlines) == 1
        activity.complete()
        assert len(manager._deadlines) == 0
        manager.clock.advance(10.0)
        assert manager.expire_timeouts() == []

    def test_manually_latched_activity_not_reported(self):
        for sweep in (reference_sweep, queue_sweep):
            manager = ActivityManager()
            activity = manager.begin("latched", timeout=5.0)
            activity.set_completion_status(CompletionStatus.FAIL_ONLY)
            manager.clock.advance(6.0)
            assert sweep(manager) == []

    def test_expiry_work_proportional_to_expiring(self):
        manager = ActivityManager()
        for _ in range(500):
            manager.begin(timeout=10_000.0)
        for _ in range(3):
            manager.begin(timeout=2.0)
        manager.clock.advance(5.0)
        fired_before = manager._deadlines.fired
        expired = manager.expire_timeouts()
        assert len(expired) == 3
        # Only the expiring timers fired; the 500 longlived ones untouched.
        assert manager._deadlines.fired - fired_before == 3

    def test_wheel_works_on_wall_clock(self):
        clock = WallClock()
        manager = ActivityManager(clock=clock)
        activity = manager.begin("wall", timeout=0.01)
        import time

        time.sleep(0.03)
        expired = manager.expire_timeouts()
        assert expired == [activity.activity_id]
        assert activity.get_completion_status() is CompletionStatus.FAIL_ONLY


class TestShardedRegistry:
    def test_lookup_knows_and_listing(self):
        manager = ActivityManager(config=RuntimeConfig(registry_shards=16))
        activities = [manager.begin(f"a{i}") for i in range(50)]
        for activity in activities:
            assert manager.knows(activity.activity_id)
            assert manager.get(activity.activity_id) is activity
        listed = manager.active_activities()
        assert listed == activities  # begin order preserved
        activities[7].complete()
        assert activities[7] not in manager.active_activities()

    def test_striped_map_deterministic_and_balanced(self):
        striped = StripedMap(shards=8)
        for i in range(800):
            striped.put(f"activity-{i}", i)
        assert len(striped) == 800
        assert sorted(striped.keys()) == sorted(f"activity-{i}" for i in range(800))
        # crc32 striping: deterministic across runs and roughly balanced.
        sizes = striped.segment_sizes()
        assert sum(sizes) == 800
        assert min(sizes) > 0
        second = StripedMap(shards=8)
        for i in range(800):
            second.put(f"activity-{i}", i)
        assert second.segment_sizes() == sizes

    def test_single_shard_still_correct(self):
        manager = ActivityManager(config=RuntimeConfig(registry_shards=1))
        activity = manager.begin("solo", timeout=1.0)
        manager.clock.advance(2.0)
        assert manager.expire_timeouts() == [activity.activity_id]

    def test_concurrent_begin_complete_racing_expiry_sweep(self):
        """Satellite: begin/complete from pool threads racing expire_timeouts
        under ThreadPoolBroadcastExecutor must neither lose activities nor
        corrupt counters."""
        with ThreadPoolBroadcastExecutor(max_workers=8) as executor:
            manager = ActivityManager(
                clock=WallClock(),
                executor=executor,
                event_log=EventLog(max_events=10_000),
                config=RuntimeConfig(registry_shards=16),
            )
            errors = []
            ids = [[] for _ in range(8)]

            def churn(slot):
                try:
                    for _ in range(100):
                        activity = manager.begin(timeout=50.0)
                        ids[slot].append(activity.activity_id)
                        activity.complete()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=churn, args=(slot,)) for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for _ in range(200):
                manager.expire_timeouts()
            for thread in threads:
                thread.join()
            manager.expire_timeouts()
        assert errors == []
        all_ids = [aid for slot in ids for aid in slot]
        assert len(all_ids) == len(set(all_ids)) == 800
        assert manager.begun == 800
        assert manager.completed == 800
        # A completed top-level activity leaves the registry.
        for slot in ids:
            for aid in slot:
                assert not manager.knows(aid)
        # Every armed deadline timer was cancelled on completion.
        assert len(manager._deadlines) == 0


class TestRegistryRelease:
    """A completed top-level activity and its descendants leave the
    registry, so a long-running manager's heap tracks live work only."""

    @staticmethod
    def complete_trees(manager, count):
        for _ in range(count):
            top = manager.begin("top")
            manager.begin("child", parent=top).complete()
            top.complete()

    def test_completed_tree_is_released(self):
        manager = ActivityManager()
        top = manager.begin("top")
        child = manager.begin("child", parent=top)
        child.complete()
        # A nested completion keeps the tree: its root is still live.
        assert manager.knows(child.activity_id)
        top.complete()
        assert not manager.knows(top.activity_id)
        assert not manager.knows(child.activity_id)
        assert (manager.begun, manager.completed) == (2, 2)

    def test_retained_heap_stays_flat(self):
        import gc
        import tracemalloc

        manager = ActivityManager(event_log=EventLog(max_events=64))
        self.complete_trees(manager, 200)  # warm every lazily built structure
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.complete_trees(manager, 1000)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # Retaining the trees costs ~2.4 kB each (2.4 MB here); released,
        # only id-counter and allocator noise remains.
        assert grown < 64 * 1024
        assert manager.active_activities() == []


class TestBoundedEventLog:
    def test_unbounded_by_default(self):
        log = EventLog()
        for i in range(100):
            log.record("e", n=i)
        assert len(log) == 0  # no reader attached: nothing is kept
        log.attach()
        for i in range(100):
            log.record("e", n=i)
        assert len(log) == 100
        assert log.dropped == 0
        assert log.max_events is None

    def test_ring_buffer_keeps_latest_and_counts_dropped(self):
        log = EventLog(max_events=10).attach()
        for i in range(25):
            log.record("e", n=i)
        assert len(log) == 10
        assert log.dropped == 15
        assert [event.detail["n"] for event in log] == list(range(15, 25))
        assert log.sequence("n")[-1] == ("e", 24)

    def test_clear_resets_ring_and_dropped(self):
        log = EventLog(max_events=4).attach()
        for i in range(9):
            log.record("e", n=i)
        log.clear()
        assert len(log) == 0 and log.dropped == 0
        log.record("fresh")
        assert log.kinds() == ["fresh"]

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)

    def test_bounded_log_usable_by_manager(self):
        log = EventLog(max_events=5).attach()
        manager = ActivityManager(event_log=log)
        for _ in range(10):
            manager.begin().complete()
        assert len(log) == 5
        assert log.dropped > 0


class TestFactoryWheel:
    def test_timeout_fires_on_advance_like_heap_path(self):
        clock_driven = TransactionFactory()
        polled = TransactionFactory(clock=ManualClock())
        for factory in (clock_driven, polled):
            factory.event_log.attach()
            tx = factory.create(timeout=5.0)
            factory.clock.advance(6.0)
            if factory is polled:
                assert factory.expire_timeouts() == [tx.tid]
            assert tx.status is TransactionStatus.ROLLED_BACK
            assert factory.event_log.of_kind("tx_timeout")[0].detail["tid"] == tx.tid
        assert clock_driven.event_log.kinds() == polled.event_log.kinds()

    def test_commit_cancels_deadline_timer(self):
        factory = TransactionFactory()
        factory.event_log.attach()
        tx = factory.create(timeout=5.0)
        tx.commit()
        assert factory.clock.pending_timers == 0
        factory.clock.advance(10.0)
        assert tx.status is TransactionStatus.COMMITTED
        assert factory.event_log.of_kind("tx_timeout") == []

    def test_finished_timed_transactions_leave_no_clock_timer(self):
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock)
        for _ in range(100):
            factory.create(timeout=60.0).commit()
        assert clock.pending_timers == 0

    def test_unpolled_wall_clock_factory_stays_bounded(self):
        """Nothing polls a daemon's wall-clock factory: finished
        transactions' cancelled timers must not pile up in its queue."""
        factory = TransactionFactory(clock=WallClock())
        keep = [factory.create(timeout=3600.0) for _ in range(10)]
        deadlines = factory._deadlines
        for _ in range(2_000):
            factory.create(timeout=60.0).commit()
            assert len(deadlines._heap) <= 2 * len(deadlines) + 1
        assert len(deadlines) == len(keep)

    def test_expire_timeouts_sweep_on_wall_clock(self):
        import time

        factory = TransactionFactory(clock=WallClock())
        tx = factory.create(timeout=0.01)
        keeper = factory.create(timeout=60.0)
        time.sleep(0.03)
        expired = factory.expire_timeouts()
        assert expired == [tx.tid]
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert keeper.status is TransactionStatus.ACTIVE
        assert factory.expire_timeouts() == []

    def test_shared_wheel_with_clock(self):
        """On a SimulatedClock the factory arms its deadlines on the
        clock's own queue, so ``advance`` expires them."""
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock)
        tx = factory.create(timeout=3.0)
        assert clock.pending_timers == 1
        clock.advance(4.0)
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert factory.expire_timeouts() == []

    def test_registry_operations_sharded(self):
        factory = TransactionFactory(config=FactoryConfig(registry_shards=4))
        txs = [factory.create() for _ in range(20)]
        assert [t.tid for t in factory.active_transactions()] == sorted(
            t.tid for t in txs
        )
        txs[3].commit()
        assert txs[3] not in factory.active_transactions()
        assert factory.forget_completed() == 1
        assert not factory.knows(txs[3].tid)
        assert factory.knows(txs[4].tid)


class TestRecoveredDeadlines:
    def test_deadline_survives_recovery_and_expires(self):
        from repro.persistence.object_store import MemoryStore

        store = MemoryStore()
        clock = SimulatedClock()
        first = ActivityManager(clock=clock, store=store)
        activity = first.begin("timed", timeout=10.0)
        first.checkpoint(activity)
        # Crash: new manager over the same store and clock.
        second = ActivityManager(clock=clock, store=store)
        in_flight = second.recover()
        assert in_flight == [activity.activity_id]
        recovered = second.get(activity.activity_id)
        assert recovered.deadline == 10.0
        assert len(second._deadlines) == 1
        clock.advance(11.0)
        assert second.expire_timeouts() == [activity.activity_id]

    def test_overdue_recovered_deadline_clamped_to_next_sweep(self):
        from repro.persistence.object_store import MemoryStore

        store = MemoryStore()
        clock = SimulatedClock()
        first = ActivityManager(clock=clock, store=store)
        activity = first.begin("timed", timeout=5.0)
        first.checkpoint(activity)
        clock.advance(60.0)  # downtime: deadline long past at recovery
        second = ActivityManager(clock=clock, store=store)
        second.recover()
        clock.advance(1.0)
        assert second.expire_timeouts() == [activity.activity_id]


class TestCurrentExecutorPassthrough:
    def test_current_begin_routes_executor(self):
        from repro.core import SerialBroadcastExecutor

        manager = ActivityManager()
        executor = SerialBroadcastExecutor()
        activity = manager.current.begin("demarcated", executor=executor)
        assert activity.coordinator.executor is executor
        manager.current.complete()


class TestSharedWheelCrossOwner:
    def test_wheel_expiry_order_matches_naive_begin_order(self):
        """Deadlines out of begin order: both sweeps must return ids and
        record events in begin order."""

        def run(sweep):
            manager = ActivityManager()
            manager.event_log.attach()  # expiry_trace reads it
            manager.begin("later-deadline", timeout=10.0)
            manager.begin("earlier-deadline", timeout=5.0)
            manager.clock.advance(11.0)
            return manager, sweep(manager)

        naive, naive_expired = run(reference_sweep)
        queued, queued_expired = run(queue_sweep)
        assert naive_expired == queued_expired == ["activity-1", "activity-2"]
        assert expiry_trace(naive) == expiry_trace(queued)


class TestMemoizedListings:
    """PR 7 satellite: registry/store listings stop re-sorting per call."""

    def test_sorted_keys_memoized_until_key_set_changes(self):
        striped = StripedMap(shards=8)
        for i in range(100):
            striped.put(f"k-{i:03d}", i)
        first = striped.sorted_keys()
        assert first == tuple(sorted(f"k-{i:03d}" for i in range(100)))
        assert striped.listing_rebuilds == 1
        assert striped.sorted_keys() is first  # cache hit: same tuple
        assert striped.listing_rebuilds == 1
        # Overwrites and missing-key pops keep the key set (and cache).
        striped.put("k-050", "overwritten")
        striped.pop("absent")
        striped.setdefault("k-051", "ignored")
        assert striped.sorted_keys() is first
        assert striped.listing_rebuilds == 1
        # Adding or removing a key invalidates.
        striped.put("k-999", True)
        second = striped.sorted_keys()
        assert striped.listing_rebuilds == 2
        assert "k-999" in second
        striped.pop("k-999")
        assert striped.sorted_keys() == first
        assert striped.listing_rebuilds == 3
        striped.clear()
        assert striped.sorted_keys() == ()

    def test_memory_store_keys_memoized(self):
        from repro.persistence.object_store import MemoryStore

        store = MemoryStore()
        for i in range(20):
            store.put(f"uid-{i:02d}", {"n": i})
        listing = store.keys()
        assert listing == tuple(sorted(f"uid-{i:02d}" for i in range(20)))
        assert store.keys() is listing  # cache hit
        store.put("uid-05", {"n": "overwrite"})  # key set unchanged
        assert store.keys() is listing
        store.put("uid-99", {"n": 99})
        fresh = store.keys()
        assert fresh is not listing and "uid-99" in fresh
        store.remove("uid-99")
        assert store.keys() == listing

    def test_factory_sweeps_reuse_listing(self):
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock)
        for _ in range(10):
            factory.create(timeout=100.0)
        factory.redrive_stuck()
        rebuilds = factory._active.listing_rebuilds
        assert rebuilds >= 1
        # Nothing began or finished: further sweeps hit the cache.
        factory.expire_timeouts()
        factory.active_transactions()
        assert factory._active.listing_rebuilds == rebuilds

    def test_contention_listing_stays_consistent(self):
        """Writers churning disjoint key ranges while readers list must
        never surface a torn snapshot (unsorted or duplicated keys)."""
        striped = StripedMap(shards=8)
        for i in range(200):
            striped.put(f"stable-{i:03d}", i)
        stop = threading.Event()
        errors = []

        def churn(slot):
            try:
                for round_ in range(300):
                    key = f"churn-{slot}-{round_ % 7}"
                    striped.put(key, round_)
                    striped.pop(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def lister():
            try:
                while not stop.is_set():
                    snapshot = striped.sorted_keys()
                    assert list(snapshot) == sorted(set(snapshot))
                    assert len(snapshot) >= 200
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=churn, args=(n,)) for n in range(6)]
        readers = [threading.Thread(target=lister) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert errors == []
        # After the churn settles the memoized listing is exact.
        final = striped.sorted_keys()
        assert final == tuple(sorted(f"stable-{i:03d}" for i in range(200)))
