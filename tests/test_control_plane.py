"""Control-plane scaling: wheel-driven expiry, sharded registries,
bounded tracing and background maintenance."""

import threading

import pytest

from repro.config import FactoryConfig, RuntimeConfig
from repro.core import ActivityManager, ThreadPoolBroadcastExecutor
from repro.core.status import CompletionStatus
from repro.ots import TransactionFactory
from repro.ots.status import TransactionStatus
from repro.persistence.object_store import SegmentedFileStore
from repro.util.clock import SimulatedClock, WallClock
from repro.util.events import EventLog
from repro.util.sharding import StripedMap
from repro.util.timer_wheel import HierarchicalTimerWheel


def expiry_trace(manager):
    return [
        (event.kind, event.detail.get("activity"), event.detail.get("status"))
        for event in manager.event_log
        if event.kind in ("completion_status", "activity_timeout")
    ]


class TestWheelExpiryParity:
    """RuntimeConfig(timer_wheel=True) must mirror the naive sweep."""

    def _scenario(self, **manager_kwargs):
        manager = ActivityManager(config=RuntimeConfig(**manager_kwargs))
        slow = manager.begin("slow", timeout=5.0)
        slower = manager.begin("slower", timeout=8.0)
        patient = manager.begin("patient", timeout=100.0)
        done = manager.begin("done", timeout=5.0)
        done.complete()  # completes before its deadline: timer cancelled
        untimed = manager.begin("untimed")
        manager.clock.advance(6.0)
        first = manager.expire_timeouts()
        manager.clock.advance(3.0)
        second = manager.expire_timeouts()
        third = manager.expire_timeouts()  # nothing new
        return manager, (slow, slower, patient, done, untimed), (first, second, third)

    def test_same_expirations_same_events_as_sweep(self):
        naive, naive_acts, naive_sweeps = self._scenario()
        wheel, wheel_acts, wheel_sweeps = self._scenario(timer_wheel=True)
        assert naive_sweeps == wheel_sweeps
        assert naive_sweeps[0] == [naive_acts[0].activity_id]
        assert naive_sweeps[1] == [naive_acts[1].activity_id]
        assert naive_sweeps[2] == []
        assert expiry_trace(naive) == expiry_trace(wheel)
        for acts in (naive_acts, wheel_acts):
            assert acts[0].get_completion_status() is CompletionStatus.FAIL_ONLY
            assert acts[1].get_completion_status() is CompletionStatus.FAIL_ONLY
            assert acts[2].get_completion_status() is CompletionStatus.SUCCESS

    def test_deadline_exactly_at_sweep_time_not_expired(self):
        for kwargs in ({}, {"timer_wheel": True}):
            manager = ActivityManager(config=RuntimeConfig(**kwargs))
            manager.begin("edge", timeout=5.0)
            manager.clock.advance(5.0)
            assert manager.expire_timeouts() == []  # strict: now > deadline
            manager.clock.advance(0.5)
            assert len(manager.expire_timeouts()) == 1

    def test_completion_cancels_wheel_timer(self):
        manager = ActivityManager(config=RuntimeConfig(timer_wheel=True))
        activity = manager.begin("quick", timeout=5.0)
        assert manager.timer_wheel.pending == 1
        activity.complete()
        assert manager.timer_wheel.pending == 0
        manager.clock.advance(10.0)
        assert manager.expire_timeouts() == []

    def test_manually_latched_activity_not_reported(self):
        for kwargs in ({}, {"timer_wheel": True}):
            manager = ActivityManager(config=RuntimeConfig(**kwargs))
            activity = manager.begin("latched", timeout=5.0)
            activity.set_completion_status(CompletionStatus.FAIL_ONLY)
            manager.clock.advance(6.0)
            assert manager.expire_timeouts() == []

    def test_expiry_work_proportional_to_expiring(self):
        manager = ActivityManager(config=RuntimeConfig(timer_wheel=True))
        for _ in range(500):
            manager.begin(timeout=10_000.0)
        for _ in range(3):
            manager.begin(timeout=2.0)
        manager.clock.advance(5.0)
        fired_before = manager.timer_wheel.fired
        expired = manager.expire_timeouts()
        assert len(expired) == 3
        # Only the expiring timers fired; the 500 longlived ones untouched.
        assert manager.timer_wheel.fired - fired_before == 3

    def test_wheel_works_on_wall_clock(self):
        clock = WallClock()
        manager = ActivityManager(
            clock=clock,
            config=RuntimeConfig(timer_wheel=True, wheel_tick=0.005),
        )
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
                config=RuntimeConfig(
                    timer_wheel=True,
                    wheel_tick=0.001,
                    registry_shards=16,
                ),
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
        assert manager.timer_wheel.pending == 0


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
        assert len(log) == 100
        assert log.dropped == 0
        assert log.max_events is None

    def test_ring_buffer_keeps_latest_and_counts_dropped(self):
        log = EventLog(max_events=10)
        for i in range(25):
            log.record("e", n=i)
        assert len(log) == 10
        assert log.dropped == 15
        assert [event.detail["n"] for event in log] == list(range(15, 25))
        assert log.sequence("n")[-1] == ("e", 24)

    def test_clear_resets_ring_and_dropped(self):
        log = EventLog(max_events=4)
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
        log = EventLog(max_events=5)
        manager = ActivityManager(event_log=log)
        for _ in range(10):
            manager.begin().complete()
        assert len(log) == 5
        assert log.dropped > 0


class TestBackgroundMaintenance:
    def _dirty_store(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "seg"))
        for round_index in range(6):
            store.put_many({f"k{i}": f"v{round_index}" for i in range(10)})
        return store  # 60 frames, 10 live keys

    def test_scheduled_compaction_runs_via_wheel(self, tmp_path):
        store = self._dirty_store(tmp_path)
        manager = ActivityManager(store=store, config=RuntimeConfig(timer_wheel=True))
        timer = manager.schedule_store_maintenance(interval=10.0, min_dead_ratio=0.5)
        assert store.dead_record_ratio() > 0.5
        manager.clock.advance(11.0)
        manager.expire_timeouts()  # sweeps drive the private wheel
        assert timer.fires == 1
        assert store.dead_record_ratio() == 0.0
        assert store.get("k3") == "v5"

    def test_compaction_skipped_below_threshold(self, tmp_path):
        store = SegmentedFileStore(str(tmp_path / "seg"))
        store.put_many({f"k{i}": i for i in range(10)})  # all live
        manager = ActivityManager(store=store, config=RuntimeConfig(timer_wheel=True))
        timer = manager.schedule_store_maintenance(interval=5.0, min_dead_ratio=0.5)
        manager.clock.advance(6.0)
        manager.expire_timeouts()
        assert timer.fires == 1
        assert store.dead_record_ratio() == 0.0
        assert not store.compact_if_needed(0.9)

    def test_cancel_maintenance_stops_the_cycle(self, tmp_path):
        store = self._dirty_store(tmp_path)
        manager = ActivityManager(store=store, config=RuntimeConfig(timer_wheel=True))
        timer = manager.schedule_store_maintenance(interval=10.0)
        assert manager.cancel_maintenance() == 1
        manager.clock.advance(50.0)
        manager.expire_timeouts()
        assert timer.fires == 0

    def test_maintenance_requires_wheel_and_store(self, tmp_path):
        from repro.core.exceptions import ActivityServiceError

        with pytest.raises(ActivityServiceError):
            ActivityManager().schedule_maintenance(5.0, lambda: None)
        with pytest.raises(ActivityServiceError):
            ActivityManager(config=RuntimeConfig(timer_wheel=True)).schedule_store_maintenance(5.0)

    def test_compact_if_needed_validates_ratio(self, tmp_path):
        store = self._dirty_store(tmp_path)
        with pytest.raises(ValueError):
            store.compact_if_needed(0.0)


class TestFactoryWheel:
    def test_timeout_fires_on_advance_like_heap_path(self):
        heap = TransactionFactory()
        wheel = TransactionFactory(config=FactoryConfig(timer_wheel=True))
        for factory in (heap, wheel):
            tx = factory.create(timeout=5.0)
            factory.clock.advance(6.0)
            assert tx.status is TransactionStatus.ROLLED_BACK
            assert factory.event_log.of_kind("tx_timeout")[0].detail["tid"] == tx.tid
        assert heap.event_log.kinds() == wheel.event_log.kinds()

    def test_commit_cancels_deadline_timer(self):
        factory = TransactionFactory(config=FactoryConfig(timer_wheel=True))
        tx = factory.create(timeout=5.0)
        tx.commit()
        assert factory.timer_wheel.pending == 0
        factory.clock.advance(10.0)
        assert tx.status is TransactionStatus.COMMITTED
        assert factory.event_log.of_kind("tx_timeout") == []

    def test_expire_timeouts_sweep_on_wall_clock(self):
        import time

        factory = TransactionFactory(
            clock=WallClock(),
            config=FactoryConfig(timer_wheel=True, wheel_tick=0.005),
        )
        tx = factory.create(timeout=0.01)
        keeper = factory.create(timeout=60.0)
        time.sleep(0.03)
        expired = factory.expire_timeouts()
        assert expired == [tx.tid]
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert keeper.status is TransactionStatus.ACTIVE
        assert factory.expire_timeouts() == []

    def test_shared_wheel_with_clock(self):
        clock = SimulatedClock()
        wheel = HierarchicalTimerWheel(tick=1.0)
        clock.attach_wheel(wheel)
        factory = TransactionFactory(
            clock=clock,
            config=FactoryConfig(timer_wheel=True),
        )
        assert factory.timer_wheel is wheel
        tx = factory.create(timeout=3.0)
        clock.advance(4.0)
        assert tx.status is TransactionStatus.ROLLED_BACK

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
        # Crash: new manager over the same store and clock, wheel enabled.
        second = ActivityManager(
            clock=clock,
            store=store,
            config=RuntimeConfig(timer_wheel=True),
        )
        in_flight = second.recover()
        assert in_flight == [activity.activity_id]
        recovered = second.get(activity.activity_id)
        assert recovered.deadline == 10.0
        assert second.timer_wheel.pending == 1
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
        second = ActivityManager(
            clock=clock,
            store=store,
            config=RuntimeConfig(timer_wheel=True),
        )
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


class TestSharedWheelStrictness:
    def test_clock_attached_shared_wheel_keeps_strict_expiry(self):
        """An activity whose deadline coincides exactly with a clock
        advance must not be latched (historical sweeps require strictly
        past), even when the manager's wheel is shared with the clock."""
        clock = SimulatedClock()
        wheel = HierarchicalTimerWheel(tick=1.0)
        clock.attach_wheel(wheel)
        manager = ActivityManager(clock=clock, config=RuntimeConfig(timer_wheel=wheel))
        activity = manager.begin("edge", timeout=5.0)
        clock.advance(5.0)  # exactly the deadline: inclusive clock firing
        assert activity.get_completion_status() is CompletionStatus.SUCCESS
        clock.advance(1.0)  # strictly past now
        assert activity.get_completion_status() is CompletionStatus.FAIL_ONLY


class TestSharedWheelCrossOwner:
    """Pathological shared-wheel configs must degrade safely, not hang."""

    def test_wheel_expiry_order_matches_naive_begin_order(self):
        """Deadlines out of begin order: both modes must return ids and
        record events in begin order."""

        def run(**kwargs):
            manager = ActivityManager(config=RuntimeConfig(**kwargs))
            manager.begin("later-deadline", timeout=10.0)
            manager.begin("earlier-deadline", timeout=5.0)
            manager.clock.advance(11.0)
            return manager, manager.expire_timeouts()

        naive, naive_expired = run()
        wheel, wheel_expired = run(timer_wheel=True)
        assert naive_expired == wheel_expired == ["activity-1", "activity-2"]
        assert expiry_trace(naive) == expiry_trace(wheel)

    def test_foreign_advance_does_not_livelock_or_drop_activity_expiry(self):
        """A wheel shared by two managers on different clocks: a foreign
        sweep fires the timer early; the owner must neither spin forever
        nor lose the deadline."""
        wheel = HierarchicalTimerWheel(tick=1.0)
        owner = ActivityManager(config=RuntimeConfig(timer_wheel=wheel))
        foreign = ActivityManager(config=RuntimeConfig(timer_wheel=wheel))
        activity = owner.begin("timed", timeout=5.0)
        foreign.clock.advance(10.0)
        assert foreign.expire_timeouts() == []  # must return, not hang
        # The early firing latched nothing and queued a re-arm.
        assert activity.get_completion_status() is CompletionStatus.SUCCESS
        # The re-arm clamps to the shared wheel's time (a wheel cannot
        # run backwards), so expiry lands once the owner's clock passes
        # the foreign advance.
        owner.clock.advance(6.0)
        owner.expire_timeouts()  # re-arms; wheel time (10) not yet reached
        assert activity.get_completion_status() is CompletionStatus.SUCCESS
        owner.clock.advance(5.0)  # now 11 > wheel's 10
        assert owner.expire_timeouts() == [activity.activity_id]
        assert activity.get_completion_status() is CompletionStatus.FAIL_ONLY

    def test_foreign_advance_does_not_disarm_tx_timeout(self):
        """Same cross-owner shape for the OTS factory: the one-shot wheel
        timer fired early must be re-armed, not silently dropped."""
        wheel = HierarchicalTimerWheel(tick=1.0)
        factory = TransactionFactory(
            clock=WallClock(),
            config=FactoryConfig(timer_wheel=wheel),
        )
        tx = factory.create(timeout=3600.0)  # far future in wall time
        foreign = ActivityManager(config=RuntimeConfig(timer_wheel=wheel))
        foreign.clock.advance(10_000.0)
        foreign.expire_timeouts()  # fires tx's timer way ahead of deadline
        assert tx.status.name == "ACTIVE"
        assert factory.expire_timeouts() == []  # re-arms the deadline
        assert factory.timer_wheel.pending >= 1
        assert tx.status.name == "ACTIVE"

    def test_wheel_cannot_be_attached_to_two_clocks(self):
        from repro.exceptions import InvalidStateError

        wheel = HierarchicalTimerWheel(tick=1.0)
        SimulatedClock().attach_wheel(wheel)
        with pytest.raises(InvalidStateError):
            SimulatedClock().attach_wheel(wheel)
        # Re-attaching to the same clock stays idempotent.
        factory_clock = SimulatedClock()
        shared = HierarchicalTimerWheel(tick=1.0)
        factory_clock.attach_wheel(shared)
        factory_clock.attach_wheel(shared)


class TestAdvanceTimeExpiry:
    """Satellite: the manager's wheel attached to SimulatedClock advance.

    With ``attach_wheel_to_clock=True`` a timed activity expires during
    ``clock.advance()`` itself — no ``expire_timeouts`` poll needed —
    while the strictly-past-deadline latch, the recorded events and the
    not-re-reported contract all match the historical sweep.
    """

    def test_expiry_fires_during_advance(self):
        clock = SimulatedClock()
        manager = ActivityManager(
            clock=clock,
            config=RuntimeConfig(timer_wheel=True, attach_wheel_to_clock=True),
        )
        timed = manager.begin(timeout=5.0)
        untimed = manager.begin(timeout=1_000.0)
        clock.advance(6.0)
        assert timed.get_completion_status() is CompletionStatus.FAIL_ONLY
        assert untimed.get_completion_status() is CompletionStatus.SUCCESS
        # Advance-time expirations are not re-reported by a later sweep
        # (mirroring the OTS factory's historical behaviour).
        assert manager.expire_timeouts() == []

    def test_exact_deadline_is_not_expired(self):
        clock = SimulatedClock()
        manager = ActivityManager(
            clock=clock,
            config=RuntimeConfig(timer_wheel=True, attach_wheel_to_clock=True),
        )
        activity = manager.begin(timeout=5.0)
        clock.advance(5.0)  # now == deadline: strictly-past rule holds
        assert activity.get_completion_status() is CompletionStatus.SUCCESS
        clock.advance(0.001)
        assert activity.get_completion_status() is CompletionStatus.FAIL_ONLY

    def test_events_match_the_poll_only_sweep(self):
        def run(attach):
            clock = SimulatedClock()
            manager = ActivityManager(
                clock=clock,
                config=RuntimeConfig(timer_wheel=True, attach_wheel_to_clock=attach),
            )
            manager.begin(timeout=5.0, name="t1")
            manager.begin(timeout=7.0, name="t2")
            clock.advance(10.0)
            manager.expire_timeouts()
            return [event.brief() for event in manager.event_log.events]

        assert run(attach=True) == run(attach=False)

    def test_completion_cancels_the_clock_timer(self):
        clock = SimulatedClock()
        manager = ActivityManager(
            clock=clock,
            config=RuntimeConfig(timer_wheel=True, attach_wheel_to_clock=True),
        )
        activity = manager.begin(timeout=5.0)
        activity.complete()
        clock.advance(10.0)  # cancelled timer must not latch/raise
        assert manager.expire_timeouts() == []

    def test_reuses_a_wheel_already_attached_to_the_clock(self):
        clock = SimulatedClock()
        wheel = HierarchicalTimerWheel(tick=0.5)
        clock.attach_wheel(wheel)
        manager = ActivityManager(
            clock=clock,
            config=RuntimeConfig(timer_wheel=True, attach_wheel_to_clock=True),
        )
        assert manager.timer_wheel is wheel

    def test_requires_wheel_and_simulated_clock(self):
        from repro.core.exceptions import ActivityServiceError

        with pytest.raises(ActivityServiceError):
            ActivityManager(config=RuntimeConfig(attach_wheel_to_clock=True))
        with pytest.raises(ActivityServiceError):
            ActivityManager(
                clock=WallClock(),
                config=RuntimeConfig(timer_wheel=True, attach_wheel_to_clock=True),
            )


class TestFactoryScheduledMaintenance:
    """Satellite: OTS ``forget_completed`` on the wheel maintenance hook."""

    def test_forget_completed_runs_on_schedule(self):
        clock = SimulatedClock()
        factory = TransactionFactory(
            clock=clock,
            config=FactoryConfig(timer_wheel=True),
        )
        factory.schedule_forget_completed(10.0)
        for _ in range(4):
            factory.create().commit()
        live = factory.create()  # stays active across the sweep
        assert len(factory._transactions.keys()) == 5
        clock.advance(10.5)
        assert len(factory._transactions.keys()) == 1
        assert factory.get(live.tid) is live

    def test_recurring_across_many_intervals(self):
        clock = SimulatedClock()
        factory = TransactionFactory(
            clock=clock,
            config=FactoryConfig(timer_wheel=True),
        )
        factory.schedule_forget_completed(5.0)
        for _ in range(3):
            factory.create().commit()
            clock.advance(5.5)
            assert len(factory._transactions.keys()) == 0

    def test_cancel_maintenance_stops_the_cycle(self):
        clock = SimulatedClock()
        factory = TransactionFactory(
            clock=clock,
            config=FactoryConfig(timer_wheel=True),
        )
        factory.schedule_forget_completed(5.0)
        assert factory.cancel_maintenance() == 1
        factory.create().commit()
        clock.advance(20.0)
        assert len(factory._transactions.keys()) == 1

    def test_requires_timer_wheel(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            TransactionFactory().schedule_forget_completed(5.0)

    def test_custom_task_mirrors_store_maintenance(self):
        clock = SimulatedClock()
        factory = TransactionFactory(
            clock=clock,
            config=FactoryConfig(timer_wheel=True),
        )
        ticks = []
        factory.schedule_maintenance(2.0, lambda: ticks.append(clock.now()))
        clock.advance(7.0)
        assert len(ticks) == 3


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
        factory.expire_timeouts()
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
