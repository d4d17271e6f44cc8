"""Admission control: one ``max_live`` ceiling that fails fast.

The contract under test, layer by layer:

- :class:`AdmissionGate` — max-live enforcement with an immediate typed
  rejection at capacity, loud double release, exact counters, and the
  ceiling holding under concurrent begin/complete churn;
- the wiring — ``ActivityManager.begin`` / ``TransactionFactory.create``
  release their slot through the completion path exactly once, and the
  default configuration builds *no* gate at all.
"""

import sys
import threading

import pytest

from repro.config import ConfigValidationError, FactoryConfig, RuntimeConfig
from repro.core import ActivityManager
from repro.exceptions import AdmissionRejected, OverloadError
from repro.ots import TransactionFactory
from repro.util.admission import AdmissionGate, build_gate
from repro.util.clock import SimulatedClock


class TestAdmissionGate:
    def test_admits_to_cap_then_rejects(self):
        gate = AdmissionGate(2, name="g")
        gate.admit()
        gate.admit()
        with pytest.raises(AdmissionRejected) as err:
            gate.admit()
        assert "at capacity (2/2 live)" in str(err.value)
        assert isinstance(err.value, OverloadError)  # taxonomy: shed ⊂ overload
        gate.release()
        gate.admit()  # slot came back
        assert gate.live == 2
        assert gate.admitted == 3
        assert gate.rejected_full == 1
        assert gate.peak_live == 2

    def test_release_without_admit_is_loud(self):
        gate = AdmissionGate(1)
        with pytest.raises(OverloadError):
            gate.release()

    def test_describe_reports_the_ceiling_and_counters(self):
        gate = AdmissionGate(1, name="g")
        gate.admit()
        with pytest.raises(AdmissionRejected):
            gate.admit()
        assert gate.describe() == {
            "name": "g",
            "max_live": 1,
            "live": 1,
            "admitted": 1,
            "rejected_full": 1,
            "peak_live": 1,
        }


class TestControlPlaneGates:
    def test_default_configs_build_no_gate(self):
        assert build_gate(RuntimeConfig()) is None
        assert build_gate(FactoryConfig()) is None
        manager = ActivityManager(clock=SimulatedClock())
        assert manager.admission is None
        factory = TransactionFactory(clock=SimulatedClock())
        assert factory.admission is None

    def test_manager_begin_gates_and_completion_releases(self):
        clock = SimulatedClock()
        manager = ActivityManager(clock=clock, config=RuntimeConfig(max_live=2))
        first = manager.begin(name="a")
        manager.begin(name="b")
        with pytest.raises(AdmissionRejected):
            manager.begin(name="c")
        first.complete()
        replacement = manager.begin(name="c")  # slot released exactly once
        assert manager.admission.live == 2
        replacement.complete()

    def test_factory_create_gates_but_subtransactions_ride_free(self):
        clock = SimulatedClock()
        factory = TransactionFactory(clock=clock, config=FactoryConfig(max_live=1))
        top = factory.create()
        with pytest.raises(AdmissionRejected):
            factory.create()
        # Nested work inside an admitted transaction is already paid for.
        sub = factory.create_subtransaction(top)
        sub.rollback()
        top.rollback()
        assert factory.admission.live == 0
        factory.create().rollback()  # finished top-levels release their slot

    def test_failed_begin_does_not_leak_a_slot(self):
        clock = SimulatedClock()
        manager = ActivityManager(clock=clock, config=RuntimeConfig(max_live=1))
        minted = manager.ids.next

        def boom(kind):
            raise RuntimeError("id mint failure")

        manager.ids.next = boom
        try:
            with pytest.raises(RuntimeError):
                manager.begin(name="bad")
        finally:
            manager.ids.next = minted
        assert manager.admission.live == 0  # the slot was rolled back
        manager.begin(name="good").complete()

    def test_ceiling_holds_under_threaded_churn(self):
        """8 threads race begin/complete on one gated manager with a tiny
        switch interval: the ceiling is never crossed, every slot comes
        back, and every attempt is counted exactly once."""
        threads_n, rounds, cap = 8, 500, 4
        manager = ActivityManager(
            clock=SimulatedClock(), config=RuntimeConfig(max_live=cap)
        )
        errors = []

        def churn():
            try:
                for _ in range(rounds):
                    try:
                        activity = manager.begin(name="churn")
                    except AdmissionRejected:
                        continue
                    activity.complete()
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=churn) for _ in range(threads_n)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)

        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        gate = manager.admission
        assert gate.peak_live <= cap
        assert gate.live == 0
        assert gate.admitted + gate.rejected_full == threads_n * rounds


class TestSiteLoadControls:
    """Site-daemon wiring: a bounded event log by default."""

    def make_runtime(self, **overrides):
        from repro.orb.site import SiteConfig, SiteRuntime

        config = SiteConfig(site_id="s-load", port=0, **overrides)
        runtime = SiteRuntime(config)
        self._runtimes.append(runtime)
        return runtime

    @pytest.fixture(autouse=True)
    def _cleanup(self):
        self._runtimes = []
        yield
        for runtime in self._runtimes:
            runtime.stop()
            runtime.transport.close()

    def test_event_log_bounded_by_default(self):
        runtime = self.make_runtime()
        log = runtime.factory.event_log
        assert log.max_events == 4096
        for index in range(4100):
            log.record("tick", index=index)
        assert len(log) == 0  # a daemon nobody reads keeps no trace
        log.attach()
        for index in range(4100):
            log.record("tick", index=index)
        assert len(log) == 4096
        assert log.dropped == 4
        assert "event_log" not in runtime.debug_dump()

    def test_event_log_bound_is_configurable_and_removable(self):
        from repro.orb.site import SiteConfig

        assert (
            self.make_runtime(max_events=16).factory.event_log.max_events == 16
        )
        assert self.make_runtime(max_events=None).factory.event_log.max_events is None
        with pytest.raises(ConfigValidationError):
            SiteConfig(site_id="s", max_events=0)


class TestConfigValidation:
    def test_bad_policy_and_bounds_refused(self):
        with pytest.raises(ConfigValidationError):
            RuntimeConfig(max_live=0).validate()
        with pytest.raises(ConfigValidationError):
            FactoryConfig(max_live=1.5).validate()
        with pytest.raises(ConfigValidationError):
            RuntimeConfig(max_events=0).validate()
        RuntimeConfig(max_live=4).validate()
