"""Property-based tests on fig. 7 and coordinator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivityCoordinator,
    GuardedSignalSet,
    Outcome,
    RecordingAction,
    SequenceSignalSet,
    SignalSetActive,
    SignalSetInactive,
)
from repro.core.status import SignalSetState

signal_names = st.lists(
    st.text(min_size=1, max_size=8), min_size=0, max_size=6
)


class TestGuardInvariants:
    @given(signal_names)
    @settings(max_examples=100, deadline=None)
    def test_state_never_regresses(self, names):
        """Fig. 7: Waiting → GetSignal → End, never backwards."""
        guard = GuardedSignalSet(SequenceSignalSet("s", names))
        order = {
            SignalSetState.WAITING: 0,
            SignalSetState.GET_SIGNAL: 1,
            SignalSetState.END: 2,
        }
        previous = guard.state
        while True:
            signal, last = guard.get_signal()
            assert order[guard.state] >= order[previous]
            previous = guard.state
            if signal is None:
                break
            guard.set_response(Outcome.done())
            if last:
                guard.finish_broadcast()
                break
        guard.get_outcome()
        assert guard.state is SignalSetState.END

    @given(signal_names)
    @settings(max_examples=100, deadline=None)
    def test_every_driving_call_after_end_raises(self, names):
        guard = GuardedSignalSet(SequenceSignalSet("s", names))
        # Drive to completion.
        while True:
            signal, last = guard.get_signal()
            if signal is None:
                break
            guard.set_response(Outcome.done())
            if last:
                guard.finish_broadcast()
                break
        guard.get_outcome()
        for call in (guard.get_signal, lambda: guard.set_response(Outcome.done())):
            try:
                call()
                raise AssertionError("expected SignalSetInactive")
            except SignalSetInactive:
                pass

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_get_outcome_mid_protocol_always_rejected(self, names):
        guard = GuardedSignalSet(SequenceSignalSet("s", names))
        guard.get_signal()  # at least one more signal pending
        try:
            guard.get_outcome()
            raise AssertionError("expected SignalSetActive")
        except SignalSetActive:
            pass


class TestCoordinatorInvariants:
    @given(
        signal_names,
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_action_sees_every_signal_in_order(self, names, action_count):
        coordinator = ActivityCoordinator("act")
        actions = [RecordingAction(f"a{i}") for i in range(action_count)]
        for action in actions:
            coordinator.add_action("s", action)
        coordinator.process_signal_set(SequenceSignalSet("s", names))
        for action in actions:
            assert action.signal_names == list(names)

    @given(signal_names, st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_delivery_ids_globally_unique(self, names, action_count):
        coordinator = ActivityCoordinator("act")
        actions = [RecordingAction(f"a{i}") for i in range(action_count)]
        for action in actions:
            coordinator.add_action("s", action)
        coordinator.process_signal_set(SequenceSignalSet("s", names))
        ids = [
            signal.delivery_id
            for action in actions
            for signal in action.received
        ]
        assert len(ids) == len(set(ids)) == len(names) * action_count

    @given(signal_names)
    @settings(max_examples=50, deadline=None)
    def test_trace_transmit_count_matches(self, names):
        coordinator = ActivityCoordinator("act")
        coordinator.event_log.attach()
        coordinator.add_action("s", RecordingAction())
        coordinator.add_action("s", RecordingAction())
        coordinator.process_signal_set(SequenceSignalSet("s", names))
        transmits = coordinator.event_log.of_kind("transmit")
        assert len(transmits) == 2 * len(names)
