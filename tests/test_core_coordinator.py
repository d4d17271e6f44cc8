"""Unit tests for the ActivityCoordinator broadcast engine (fig. 5)."""

import pytest

from repro.config import OrbConfig
from repro.core import (
    ActionError,
    ActivityCoordinator,
    AtMostOnceDelivery,
    BroadcastSignalSet,
    FunctionAction,
    Outcome,
    RecordingAction,
    SequenceSignalSet,
)
from repro.orb.core import Servant

from tests.bridged import BridgedPair


@pytest.fixture
def coordinator():
    return ActivityCoordinator("act-1")


class TestRegistration:
    def test_actions_register_by_set_name(self, coordinator):
        a1 = RecordingAction("a1")
        record = coordinator.add_action("set-x", a1)
        assert record.signal_set_name == "set-x"
        assert coordinator.actions_for("set-x") == [record]
        assert coordinator.actions_for("other") == []

    def test_action_count(self, coordinator):
        coordinator.add_action("a", RecordingAction())
        coordinator.add_action("a", RecordingAction())
        coordinator.add_action("b", RecordingAction())
        assert coordinator.action_count == 3

    def test_remove_action(self, coordinator):
        record = coordinator.add_action("a", RecordingAction())
        coordinator.remove_action(record)
        assert coordinator.actions_for("a") == []

    def test_remove_actions_for(self, coordinator):
        coordinator.add_action("a", RecordingAction())
        coordinator.add_action("a", RecordingAction())
        assert coordinator.remove_actions_for("a") == 2

    def test_registration_order_preserved(self, coordinator):
        order = []
        for name in ("first", "second", "third"):
            coordinator.add_action(
                "set", FunctionAction(lambda s, n=name: order.append(n), name=name)
            )
        coordinator.process_signal_set(BroadcastSignalSet("go", signal_set_name="set"))
        assert order == ["first", "second", "third"]


class TestBroadcast:
    def test_every_action_gets_every_signal(self, coordinator):
        a1, a2 = RecordingAction("a1"), RecordingAction("a2")
        coordinator.add_action("seq", a1)
        coordinator.add_action("seq", a2)
        coordinator.process_signal_set(SequenceSignalSet("seq", ["s1", "s2"]))
        assert a1.signal_names == ["s1", "s2"]
        assert a2.signal_names == ["s1", "s2"]

    def test_unique_delivery_ids_per_transmission(self, coordinator):
        a1, a2 = RecordingAction("a1"), RecordingAction("a2")
        coordinator.add_action("seq", a1)
        coordinator.add_action("seq", a2)
        coordinator.process_signal_set(SequenceSignalSet("seq", ["s1", "s2"]))
        ids = [s.delivery_id for s in a1.received + a2.received]
        assert len(set(ids)) == 4
        assert all(i is not None for i in ids)

    def test_outcome_returned(self, coordinator):
        coordinator.add_action("b", RecordingAction())
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_done

    def test_no_registered_actions_still_completes(self, coordinator):
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="empty")
        )
        assert outcome.is_done and outcome.data == []

    def test_action_error_becomes_error_outcome(self, coordinator):
        def explode(signal):
            raise ActionError("cannot")

        coordinator.add_action("b", FunctionAction(explode))
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_error

    def test_unexpected_exception_becomes_error_outcome(self, coordinator):
        def explode(signal):
            raise ValueError("bug in action")

        coordinator.add_action("b", FunctionAction(explode))
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_error

    def test_plain_return_value_wrapped(self, coordinator):
        coordinator.add_action("b", FunctionAction(lambda s: "data"))
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_done


class TestInterruption:
    """set_response returning True abandons the current broadcast."""

    class PivotingSet(SequenceSignalSet):
        def __init__(self):
            super().__init__("pivot", ["first", "second"])
            self.pivoted = False

        def on_response(self, signal_name, response):
            if signal_name == "first" and response.name == "pivot-now":
                self.pivoted = True
                return True
            return False

    def test_abandons_remaining_actions(self, coordinator):
        order = []
        coordinator.add_action(
            "pivot",
            FunctionAction(
                lambda s: (order.append(("a1", s.signal_name)), Outcome.of("pivot-now"))[-1],
                name="a1",
            ),
        )
        coordinator.add_action(
            "pivot",
            FunctionAction(lambda s: order.append(("a2", s.signal_name)), name="a2"),
        )
        signal_set = self.PivotingSet()
        coordinator.process_signal_set(signal_set)
        assert signal_set.pivoted
        # a2 never saw "first" (abandoned) but did see "second".
        assert ("a2", "first") not in order
        assert ("a2", "second") in order


class TestEventTrace:
    def test_fig5_shape(self, coordinator):
        """get_signal → transmit/set_response per action → get_outcome."""
        coordinator.event_log.attach()
        coordinator.add_action("b", RecordingAction("a1"))
        coordinator.add_action("b", RecordingAction("a2"))
        coordinator.process_signal_set(BroadcastSignalSet("go", signal_set_name="b"))
        kinds = coordinator.event_log.kinds()
        # Two add_action events, then the protocol.
        assert kinds[2:] == [
            "get_signal",
            "transmit",
            "set_response",
            "transmit",
            "set_response",
            "get_outcome",
        ]

    def test_trace_carries_signal_and_action(self, coordinator):
        coordinator.event_log.attach()
        coordinator.add_action("b", RecordingAction("a1"))
        coordinator.process_signal_set(BroadcastSignalSet("go", signal_set_name="b"))
        transmits = coordinator.event_log.of_kind("transmit")
        assert transmits[0].detail["signal"] == "go"
        assert transmits[0].detail["action"] == "a1"


class TestDeliveryIntegration:
    def test_unreachable_action_becomes_unreachable_outcome(self):
        from repro.exceptions import CommunicationError

        coordinator = ActivityCoordinator("act", delivery=AtMostOnceDelivery())

        class Gone:
            name = "gone"

            def process_signal(self, signal):
                raise CommunicationError("node down")

        coordinator.add_action("b", Gone())
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_error

    def test_retry_reuses_delivery_id(self):
        from repro.exceptions import CommunicationError

        seen_ids = []

        class FlakyAction:
            name = "flaky"

            def __init__(self):
                self.calls = 0

            def process_signal(self, signal):
                self.calls += 1
                seen_ids.append(signal.delivery_id)
                if self.calls == 1:
                    raise CommunicationError("blip")
                return Outcome.done()

        coordinator = ActivityCoordinator("act")
        coordinator.add_action("b", FlakyAction())
        outcome = coordinator.process_signal_set(
            BroadcastSignalSet("go", signal_set_name="b")
        )
        assert outcome.is_done
        assert len(seen_ids) == 2 and seen_ids[0] == seen_ids[1]


class _Unregistered:
    """A payload type the marshal registry has never seen."""


class _Echo(Servant):
    def process_signal(self, signal):
        return Outcome.done(signal.delivery_id)


def _remote_coordinator(pair, actions=2):
    """A coordinator whose actions sit across an encoding hop."""
    coordinator = ActivityCoordinator("act")
    for _ in range(actions):
        coordinator.add_action("b", pair.activate("server", _Echo()))
    return coordinator


class TestMarshalOnceFallback:
    """A broadcast's pre-encoded request falls back to the plain path
    only when the payload cannot be marshalled."""

    def test_unmarshallable_payload_gives_the_same_outcomes_either_way(self):
        results = []
        for marshal_cache_entries in (256, 0):
            pair = BridgedPair(OrbConfig(marshal_cache_entries=marshal_cache_entries))
            coordinator = _remote_coordinator(pair)
            signal_set = BroadcastSignalSet(
                "go", _Unregistered(), signal_set_name="b"
            )
            outcome = coordinator.process_signal_set(signal_set)
            results.append((outcome, signal_set.responses))
        assert results[0] == results[1]
        outcome, responses = results[0]
        assert outcome.is_error and len(responses) == 2
        assert all(
            response.is_error and "MarshalError" in response.data
            for response in responses
        )

    def test_a_bug_while_preparing_propagates(self, monkeypatch):
        pair = BridgedPair()
        coordinator = _remote_coordinator(pair)

        def broken(*args, **kwargs):
            raise AttributeError("template bug")

        monkeypatch.setattr(pair.client, "prepare_invocation", broken)
        with pytest.raises(AttributeError, match="template bug"):
            coordinator.process_signal_set(
                BroadcastSignalSet("go", signal_set_name="b")
            )
