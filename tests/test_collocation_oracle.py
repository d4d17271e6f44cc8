"""Differential oracle: a collocated call behaves as a call over the wire.

A collocated call (target node in the calling ORB) carries values and
hands each delivery a :meth:`~repro.orb.marshal.Marshaller.copy`; a call
across an in-process :class:`~repro.orb.federation.InterOrbBridge` is
encoded by one ORB and decoded by the other.  Each scenario runs once
each way, and everything an application can observe must be equal: the
arguments every servant sees (types and values, via :func:`shape`), the
outcomes, the revived exception types and the ``MarshalError``s.  Neither
way may let the caller and the servant alias each other's mutable state.
"""

import pytest

from repro.core import ActivityManager, CompletionStatus
from repro.exceptions import InvalidStateError
from repro.models.saga import Saga
from repro.models.twopc import SET_NAME, TwoPhaseCommitSignalSet, TwoPhaseParticipant
from repro.orb import FaultPlan, Orb
from repro.orb.core import RemoteApplicationError, Servant
from repro.orb.marshal import MarshalError

from tests.bridged import BridgedPair, shape


class Collocated:
    """The client's servants live in its own ORB."""

    def __init__(self) -> None:
        self.client = self.server = Orb()

    def activate(self, node_id, servant):
        orb = self.server
        node = orb.node(node_id) if orb.has_node(node_id) else orb.create_node(node_id)
        return node.activate(servant)


HOPS = {"collocated": Collocated, "bridged": BridgedPair}


def both_ways(scenario):
    """Run ``scenario`` over each kind of hop; the observations must match."""
    observed = {name: scenario(hop()) for name, hop in HOPS.items()}
    assert observed["collocated"] == observed["bridged"]
    return observed["collocated"]


class RecordingParticipant(TwoPhaseParticipant):
    def __init__(self, name, seen, votes_no=False):
        super().__init__(name, on_prepare=(lambda: False) if votes_no else None)
        self.seen = seen

    def process_signal(self, signal):
        self.seen.append((self.name, shape(signal)))
        return super().process_signal(signal)


class Worker(Servant):
    """Records every call's arguments; scripted to fail or to alias."""

    def __init__(self, seen):
        self.seen = seen
        self.kept = None
        self.state = ["servant"]

    def work(self, step, fail):
        self.seen.append(("work", shape((step, fail))))
        if fail:
            raise ValueError(f"step {step} fails as scheduled")
        return step

    def undo(self, step):
        self.seen.append(("undo", shape(step)))
        return step

    def append(self, items, extra):
        self.seen.append(("append", shape((items, extra))))
        items.append(extra)
        return len(items)

    def keep(self, items):
        self.kept = items
        return self.state

    def fail_registered(self):
        raise InvalidStateError("servant refuses", 7)

    def fail_unregistered(self):
        raise KeyError("missing")

    def echo(self, value):
        return value

    def unmarshallable_result(self):
        return object()


def raised(call):
    """What the caller observes when ``call`` raises."""
    try:
        call()
    except RemoteApplicationError as exc:
        return (RemoteApplicationError, exc.type_name, exc.message, shape(exc.remote_args))
    except Exception as exc:  # noqa: BLE001 - the observation is the point
        return (type(exc), shape(exc.args))
    return None


class TestScenarios:
    @pytest.mark.parametrize("no_voter", [None, 2])
    def test_two_phase_commit(self, no_voter):
        def scenario(hop):
            seen = []
            manager = ActivityManager(clock=hop.client.clock)
            manager.install(hop.client)
            activity = manager.current.begin("twopc")
            activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
            participants = [
                RecordingParticipant(f"p{i}", seen, votes_no=i == no_voter) for i in range(4)
            ]
            for index, participant in enumerate(participants):
                activity.add_action(SET_NAME, hop.activate(f"n{index}", participant))
            outcome = manager.current.complete(CompletionStatus.SUCCESS)
            states = [(p.prepared, p.committed, p.rolled_back) for p in participants]
            return seen, shape(outcome), outcome.name, states

        seen, _, outcome, states = both_ways(scenario)
        assert outcome == ("committed" if no_voter is None else "rolled_back")
        assert len(seen) >= 4 and len(states) == 4

    def test_compensating_saga(self):
        def scenario(hop):
            seen = []
            manager = ActivityManager(clock=hop.client.clock)
            manager.install(hop.client)
            workers = [hop.activate(f"n{i}", Worker(seen)) for i in range(3)]
            saga = Saga(manager, name="trip")
            for index, worker in enumerate(workers):
                step = f"s{index}"
                saga.add_step(
                    step,
                    work=lambda ctx, w=worker, s=step, f=index == 2: w.invoke("work", s, f),
                    compensation=lambda ctx, w=worker, s=step: w.invoke("undo", s),
                )
            result = saga.run()
            return seen, result.completed, result.compensated, result.failed_step

        seen, completed, compensated, failed = both_ways(scenario)
        assert (completed, compensated, failed) == (["s0", "s1"], ["s1", "s0"], "s2")
        assert [call for call, _ in seen] == ["work"] * 3 + ["undo"] * 2

    def test_duplicated_delivery_sees_fresh_arguments(self):
        def scenario(hop):
            seen = []
            ref = hop.activate("n0", Worker(seen))
            # Duplicate every request delivered to the servant's node.
            hop.server.transport.set_fault_plan(FaultPlan(duplicate_probability=1.0))
            items = [1, 2]
            result = ref.invoke("append", items, "x")
            return seen, result, items

        seen, result, items = both_ways(scenario)
        request = ("append", shape(([1, 2], "x")))
        assert seen == [request, request]
        assert (result, items) == (3, [1, 2])

    def test_servant_exceptions_revive_alike(self):
        def scenario(hop):
            ref = hop.activate("n0", Worker([]))
            return [
                raised(lambda: ref.invoke("fail_registered")),
                raised(lambda: ref.invoke("fail_unregistered")),
            ]

        registered, unregistered = both_ways(scenario)
        assert registered[0] is InvalidStateError
        assert unregistered[:2] == (RemoteApplicationError, "KeyError")

    def test_unmarshallable_values_are_marshal_errors_alike(self):
        class Unregistered:
            pass

        def scenario(hop):
            seen = []
            ref = hop.activate("n0", Worker(seen))
            return seen, [
                raised(lambda: ref.invoke("echo", Unregistered())),
                raised(lambda: ref.invoke("echo", [2**64])),
                raised(lambda: ref.invoke("unmarshallable_result")),
            ]

        seen, errors = both_ways(scenario)
        assert seen == []
        assert [error[0] for error in errors] == [MarshalError] * 3


class TestNoAliasing:
    @pytest.mark.parametrize("hop", sorted(HOPS))
    def test_neither_side_sees_the_others_mutations(self, hop):
        hop = HOPS[hop]()
        worker = Worker([])
        ref = hop.activate("n0", worker)
        sent = ["client"]
        returned = ref.invoke("keep", sent)
        assert worker.kept == sent and worker.kept is not sent
        assert returned == worker.state and returned is not worker.state
        sent.append("caller edit")
        returned.append("caller edit")
        worker.kept.append("servant edit")
        assert sent == ["client", "caller edit"]
        assert worker.kept == ["client", "servant edit"]
        assert worker.state == ["servant"]
