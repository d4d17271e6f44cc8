"""Activity interposition between two site daemons over real sockets.

A parent coordinator never builds anything in a foreign domain: it
invokes the domain's interposition servant (``fed:<site>/fedactivity``),
and that site finds or creates its own subordinate.  The same holds for
WSCF: the registering site builds its subordinate and enlists it with
one call to the issuing site's ``fed:<site>/wscf`` servant.  Both sites
run in this process, but every cross-site call crosses a socket.
"""

import pytest

from repro.core import RecordingAction
from repro.core.interposition import INTERPOSITION_SERVANT_ID, subordinate_object_id
from repro.core.signals import Outcome
from repro.models import TwoPhaseParticipant
from repro.models.twopc import SET_NAME as TWOPC_SET, TwoPhaseCommitSignalSet
from repro.orb.federation import coordination_node_id
from repro.orb.reference import ObjectRef
from repro.orb.site import SiteConfig, SiteRuntime
from repro.testing.process_harness import free_port
from repro.wscf import PROTOCOL_ATOMIC, WscfCoordinator


def vote_reply(signal):
    return Outcome.of("vote_commit" if signal.signal_name == "prepare" else "done")


@pytest.fixture
def sites():
    """Sites a and b, listening, each with its activity manager installed."""
    ports = {site: free_port() for site in ("a", "b")}
    peers = {site: ("127.0.0.1", port) for site, port in ports.items()}
    runtimes = [
        SiteRuntime(SiteConfig(site_id=site, port=port, peers=peers))
        for site, port in ports.items()
    ]
    for runtime in runtimes:
        runtime.transport.start()
        runtime.manager.install(runtime.orb)
    yield runtimes
    for runtime in runtimes:
        runtime.stop()
        runtime.transport.close()


def count_calls(servant, operation):
    """Count the dispatches of ``operation`` on one servant."""
    calls = []
    plain = getattr(servant, operation)

    def counted(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    setattr(servant, operation, counted)
    return calls


def test_two_phase_activity_commits_across_sites(sites):
    a, b = sites
    local = RecordingAction("on-a", reply=vote_reply)
    remote = RecordingAction("on-b", reply=vote_reply)
    local_ref = a.orb.create_node("apps-a").activate(local, object_id="action")
    b.orb.create_node("apps-b").activate(remote, object_id="action")
    remote_ref = ObjectRef("apps-b", "action", "RecordingAction").bind(a.orb)
    b_node = b.orb.node(coordination_node_id("b"))
    registers = count_calls(b_node.servant(INTERPOSITION_SERVANT_ID), "register")

    activity = a.manager.begin(name="cross-site")
    activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
    activity.add_action(TWOPC_SET, local_ref)
    activity.add_action(TWOPC_SET, remote_ref)
    # One register request for the remote action; site b built the
    # subordinate on its own coordination node, and the parent enlisted
    # that subordinate instead of the action.
    assert len(registers) == 1
    subordinate = b_node.servant(subordinate_object_id(activity.activity_id))
    assert subordinate.registration_count == 1
    assert activity.coordinator.action_count == 2

    assert activity.complete().name == "committed"
    assert local.signal_names == ["prepare", "commit"]
    assert remote.signal_names == ["prepare", "commit"]
    # One relay per signal reached site b.
    assert subordinate.signals_relayed == 2
    assert subordinate.local_sends == 2


def test_wscf_context_commits_through_one_subordinate(sites):
    a, b = sites
    issuer = WscfCoordinator(manager=a.manager)
    registrar = WscfCoordinator(manager=b.manager)
    context = issuer.create_context(PROTOCOL_ATOMIC)
    assert context.domain_id == "a"
    participants = [TwoPhaseParticipant(f"p{i}") for i in range(2)]
    for participant in participants:
        registrar.register(context, participant)

    subordinate = registrar.subordinate_for(context.context_id)
    assert subordinate is b.orb.node(coordination_node_id("b")).servant(
        subordinate_object_id(context.context_id)
    )
    assert subordinate.registration_count == 2
    # The issuing activity sees the one subordinate, not two participants.
    assert a.manager.get(context.context_id).coordinator.action_count == 1

    assert issuer.terminate(context.context_id).name == "committed"
    assert all(participant.committed for participant in participants)
    assert subordinate.signals_relayed == 2
