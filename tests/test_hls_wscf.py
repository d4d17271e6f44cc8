"""The fig. 13 HLS layer and the §5.2 WSCF variant."""

import pytest

from repro.core import ActivityServiceError, CompletionStatus
from repro.hls import (
    HlsActivityService,
    OpenNestedHls,
    TwoPhaseHls,
    WorkflowHls,
)
from repro.models import TwoPhaseParticipant, Workflow
from repro.models.open_nested import SET_NAME as ON_SET
from repro.models.twopc import SET_NAME as TWOPC_SET
from repro.wscf import (
    PROTOCOL_ATOMIC,
    PROTOCOL_BUSINESS,
    ActivationService,
    RegistrationService,
    WscfCoordinator,
)
from repro.wscf.coordination import WscfError


class TestHls:
    @pytest.fixture
    def service(self):
        hls = HlsActivityService()
        hls.register_service(TwoPhaseHls())
        hls.register_service(OpenNestedHls())
        return hls

    def test_service_registry(self, service):
        assert service.service_names() == ["atomic", "open-nested"]

    def test_unknown_service_rejected(self, service):
        with pytest.raises(ActivityServiceError):
            service.begin("nonexistent")

    def test_atomic_hls_configures_2pc_completion(self, service):
        activity = service.begin("atomic", name="pay")
        participant = TwoPhaseParticipant("p")
        activity.add_action(TWOPC_SET, participant)
        outcome = service.complete()
        assert outcome.name == "committed"
        assert participant.committed

    def test_atomic_hls_failure_rolls_back(self, service):
        activity = service.begin("atomic")
        participant = TwoPhaseParticipant("p")
        activity.add_action(TWOPC_SET, participant)
        outcome = service.complete(CompletionStatus.FAIL)
        assert outcome.name == "rolled_back"
        assert not participant.committed

    def test_open_nested_hls_configures_completion(self, service):
        activity = service.begin("open-nested")
        assert activity.completion_signal_set_name == ON_SET
        service.complete()

    def test_begin_without_service_is_plain(self, service):
        activity = service.begin(name="plain")
        assert activity.completion_signal_set_name is None
        service.complete()

    def test_nested_demarcation_through_user_activity(self, service):
        outer = service.begin("atomic", name="outer")
        inner = service.begin(name="inner")
        assert inner.parent is outer
        service.complete()
        outer_outcome = service.complete()
        assert outer_outcome.name == "committed"

    def test_recovery_factories_installed(self, service):
        # TwoPhaseHls.install registered a signal-set factory.
        signal_set = service.manager.make_signal_set("hls.atomic.completion")
        assert signal_set.signal_set_name == TWOPC_SET

    def test_workflow_hls_runs_workflows(self):
        hls = HlsActivityService()
        hls.register_service(WorkflowHls())
        workflow = Workflow("two-step")
        workflow.add_task("a", lambda c: 1)
        workflow.add_task("b", lambda c: 2, deps=["a"])
        result = hls._services["workflow"].run(workflow)
        assert result.succeeded

    def test_workflow_hls_requires_install(self):
        hls = WorkflowHls()
        with pytest.raises(ActivityServiceError):
            hls.run(Workflow("w"))


class TestWscf:
    @pytest.fixture
    def coordinator(self):
        return WscfCoordinator()

    def test_atomic_context_lifecycle(self, coordinator):
        context = coordinator.create_context(PROTOCOL_ATOMIC)
        participant = TwoPhaseParticipant("svc")
        coordinator.register(context.context_id, participant)
        outcome = coordinator.terminate(context.context_id, success=True)
        assert outcome.name == "committed"
        assert participant.committed
        assert coordinator.outcome_of(context.context_id) is outcome

    def test_atomic_failure_rolls_back(self, coordinator):
        context = coordinator.create_context(PROTOCOL_ATOMIC)
        participant = TwoPhaseParticipant("svc")
        coordinator.register(context.context_id, participant)
        outcome = coordinator.terminate(context.context_id, success=False)
        assert outcome.name == "rolled_back"

    def test_business_context_two_explicit_phases(self, coordinator):
        from repro.models import BtpParticipant, BtpStatus

        context = coordinator.create_context(PROTOCOL_BUSINESS)
        participant = BtpParticipant("svc")
        coordinator.register(context.context_id, participant)
        prepare_outcome = coordinator.prepare(context.context_id)
        assert not prepare_outcome.is_error
        assert participant.status is BtpStatus.PREPARED
        coordinator.terminate(context.context_id, success=True)
        assert participant.status is BtpStatus.CONFIRMED

    def test_prepare_on_atomic_rejected(self, coordinator):
        context = coordinator.create_context(PROTOCOL_ATOMIC)
        with pytest.raises(WscfError):
            coordinator.prepare(context.context_id)

    def test_unknown_coordination_type_rejected(self, coordinator):
        with pytest.raises(WscfError):
            coordinator.create_context("wscf:bogus")

    def test_terminated_context_unusable(self, coordinator):
        context = coordinator.create_context(PROTOCOL_ATOMIC)
        coordinator.terminate(context.context_id)
        with pytest.raises(WscfError):
            coordinator.register(context.context_id, TwoPhaseParticipant("late"))

    def test_no_ots_underneath(self, coordinator):
        """§5.2: the WSCF atomic protocol runs with no transaction factory,
        no OTS objects — coordination built purely on the framework."""
        context = coordinator.create_context(PROTOCOL_ATOMIC)
        participant = TwoPhaseParticipant("svc")
        coordinator.register(context.context_id, participant)
        outcome = coordinator.terminate(context.context_id)
        assert outcome.name == "committed"

    def test_remote_activation_and_registration(self):
        """Activation/registration services work as ORB servants with
        participant object references."""
        from repro.orb import Orb

        orb = Orb()
        host = orb.create_node("coordinator-host")
        svc_node = orb.create_node("participant-host")
        coordinator = WscfCoordinator()
        activation_ref = host.activate(ActivationService(coordinator))
        registration_ref = host.activate(RegistrationService(coordinator))

        context = activation_ref.invoke(
            "create_coordination_context", PROTOCOL_ATOMIC
        )
        participant = TwoPhaseParticipant("remote-svc")
        participant_ref = svc_node.activate(participant, interface="Action")
        assert registration_ref.invoke(
            "register_participant", context.context_id, participant_ref
        )
        outcome = coordinator.terminate(context.context_id)
        assert outcome.name == "committed"
        assert participant.committed


class TestWscfCrossDomain:
    """Federated WSCF: foreign-context registration auto-interposes."""

    @staticmethod
    def build_federation():
        from repro.core import ActivityManager
        from repro.orb import InterOrbBridge, Orb
        from repro.util.clock import SimulatedClock

        clock = SimulatedClock()
        bridge = InterOrbBridge()
        orb_a, orb_b = Orb(clock=clock), Orb(clock=clock)
        bridge.connect(orb_a, "dA")
        bridge.connect(orb_b, "dB")
        # Both managers are installed on federated ORBs, so both interpose.
        manager_a = ActivityManager(clock=clock)
        manager_a.install(orb_a)
        manager_b = ActivityManager(clock=clock)
        manager_b.install(orb_b)
        return bridge, WscfCoordinator(manager=manager_a), WscfCoordinator(
            manager=manager_b
        )

    @pytest.mark.parametrize("business", [False, True])
    def test_foreign_registration_interposes(self, business):
        from repro.models import BtpParticipant, BtpStatus

        bridge, wscf_a, wscf_b = self.build_federation()
        context = wscf_a.create_context(PROTOCOL_BUSINESS if business else PROTOCOL_ATOMIC)
        assert context.domain_id == "dA"
        make = BtpParticipant if business else TwoPhaseParticipant
        participants = [make(f"p{i}") for i in range(4)]
        for participant in participants:
            wscf_b.register(context, participant)
        subordinate = wscf_b.subordinate_for(context.context_id)
        assert subordinate is not None
        # A business-outcome participant enlists for both BTP sets.
        assert subordinate.registration_count == (8 if business else 4)
        assert wscf_b.interposed_registrations == 4
        # Four participants, one request to the issuing domain's wscf servant.
        assert bridge.cross_domain_requests() == 1
        if business:
            assert not wscf_a.prepare(context.context_id).is_error
            assert all(p.status is BtpStatus.PREPARED for p in participants)
        wscf_a.terminate(context.context_id, success=True)
        if business:
            assert all(p.status is BtpStatus.CONFIRMED for p in participants)
        else:
            assert wscf_a.outcome_of(context.context_id).name == "committed"
            assert all(p.committed for p in participants)

    def test_cross_bridge_sends_stay_constant_per_signal(self):
        """The regression the satellite pins: broadcast traffic across
        the bridge is O(1) per signal, not O(participants)."""
        costs = {}
        for count in (1, 5):
            bridge, wscf_a, wscf_b = self.build_federation()
            context = wscf_a.create_context(PROTOCOL_ATOMIC)
            participants = [TwoPhaseParticipant(f"p{i}") for i in range(count)]
            for participant in participants:
                wscf_b.register(context, participant)
            bridge.reset_link_stats()
            outcome = wscf_a.terminate(context.context_id, success=True)
            assert outcome.name == "committed"
            assert all(p.committed for p in participants)
            costs[count] = bridge.cross_domain_requests()
        assert costs[1] == costs[5]
        assert costs[1] > 0

    def test_failure_rolls_back_across_domains(self):
        bridge, wscf_a, wscf_b = self.build_federation()
        context = wscf_a.create_context(PROTOCOL_ATOMIC)
        participant = TwoPhaseParticipant("svc")
        wscf_b.register(context, participant)
        outcome = wscf_a.terminate(context.context_id, success=False)
        assert outcome.name == "rolled_back"
        assert not participant.committed

    def test_terminated_contexts_leave_bounded_state(self, monkeypatch):
        """100 federated atomic contexts, each registered from the second
        domain and terminated: the issuer keeps only the last outcomes,
        the registrar neither its subordinates nor their servants."""
        from repro.orb.federation import coordination_node_id
        from repro.wscf import coordination

        monkeypatch.setattr(coordination, "OUTCOME_TOMBSTONE_LIMIT", 10)
        bridge, wscf_a, wscf_b = self.build_federation()
        context_ids = []
        for index in range(100):
            context = wscf_a.create_context(PROTOCOL_ATOMIC)
            participants = [TwoPhaseParticipant(f"p{index}-{i}") for i in range(2)]
            for participant in participants:
                wscf_b.register(context, participant)
            assert wscf_a.terminate(context.context_id).name == "committed"
            assert all(p.committed for p in participants)
            context_ids.append(context.context_id)
        assert (wscf_a._contexts, wscf_a._activities) == ({}, {})
        assert list(wscf_a._terminated) == context_ids[-10:]
        assert wscf_a.outcome_of(context_ids[0]) is None
        assert wscf_a.outcome_of(context_ids[-1]).name == "committed"
        assert wscf_a.manager.active_activities() == []
        assert not [cid for cid in context_ids if wscf_b.subordinate_for(cid) is not None]
        for wscf in (wscf_a, wscf_b):
            orb = wscf.manager.orb
            node = orb.node(coordination_node_id(orb.domain_id))
            assert not [oid for oid in node.object_ids() if oid.startswith("fedsub:")]

    def test_local_context_token_takes_local_path(self):
        bridge, wscf_a, wscf_b = self.build_federation()
        context = wscf_a.create_context(PROTOCOL_ATOMIC)
        participant = TwoPhaseParticipant("svc")
        wscf_a.register(context, participant)  # full token, same domain
        assert wscf_a.subordinate_for(context.context_id) is None
        assert wscf_a.terminate(context.context_id).name == "committed"
        assert participant.committed

    def test_unpublished_issuer_refused(self):
        bridge, wscf_a, wscf_b = self.build_federation()
        from repro.wscf.coordination import CoordinationContext

        orphan = CoordinationContext("ctx-x", PROTOCOL_ATOMIC, "dC")
        with pytest.raises(WscfError, match="publishes no wscf"):
            wscf_b.register(orphan, TwoPhaseParticipant("svc"))
