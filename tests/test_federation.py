"""Inter-ORB federation: bridge routing + coordinator interposition.

Covers the federated-deployment story: domains linked by an
``InterOrbBridge`` (per-link fault plans, latency and traffic counters),
activity-side interposition (one subordinate coordinator per remote
domain, O(domains) inter-domain sends) and the OTS twin (interposed
subordinate transactions replacing re-association across the bridge).
"""

import sys
import threading

import pytest

from repro.config import FactoryConfig, OrbConfig
from repro.core import ActivityManager, RecordingAction, SubordinateCoordinator
from repro.core.interposition import (
    digest_outcomes,
    local_subordinate,
    recover_subordinates,
    subordinate_object_id,
)
from repro.core.signals import Outcome, Signal
from repro.exceptions import CommunicationError, ConfigurationError, ObjectNotExist
from repro.models.twopc import SET_NAME as TWOPC_SET, TwoPhaseCommitSignalSet
from repro.orb import InterOrbBridge, Orb
from repro.orb.membership import PeerState
from repro.orb.reference import ObjectRef
from repro.ots import (
    RecoverableRegistry,
    TransactionCurrent,
    TransactionFactory,
    TransactionalCell,
    TransactionRolledBack,
    install_federated_transaction_service,
)
from repro.ots.status import TransactionStatus
from repro.persistence import MemoryStore, SegmentedFileStore, WriteAheadLog
from repro.util.clock import SimulatedClock


def rebind(ref, orb):
    """The parent-side view of a ref minted in another domain."""
    return ObjectRef(ref.node_id, ref.object_id, ref.interface).bind(orb)


class Echo:
    def ping(self, value):
        return ("pong", value)


class FederatedWorld:
    """N activity domains joined by one bridge; domain 0 is the parent.

    Every manager is installed on its federated ORB, so each interposes
    and serves its own domain's subordinates."""

    def __init__(self, domains=2, store_factory=None):
        self.clock = SimulatedClock()
        self.bridge = InterOrbBridge()
        self.orbs = []
        self.managers = []
        self.nodes = []
        for index in range(domains):
            orb = Orb(clock=self.clock)
            self.bridge.connect(orb, f"d{index}")
            store = store_factory(index) if store_factory is not None else None
            manager = ActivityManager(clock=self.clock, store=store)
            manager.install(orb)
            self.orbs.append(orb)
            self.managers.append(manager)
            self.nodes.append(orb.create_node(f"node-{index}"))

    @property
    def parent(self):
        return self.managers[0]

    def activate_remote(self, domain, action, object_id):
        """Activate ``action`` in ``domain``; return a parent-bound ref."""
        ref = self.nodes[domain].activate(action, object_id=object_id)
        return rebind(ref, self.orbs[0])


class TestInterOrbBridge:
    def make_pair(self):
        clock = SimulatedClock()
        bridge = InterOrbBridge()
        a, b = Orb(clock=clock), Orb(clock=clock)
        bridge.connect(a, "A")
        bridge.connect(b, "B")
        return clock, bridge, a, b

    def test_connect_assigns_and_validates_domains(self):
        bridge = InterOrbBridge()
        orb = Orb()
        assert bridge.connect(orb) == "domain-0"
        assert bridge.connect(orb) == "domain-0"  # idempotent
        with pytest.raises(ConfigurationError):
            bridge.connect(Orb(), "domain-0")
        other_bridge = InterOrbBridge()
        with pytest.raises(ConfigurationError):
            other_bridge.connect(orb)

    def test_cross_domain_invocation_and_rebinding(self):
        _, bridge, a, b = self.make_pair()
        node_b = b.create_node("nb")
        ref = node_b.activate(Echo(), object_id="echo")
        assert rebind(ref, a).invoke("ping", 7) == ("pong", 7)
        assert bridge.cross_domain_requests() == 1
        assert bridge.cross_domain_bytes() > 0

    def test_refs_crossing_the_wire_route_back(self):
        _, bridge, a, b = self.make_pair()
        node_a, node_b = a.create_node("na"), b.create_node("nb")
        echo_a = node_a.activate(Echo(), object_id="echo-a")

        class CallsBack:
            def relay(self, ref):
                # ``ref`` decoded in B re-binds to B's orb; invoking it
                # must route back across the bridge into A.
                return ref.invoke("ping", "via-b")

        relay_ref = rebind(
            node_b.activate(CallsBack(), object_id="relay"), a
        )
        assert relay_ref.invoke("relay", echo_a) == ("pong", "via-b")
        assert bridge.cross_domain_requests() == 2  # out and back

    def test_link_latency_composes_per_hop(self):
        clock, bridge, a, b = self.make_pair()
        node_b = b.create_node("nb")
        ref = rebind(node_b.activate(Echo(), object_id="echo"), a)
        bridge.set_link_latency("A", "B", 0.010)
        begin = clock.now()
        ref.invoke("ping", 1)
        assert clock.now() - begin == pytest.approx(0.020)  # request + reply

    def test_partition_and_heal(self):
        _, bridge, a, b = self.make_pair()
        node_b = b.create_node("nb")
        ref = rebind(node_b.activate(Echo(), object_id="echo"), a)
        bridge.partition("A", "B")
        with pytest.raises(CommunicationError):
            ref.invoke("ping", 1)
        bridge.heal("A", "B")
        assert ref.invoke("ping", 2) == ("pong", 2)
        bridge.partition("A", "B")
        bridge.heal_all()
        assert ref.invoke("ping", 3) == ("pong", 3)

    def test_unrouteable_node_raises(self):
        _, bridge, a, _ = self.make_pair()
        ghost = ObjectRef("nowhere", "obj").bind(a)
        with pytest.raises(ObjectNotExist):
            ghost.invoke("ping", 1)

    def test_disconnected_domain_is_unreachable_not_missing(self):
        """A node of a domain the bridge knew and lost (its process
        died) is a dead peer: CommunicationError, counted against the
        link, until the domain reconnects.  ObjectNotExist stays for
        nodes no member ever owned."""
        clock, bridge, a, b = self.make_pair()
        detector = bridge.enable_failure_detection()
        node_b = b.create_node("nb")
        ref = rebind(node_b.activate(Echo(), object_id="echo"), a)
        assert ref.invoke("ping", 1) == ("pong", 1)
        bridge.disconnect("B")
        for _ in range(detector.config.failure_threshold):
            with pytest.raises(CommunicationError) as caught:
                ref.invoke("ping", 2)
            assert not isinstance(caught.value, ObjectNotExist)
        assert bridge.link_state("A", "B") is PeerState.DOWN
        with pytest.raises(ObjectNotExist):
            ObjectRef("nowhere", "obj").bind(a).invoke("ping", 1)
        # The restarted deployment reconnects under the same domain id:
        # what it re-creates routes again, what it does not is missing.
        reborn = Orb(clock=clock)
        bridge.connect(reborn, "B")
        with pytest.raises(ObjectNotExist):
            ref.invoke("ping", 3)

    def test_federated_node_ids_must_be_unique(self):
        _, bridge, a, b = self.make_pair()
        a.create_node("shared")
        with pytest.raises(ConfigurationError):
            b.create_node("shared")

    def test_conflicting_domain_rename_refused(self):
        bridge = InterOrbBridge()
        orb = Orb(config=OrbConfig(domain_id="X"))
        with pytest.raises(ConfigurationError):
            bridge.connect(orb, "Y")
        assert orb.domain_id == "X"  # untouched by the refused connect
        assert bridge.connect(orb) == "X"

    def test_marshal_once_templates_compose_across_the_bridge(self):
        _, bridge, a, b = self.make_pair()
        node_b = b.create_node("nb")
        ref = rebind(node_b.activate(Echo(), object_id="echo"), a)
        plain = a.marshaller.encode(
            [ref.object_id, "ping", [5], {}, {}]
        )
        prepared = a.prepare_invocation("ping", (5,))
        assert ref.invoke("ping", 5) == ("pong", 5)
        assert a.invoke(ref, "ping", (5,), {}, prepared=prepared) == ("pong", 5)
        assert prepared.fill(ref.object_id, {}, None) == plain

    def test_intra_domain_traffic_never_touches_links(self):
        _, bridge, a, _ = self.make_pair()
        node_a = a.create_node("na")
        ref = node_a.activate(Echo(), object_id="echo")
        ref.invoke("ping", 1)
        assert bridge.cross_domain_requests() == 0


class TestDigestOutcomes:
    def test_empty_is_done(self):
        assert digest_outcomes([]).is_done

    def test_first_error_wins_unchanged(self):
        outcomes = [
            Outcome.done(),
            Outcome.error(data="boom-1"),
            Outcome.error(data="boom-2"),
        ]
        digested = digest_outcomes(outcomes)
        assert digested.is_error and digested.data == "boom-1"

    def test_unanimous_name_preserved(self):
        digested = digest_outcomes(
            [Outcome.of("vote_commit"), Outcome.of("vote_commit")]
        )
        assert digested.name == "vote_commit" and not digested.is_error

    def test_unanimous_data_kept_divergent_data_dropped(self):
        same = digest_outcomes([Outcome.done(5), Outcome.done(5)])
        assert same.data == 5
        mixed = digest_outcomes([Outcome.done(5), Outcome.done(6)])
        assert mixed.data is None and mixed.name == same.name

    def test_split_vote_collapses_to_error(self):
        digested = digest_outcomes(
            [Outcome.of("vote_commit"), Outcome.of("vote_rollback")]
        )
        assert digested.is_error


class TestActivityInterposition:
    def test_one_subordinate_per_domain_per_set(self):
        world = FederatedWorld(domains=3)
        activity = world.parent.begin(name="fan")
        activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
        actions = {1: [], 2: []}
        for domain in (1, 2):
            for i in range(4):
                action = RecordingAction(
                    f"d{domain}-p{i}",
                    reply=lambda s: Outcome.of(
                        "vote_commit" if s.signal_name == "prepare" else "done"
                    ),
                )
                actions[domain].append(action)
                activity.add_action(
                    TWOPC_SET,
                    world.activate_remote(domain, action, f"p{domain}-{i}"),
                )
        # The parent registered exactly one action per remote domain.
        assert activity.coordinator.action_count == 2
        world.bridge.reset_link_stats()
        outcome = activity.complete()
        assert outcome.name == "committed"
        # prepare + commit, once per domain: O(domains), not O(N).
        assert world.bridge.cross_domain_requests() == 4
        for domain in (1, 2):
            for action in actions[domain]:
                assert action.signal_names == ["prepare", "commit"]

    def test_inter_domain_sends_flat_in_participants(self):
        counts = {}
        for per_domain in (2, 8):
            world = FederatedWorld(domains=2)
            activity = world.parent.begin()
            activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
            for i in range(per_domain):
                activity.add_action(
                    TWOPC_SET,
                    world.activate_remote(
                        1,
                        RecordingAction(
                            f"p{i}",
                            reply=lambda s: Outcome.of(
                                "vote_commit"
                                if s.signal_name == "prepare"
                                else "done"
                            ),
                        ),
                        f"p{i}",
                    ),
                )
            world.bridge.reset_link_stats()
            activity.complete()
            counts[per_domain] = world.bridge.cross_domain_requests()
        # prepare + commit, once each across the single link, however
        # many participants live behind it.
        assert counts[2] == counts[8] == 2

    def test_removed_interposed_record_is_not_served_stale(self):
        world = FederatedWorld(domains=2)
        activity = world.parent.begin()
        first = activity.add_action(
            "set", world.activate_remote(1, RecordingAction("a1"), "a1")
        )
        activity.remove_action(first)
        assert activity.coordinator.action_count == 0
        # A later cross-domain registration must re-enlist the
        # subordinate with the parent, not return the severed record.
        second = activity.add_action(
            "set", world.activate_remote(1, RecordingAction("a2"), "a2")
        )
        assert second is not first
        assert activity.coordinator.action_count == 1

    def test_local_actions_register_directly(self):
        world = FederatedWorld(domains=2)
        activity = world.parent.begin()
        local = RecordingAction("local")
        local_ref = world.nodes[0].activate(local, object_id="local")
        record = activity.add_action("set", local_ref)
        assert record.action is local_ref  # no interposition detour
        assert world.parent.interposer.interposed_registrations == 0

    def test_concurrent_registrations_build_one_subordinate(self):
        world = FederatedWorld(domains=2)
        remote = world.managers[1]
        found, errors = [], []
        barrier = threading.Barrier(16)

        def find_or_create():
            try:
                barrier.wait(10)
                found.append(local_subordinate(remote, "act-race"))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=find_or_create) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(found) == 16 and len({id(sub) for sub in found}) == 1

    def test_subordinate_relays_through_executor_seam(self):
        subordinate = SubordinateCoordinator("act-1", "d1")
        subordinate.event_log.attach()
        received = []
        subordinate.register(
            "set", RecordingAction("a", reply=lambda s: Outcome.done("a"))
        )
        subordinate.register(
            "set", RecordingAction("b", reply=lambda s: Outcome.done("b"))
        )
        outcome = subordinate.process_signal(Signal("go", "set"))
        assert outcome.is_done
        assert subordinate.signals_relayed == 1
        assert subordinate.local_sends == 2
        # Registration-order digestion: unanimous name, divergent data.
        received = [
            e for e in subordinate.event_log.events if e.kind == "sub_response"
        ]
        assert [e.detail["action"] for e in received] == ["a", "b"]

    def test_single_domain_traces_byte_identical_with_interposition(self):
        def run(interposition):
            clock = SimulatedClock()
            orb = Orb(clock=clock)
            if interposition:
                # Installed on a federated ORB, the manager interposes.
                InterOrbBridge().connect(orb, "solo")
            manager = ActivityManager(clock=clock)
            manager.event_log.attach()
            manager.install(orb)
            node = orb.create_node("n")
            activity = manager.begin(name="same")
            activity.register_signal_set(
                TwoPhaseCommitSignalSet(), completion=True
            )
            recorders = [RecordingAction(f"r{i}") for i in range(3)]
            for index, recorder in enumerate(recorders):
                activity.add_action(
                    TWOPC_SET,
                    node.activate(recorder, object_id=f"r{index}"),
                )
            activity.complete()
            trace = [event.brief() for event in manager.event_log.events]
            return trace, orb.transport.stats.bytes_sent

        plain_trace, plain_bytes = run(interposition=False)
        fed_trace, fed_bytes = run(interposition=True)
        assert fed_trace == plain_trace
        assert fed_bytes == plain_bytes

    @pytest.mark.parametrize("backend", ["memory", "segmented"])
    def test_subordinate_registrations_recover_from_domain_store(
        self, backend, tmp_path
    ):
        def store_factory(index):
            if backend == "memory":
                return MemoryStore()
            return SegmentedFileStore(tmp_path / f"store-{index}")

        world = FederatedWorld(domains=2, store_factory=store_factory)
        remote_manager = world.managers[1]
        remote_manager.register_action_factory(
            "recorder", lambda config: RecordingAction(config.get("name", "r"))
        )
        activity = world.parent.begin(name="durable")
        activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
        for i in range(3):
            activity.add_action(
                TWOPC_SET,
                world.activate_remote(1, RecordingAction(f"live-{i}"), f"p{i}"),
                factory_name="recorder",
                factory_config={"name": f"recovered-{i}"},
            )
        # Domain 1 built the subordinate on its own coordination node.
        coordination_node = world.bridge.coordination_node("d1")
        subordinate = coordination_node.servant(
            subordinate_object_id(activity.activity_id)
        )
        assert subordinate.registration_count == 3

        # Domain 1 crashes: volatile servants (subordinate included) die.
        coordination_node.crash()
        coordination_node.restart()
        if backend == "segmented":
            remote_manager.store.close()
            remote_manager.store = SegmentedFileStore(tmp_path / "store-1")  # reopen
        recovered = recover_subordinates(remote_manager)
        assert len(recovered) == 1
        assert recovered[0].registration_count == 3
        # The parent's retained ref routes to the recovered subordinate:
        # completing the activity replays the broadcast downward into
        # the factory-rebuilt actions.
        completed = activity.complete()
        assert completed.name == "committed"
        relayed = [
            record.action
            for record in recovered[0].registrations_for(TWOPC_SET)
        ]
        assert [action.name for action in relayed] == [
            "recovered-0",
            "recovered-1",
            "recovered-2",
        ]
        for action in relayed:
            assert action.signal_names == ["prepare", "commit"]


class TestWscfFederation:
    def test_context_carries_domain_id_and_registration_interposes(self):
        from repro.wscf import PROTOCOL_ATOMIC, WscfCoordinator

        world = FederatedWorld(domains=2)
        coordinator = WscfCoordinator(manager=world.parent)
        context = coordinator.create_context(PROTOCOL_ATOMIC)
        assert context.domain_id == "d0"
        participants = [
            RecordingAction(
                f"p{i}",
                reply=lambda s: Outcome.of(
                    "vote_commit" if s.signal_name == "prepare" else "done"
                ),
            )
            for i in range(4)
        ]
        for index, participant in enumerate(participants):
            coordinator.register(
                context.context_id,
                world.activate_remote(1, participant, f"wscf-p{index}"),
            )
        activity = world.parent.get(context.context_id)
        assert activity.coordinator.action_count == 1  # one subordinate
        world.bridge.reset_link_stats()
        outcome = coordinator.terminate(context.context_id)
        assert outcome.name == "committed"
        # prepare, commit, then one forget that retires d1's subordinate
        assert world.bridge.cross_domain_requests() == 3
        assert not world.orbs[1].federation.coordination_node("d1").has_object(
            f"fedsub:{context.context_id}"
        )
        for participant in participants:
            assert participant.signal_names == ["prepare", "commit"]

    def test_standalone_coordinator_has_no_domain(self):
        from repro.wscf import PROTOCOL_ATOMIC, WscfCoordinator

        coordinator = WscfCoordinator()
        context = coordinator.create_context(PROTOCOL_ATOMIC)
        assert context.domain_id is None


class OtsWorld:
    """Two transaction domains joined by one bridge, with real cells."""

    def __init__(self, store_factory=None, parallel=1):
        self.clock = SimulatedClock()
        self.bridge = InterOrbBridge()
        self.orb_a, self.orb_b = Orb(clock=self.clock), Orb(clock=self.clock)
        self.bridge.connect(self.orb_a, "A")
        self.bridge.connect(self.orb_b, "B")
        make_store = store_factory if store_factory is not None else (
            lambda name: MemoryStore()
        )
        self.wal_store_a = make_store("wal-a")
        self.wal_store_b = make_store("wal-b")
        self.factory_a = TransactionFactory(
            clock=self.clock, wal=WriteAheadLog(self.wal_store_a, "wal")
        )
        self.factory_b = TransactionFactory(
            clock=self.clock,
            wal=WriteAheadLog(self.wal_store_b, "wal"),
            config=FactoryConfig(parallel_participants=parallel),
        )
        self.current_a = TransactionCurrent(self.factory_a)
        self.current_b = TransactionCurrent(self.factory_b)
        self.registry_a = RecoverableRegistry()
        self.registry_b = RecoverableRegistry()
        self.service_a = install_federated_transaction_service(
            self.orb_a, self.current_a, registry=self.registry_a
        )
        self.service_b = install_federated_transaction_service(
            self.orb_b, self.current_b, registry=self.registry_b
        )
        self.cell_store_a = make_store("cells-a")
        self.cell_store_b = make_store("cells-b")
        self.cell_a = TransactionalCell(
            "acct-a", 100, self.factory_a,
            store=self.cell_store_a, registry=self.registry_a,
        )
        self.cell_b = TransactionalCell(
            "acct-b", 50, self.factory_b,
            store=self.cell_store_b, registry=self.registry_b,
        )
        self.node_b = self.orb_b.create_node("b1")
        self.bank_b = _Bank(self.cell_b, self.current_b)
        self.bank_ref = rebind(
            self.node_b.activate(self.bank_b, object_id="bank-b"), self.orb_a
        )


class _Bank:
    def __init__(self, cell, current):
        self.cell = cell
        self.current = current

    def deposit(self, amount):
        tx = self.current.get_transaction()
        assert tx is not None, "dispatch must carry a subordinate transaction"
        self.cell.write(tx, self.cell.read(tx) + amount)
        return self.cell.read(tx)

    def balance(self):
        return self.cell.read(None)


class TestOtsInterposition:
    def test_cross_domain_commit_is_o_domains(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        assert world.bank_ref.invoke("deposit", 10) == 60
        assert world.bank_ref.invoke("deposit", 5) == 65  # same subordinate
        assert world.service_b.adoptions == 1
        world.bridge.reset_link_stats()
        world.current_a.commit()
        # One commit_one_phase to the last agent crossed the bridge,
        # however many local writes the subordinate accumulated.
        assert world.bridge.cross_domain_requests() == 1
        assert world.cell_a.committed_value == 90
        assert world.cell_b.committed_value == 65
        sub = world.service_b.subordinate_for(tx.tid)
        assert sub.get_status() is TransactionStatus.COMMITTED

    def test_subordinate_no_vote_rolls_back_everywhere(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        world.bank_ref.invoke("deposit", 10)
        # A competing local transaction in B makes the prepare fail:
        # simply mark the subordinate rollback-only.
        world.service_b.subordinate_for(tx.tid).transaction.rollback_only()
        with pytest.raises(TransactionRolledBack):
            world.current_a.commit()
        assert world.cell_a.committed_value == 100
        assert world.cell_b.committed_value == 50

    def test_read_only_subordinate_votes_readonly(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        assert world.bank_ref.invoke("balance") == 50  # no writes in B
        subordinate = world.service_b.subordinate_for(tx.tid)
        world.bridge.reset_link_stats()
        world.current_a.commit()
        assert world.cell_a.committed_value == 90
        # Read-only: prepare crossed, no phase-two commit followed.
        assert world.bridge.cross_domain_requests() == 1
        assert subordinate.get_status() is TransactionStatus.COMMITTED

    def test_lone_subordinate_commits_one_phase(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.bank_ref.invoke("deposit", 25)  # only participant overall
        world.bridge.reset_link_stats()
        world.current_a.commit()
        assert world.bridge.cross_domain_requests() == 1  # one-phase
        assert world.cell_b.committed_value == 75

    @pytest.mark.usefixtures("shutdown_participant_pools")
    def test_subordinate_composes_with_parallel_participants(self):
        world = OtsWorld(parallel=4)
        extra_cells = [
            TransactionalCell(
                f"extra-{i}", 0, world.factory_b,
                store=world.cell_store_b, registry=world.registry_b,
            )
            for i in range(4)
        ]

        class MultiBank:
            def __init__(self, cells, current):
                self.cells = cells
                self.current = current

            def spread(self, amount):
                tx = self.current.get_transaction()
                for cell in self.cells:
                    cell.write(tx, cell.read(tx) + amount)
                return True

        ref = rebind(
            world.node_b.activate(
                MultiBank(extra_cells, world.current_b), object_id="multi"
            ),
            world.orb_a,
        )
        tx = world.current_a.begin()
        world.cell_a.write(tx, 42)
        ref.invoke("spread", 7)
        world.bridge.reset_link_stats()
        world.current_a.commit()
        assert world.bridge.cross_domain_requests() == 1  # the last agent's call
        assert all(cell.committed_value == 7 for cell in extra_cells)
        assert world.cell_a.committed_value == 42

    def test_concurrent_first_contact_adopts_once(self):
        import threading

        world = OtsWorld()
        tx = world.current_a.begin()
        world.current_a.suspend()
        results = []
        errors = []

        def first_contact():
            world.current_a.resume(tx)
            try:
                world.bank_ref.invoke("balance")
                results.append(world.service_b.subordinate_for(tx.tid).transaction)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                world.current_a.suspend()

        threads = [threading.Thread(target=first_contact) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Every racer converged on the one subordinate; each reply
        # carried its registration and the superior enlisted it once.
        assert world.service_b.adoptions == 1
        assert len({adopted.tid for adopted in results}) == 1
        assert len(tx.resources) == 1

    def test_rolled_back_subordinate_is_not_resurrected_by_recovery(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        world.bank_ref.invoke("deposit", 10)

        class NoVoter:
            """Registered after the subordinate: it prepares, then the
            round aborts — the prepared subordinate must roll back AND
            durably supersede its subtx_prepared record."""

            def prepare(self):
                from repro.ots import Vote

                return Vote.ROLLBACK

            def commit(self):
                pass

            def rollback(self):
                pass

            def forget(self):
                pass

        tx.register_resource(NoVoter())
        with pytest.raises(TransactionRolledBack):
            world.current_a.commit()
        assert world.cell_b.committed_value == 50
        # Recovery must not re-export the rolled-back subordinate as
        # held in-doubt (regression: subtx_prepared was never superseded).
        report = world.service_b.recover()
        assert report.held == []
        assert report.presumed_aborted == {}
        assert report.recommitted == {}

    def test_adopting_a_completed_subordinate_returns_none(self):
        world = OtsWorld()
        tx = world.current_a.begin()
        world.bank_ref.invoke("deposit", 10)
        context = world.service_a.context_for(tx)
        world.current_a.commit()
        # A straggler request for the finished tree must not enlist new
        # work: adoption declines, and the server interceptor fails such
        # dispatches outright (matching the intra-domain stale-resume
        # behaviour) rather than running them untransacted.
        assert world.service_b.adopt(context) is None
        assert world.service_b.adoptions == 1
        from repro.orb.interceptors import RequestInfo
        from repro.ots import InvalidTransaction
        from repro.ots.interposition import (
            FEDERATED_TX_CONTEXT_ID,
            FederatedTransactionServerInterceptor,
        )

        interceptor = FederatedTransactionServerInterceptor(world.service_b)
        info = RequestInfo(
            operation="deposit",
            target_node="b1",
            target_object="bank-b",
            interface="Bank",
            service_contexts={FEDERATED_TX_CONTEXT_ID: context},
        )
        with pytest.raises(InvalidTransaction):
            interceptor.receive_request(info)

    def test_interrupted_phase_two_is_redriven_by_recovery_replay(self):
        world = OtsWorld()

        class FlakyCommit:
            """Votes commit; the first phase-two commit dies mid-flight."""

            def __init__(self):
                self.attempts = 0
                self.committed = False

            def prepare(self):
                from repro.ots import Vote

                return Vote.COMMIT

            def commit(self):
                self.attempts += 1
                if self.attempts == 1:
                    raise ValueError("power loss mid-commit")
                self.committed = True

            def rollback(self):
                pass

            def forget(self):
                pass

        class Enlister:
            def __init__(self, current, resource):
                self.current = current
                self.resource = resource

            def enlist(self):
                self.current.get_transaction().register_resource(self.resource)
                return True

        flaky = FlakyCommit()
        enlist_ref = rebind(
            world.node_b.activate(
                Enlister(world.current_b, flaky), object_id="enl"
            ),
            world.orb_a,
        )
        tx = world.current_a.begin()
        world.cell_a.write(tx, 90)
        world.bank_ref.invoke("deposit", 10)
        enlist_ref.invoke("enlist")
        with pytest.raises(Exception):
            world.current_a.commit()
        subordinate = world.service_b.subordinate_for(tx.tid)
        assert subordinate.get_status() is TransactionStatus.COMMITTING
        # Recovery replay onto the stuck-in-COMMITTING subordinate must
        # finish the interrupted pass (regression: NotPrepared).
        assert subordinate.recover_commit(tx.tid) is True
        assert subordinate.get_status() is TransactionStatus.COMMITTED
        assert flaky.committed
        assert world.cell_b.committed_value == 60
