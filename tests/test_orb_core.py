"""Unit tests for the ORB: nodes, dispatch, exceptions, crash/restart."""

import threading

import pytest

from repro.exceptions import (
    CommunicationError,
    ConfigurationError,
    InvalidStateError,
    ObjectNotExist,
)
from repro.orb import Orb
from repro.orb.core import RemoteApplicationError, Servant


class Counter(Servant):
    def __init__(self):
        self.value = 0

    def increment(self, by=1):
        self.value += by
        return self.value

    def get(self):
        return self.value

    def boom(self):
        raise ValueError("kaboom")

    def _secret(self):
        return "hidden"


@pytest.fixture
def orb():
    return Orb()


@pytest.fixture
def node(orb):
    return orb.create_node("n1")


class TestNodes:
    def test_create_and_lookup(self, orb):
        node = orb.create_node("x")
        assert orb.node("x") is node
        assert node in orb.nodes()

    def test_duplicate_node_rejected(self, orb):
        orb.create_node("x")
        with pytest.raises(ConfigurationError):
            orb.create_node("x")

    def test_unknown_node_rejected(self, orb):
        with pytest.raises(ConfigurationError):
            orb.node("nope")

    def test_activate_returns_bound_ref(self, orb, node):
        ref = node.activate(Counter())
        assert ref.is_bound
        assert ref.node_id == "n1"
        assert ref.interface == "Counter"

    def test_explicit_object_id_and_interface(self, node):
        ref = node.activate(Counter(), object_id="c1", interface="ICounter")
        assert ref.object_id == "c1"
        assert ref.interface == "ICounter"

    def test_duplicate_object_id_rejected(self, node):
        node.activate(Counter(), object_id="c1")
        with pytest.raises(ConfigurationError):
            node.activate(Counter(), object_id="c1")

    def test_deactivate(self, node):
        ref = node.activate(Counter(), object_id="c1")
        node.deactivate("c1")
        with pytest.raises(ObjectNotExist):
            ref.invoke("get")

    def test_deactivate_unknown_rejected(self, node):
        with pytest.raises(ObjectNotExist):
            node.deactivate("ghost")

    def test_ref_for_existing_object(self, node):
        node.activate(Counter(), object_id="c1")
        assert node.ref_for("c1").object_id == "c1"

    def test_servant_knows_its_node(self, node):
        counter = Counter()
        node.activate(counter)
        assert counter._node is node


class TestInvocation:
    def test_basic_invoke(self, node):
        ref = node.activate(Counter())
        assert ref.invoke("increment") == 1
        assert ref.invoke("increment", 5) == 6
        assert ref.invoke("get") == 6

    def test_kwargs(self, node):
        ref = node.activate(Counter())
        assert ref.invoke("increment", by=3) == 3

    def test_proxy_sugar(self, node):
        proxy = node.activate(Counter()).proxy()
        assert proxy.increment() == 1
        assert proxy.get() == 1

    def test_cross_node_invocation(self, orb):
        n1, n2 = orb.create_node("a"), orb.create_node("b")
        ref = n2.activate(Counter())
        # Invoke from within a dispatch on n1 to prove routing works.
        class Caller(Servant):
            def relay(self):
                return ref.invoke("increment")

        caller_ref = n1.activate(Caller())
        assert caller_ref.invoke("relay") == 1

    def test_underscore_operations_rejected(self, node):
        ref = node.activate(Counter())
        with pytest.raises(ConfigurationError):
            ref.invoke("_secret")

    def test_unknown_operation(self, node):
        ref = node.activate(Counter())
        with pytest.raises(ObjectNotExist):
            ref.invoke("no_such_op")

    def test_arguments_pass_by_value(self, node):
        class Keeper(Servant):
            def __init__(self):
                self.kept = None

            def keep(self, data):
                self.kept = data
                return data

        keeper = Keeper()
        ref = node.activate(keeper)
        payload = {"list": [1]}
        ref.invoke("keep", payload)
        keeper.kept["list"].append(2)
        assert payload == {"list": [1]}, "server mutation must not leak back"

    def test_registered_exception_revives_typed(self, node):
        ref = node.activate(Counter())
        orb = ref.orb
        orb.register_exception(ValueError)
        with pytest.raises(ValueError, match="kaboom"):
            ref.invoke("boom")

    def test_unregistered_exception_becomes_remote_error(self, node):
        ref = node.activate(Counter())
        with pytest.raises(RemoteApplicationError, match="ValueError"):
            ref.invoke("boom")

    def test_unbound_ref_rejected(self):
        from repro.orb.reference import ObjectRef

        ref = ObjectRef("n", "o")
        with pytest.raises(InvalidStateError):
            ref.invoke("get")

    def test_servant_runs_on_the_calling_thread(self, node):
        class Where(Servant):
            def thread(self):
                return threading.get_ident()

        ref = node.activate(Where())
        assert ref.invoke("thread") == threading.get_ident()


class TestCrashRestart:
    def test_crashed_node_unreachable(self, node):
        ref = node.activate(Counter())
        node.crash()
        with pytest.raises(CommunicationError):
            ref.invoke("get")

    def test_volatile_servants_lost_on_crash(self, node):
        ref = node.activate(Counter())
        node.crash()
        node.restart()
        with pytest.raises(ObjectNotExist):
            ref.invoke("get")

    def test_durable_servants_survive_crash(self, node):
        ref = node.activate(Counter(), durable=True)
        ref.invoke("increment")
        node.crash()
        node.restart()
        assert ref.invoke("get") == 1

    def test_recovery_hooks_run_on_restart(self, node):
        recovered = []
        node.add_recovery_hook(lambda n: recovered.append(n.node_id))
        node.crash()
        node.restart()
        assert recovered == ["n1"]

    def test_recovery_hook_can_reactivate(self, node):
        node.add_recovery_hook(
            lambda n: n.activate(Counter(), object_id="revived")
        )
        ref = node.activate(Counter(), object_id="revived")
        node.crash()
        node.restart()
        assert node.ref_for("revived").invoke("get") == 0

    def test_restart_requires_crash(self, node):
        with pytest.raises(InvalidStateError):
            node.restart()


class TestInitialReferences:
    def test_register_and_resolve(self, orb, node):
        ref = node.activate(Counter())
        orb.register_initial_reference("CounterService", ref)
        assert orb.resolve_initial_references("CounterService") == ref

    def test_unknown_initial_reference(self, orb):
        with pytest.raises(ConfigurationError):
            orb.resolve_initial_references("Nope")
