"""The simulated ORB: nodes, servants, and the invocation path.

An :class:`Orb` owns a set of :class:`Node` instances (simulated hosts), a
:class:`~repro.orb.transport.Transport`, a marshaller and an interceptor
chain.  Every invocation on an :class:`ObjectRef` — even one whose caller
and servant share a node — goes through the full path:

    client interceptors → marshal → transport (faults/latency) →
    unmarshal → server interceptors → servant → (reply path mirrored)

so that context propagation and by-value semantics are always exercised,
exactly as they would be over IIOP.  A target node of this ORB is
*collocated* (CORBA's collocation optimisation): "marshal → unmarshal" is
then one :meth:`~repro.orb.marshal.Marshaller.copy` walk per delivery,
which yields what a decode of the encoding would, and the transport
carries values.  Sockets and inter-ORB bridges always carry bytes.

Nodes can *crash*: a crashed node refuses dispatches with
``CommunicationError`` and loses every volatile servant.  ``restart``
brings the node back and runs registered recovery hooks, which is how the
OTS recovery manager and the activity-structure recovery (§3.4 of the
paper) re-install their durable objects.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.exceptions import (
    AdmissionRejected,
    CommunicationError,
    ConfigurationError,
    InvalidStateError,
    ObjectNotExist,
    OverloadError,
    ReproError,
    TimeoutError_,
)
from repro.orb.current import InvocationCurrent
from repro.orb.interceptors import InterceptorChain, RequestInfo
from repro.orb.marshal import (
    DecodeCache,
    EncodeCache,
    MarshalError,
    Marshaller,
    PayloadSlot,
    PayloadTemplate,
    ValueTypeRegistry,
)
from repro.config import OrbConfig
from repro.orb.reference import ObjectRef
from repro.orb.transport import FaultPlan, SimulatedTransport, Transport
from repro.util.clock import Clock, SimulatedClock
from repro.util.events import EventLog
from repro.util.idgen import IdGenerator
from repro.util.rng import SeededRng


class RemoteApplicationError(ReproError):
    """Raised client-side when a servant raised an exception this ORB
    cannot rebuild: one the server never registered (``type_name`` is its
    class name) or one only the server registered (``type_name`` is its
    repository id and ``remote_args`` its constructor arguments)."""

    def __init__(self, type_name: str, message: str, remote_args: Sequence[Any] = ()) -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.message = message
        self.remote_args = tuple(remote_args)


class Servant:
    """Optional base class for objects activated on a node.

    Any object can be a servant; only public methods (no leading
    underscore) are dispatchable.  Subclassing :class:`Servant` gives the
    object access to the node it is activated on via ``self._node``.
    """

    _node: Optional["Node"] = None

    def _activated(self, node: "Node") -> None:
        self._node = node


class Node:
    """A simulated host: an object adapter plus crash/restart behaviour."""

    def __init__(self, orb: "Orb", node_id: str) -> None:
        self.orb = orb
        self.node_id = node_id
        self.crashed = False
        self._servants: Dict[str, Any] = {}
        self._volatile: Dict[str, bool] = {}
        self._interfaces: Dict[str, str] = {}
        self._recovery_hooks: List[Callable[["Node"], None]] = []

    # -- object adapter -----------------------------------------------------

    def activate(
        self,
        servant: Any,
        object_id: Optional[str] = None,
        interface: Optional[str] = None,
        durable: bool = False,
    ) -> ObjectRef:
        """Register ``servant`` and return an invocable reference.

        Volatile servants (the default) are lost on crash; durable servants
        survive (modelling a servant whose state lives in stable storage
        and whose activation record is persistent).
        """
        if object_id is None:
            object_id = self.orb.ids.next(f"{self.node_id}-obj")
        if object_id in self._servants:
            raise ConfigurationError(
                f"object id {object_id!r} already active on node {self.node_id}"
            )
        if interface is None:
            interface = type(servant).__name__
        self._servants[object_id] = servant
        self._volatile[object_id] = not durable
        self._interfaces[object_id] = interface
        if isinstance(servant, Servant):
            servant._activated(self)
        return ObjectRef(self.node_id, object_id, interface).bind(self.orb)

    def deactivate(self, object_id: str) -> None:
        if object_id not in self._servants:
            raise ObjectNotExist(f"no object {object_id!r} on node {self.node_id}")
        del self._servants[object_id]
        del self._volatile[object_id]
        del self._interfaces[object_id]

    def servant(self, object_id: str) -> Any:
        try:
            return self._servants[object_id]
        except KeyError:
            raise ObjectNotExist(
                f"no object {object_id!r} on node {self.node_id}"
            ) from None

    def has_object(self, object_id: str) -> bool:
        return object_id in self._servants

    def object_ids(self) -> Tuple[str, ...]:
        return tuple(self._servants)

    def ref_for(self, object_id: str) -> ObjectRef:
        if object_id not in self._servants:
            raise ObjectNotExist(f"no object {object_id!r} on node {self.node_id}")
        return ObjectRef(
            self.node_id, object_id, self._interfaces[object_id]
        ).bind(self.orb)

    # -- failure behaviour ---------------------------------------------------

    def add_recovery_hook(self, hook: Callable[["Node"], None]) -> None:
        """Register a callback run on :meth:`restart` (in order added)."""
        self._recovery_hooks.append(hook)

    def crash(self) -> None:
        """Fail-stop: lose volatile servants and refuse all requests."""
        self.crashed = True
        for object_id in [oid for oid, vol in self._volatile.items() if vol]:
            del self._servants[object_id]
            del self._volatile[object_id]
            del self._interfaces[object_id]

    def restart(self) -> None:
        """Come back up and run recovery hooks."""
        if not self.crashed:
            raise InvalidStateError(f"node {self.node_id} is not crashed")
        self.crashed = False
        for hook in self._recovery_hooks:
            hook(self)

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"Node({self.node_id}, {state}, {len(self._servants)} objects)"


class PreparedInvocation:
    """One operation's request payload, marshalled once for many targets.

    Built by :meth:`Orb.prepare_invocation`; the target object id and
    the service contexts are always per-send holes, and the caller may
    plant further :class:`~repro.orb.marshal.PayloadSlot` markers inside
    ``args``/``kwargs`` (e.g. a signal's ``delivery_id``) whose values
    are supplied per invocation.  Filling produces bytes byte-identical
    to the plain ``invoke`` encoding of the same request.
    """

    SLOT_OBJECT_ID = "__object_id__"
    SLOT_CONTEXTS = "__contexts__"

    def __init__(
        self, orb: "Orb", operation: str, args: tuple, kwargs: dict
    ) -> None:
        self.orb = orb
        self.operation = operation
        self.template: PayloadTemplate = orb.marshaller.prepare(
            [
                PayloadSlot(self.SLOT_OBJECT_ID),
                operation,
                list(args),
                kwargs,
                PayloadSlot(self.SLOT_CONTEXTS),
            ]
        )

    def fill(self, object_id: str, contexts: dict, slots: Optional[dict]) -> bytes:
        values = dict(slots) if slots else {}
        values[self.SLOT_OBJECT_ID] = object_id
        values[self.SLOT_CONTEXTS] = contexts
        return self.template.fill(**values)


class Orb:
    """The distribution substrate shared by a simulated deployment.

    Tuning values live in :class:`~repro.config.OrbConfig` (see its
    docstring for defaults).  ``transport=`` injects a
    custom :class:`~repro.orb.transport.Transport` (e.g. a
    ``SocketTransport`` serving this ORB's nodes to other processes);
    by default the ORB builds an in-process
    :class:`~repro.orb.transport.SimulatedTransport` governed by
    ``fault_plan``.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        rng: Optional[SeededRng] = None,
        registry: Optional[ValueTypeRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
        event_log: Optional[EventLog] = None,
        config: Optional[OrbConfig] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config if config is not None else OrbConfig()
        # Federation: the coordination domain this ORB belongs to and the
        # bridge that routes to foreign domains (both set by
        # InterOrbBridge.connect or a site runtime; a standalone ORB has
        # neither).
        self.domain_id = self.config.domain_id
        self.federation: Optional[Any] = None
        self.clock = clock if clock is not None else SimulatedClock()
        self.rng = rng if rng is not None else SeededRng(0)
        self.ids = IdGenerator()
        if transport is not None:
            if fault_plan is not None:
                raise ConfigurationError(
                    "fault_plan= only applies to the default SimulatedTransport; "
                    "configure an injected transport directly"
                )
            self.transport = transport
        else:
            self.transport = SimulatedTransport(
                self.clock, self.rng.fork("transport"), fault_plan
            )
        caches = self.caches_enabled
        self.marshaller = Marshaller(
            registry,
            stats=self.transport.stats.marshal,
            encode_cache=(
                EncodeCache(self.config.marshal_cache_entries) if caches else None
            ),
            decode_cache=DecodeCache() if caches else None,
        )
        self.interceptors = InterceptorChain()
        self.current = InvocationCurrent()
        self.event_log = event_log if event_log is not None else EventLog(self.clock)
        self._nodes: Dict[str, Node] = {}
        self._exception_types: Dict[str, Type[BaseException]] = {}
        self._initial_references: Dict[str, ObjectRef] = {}
        self.register_exception(CommunicationError)
        self.register_exception(ObjectNotExist)
        self.register_exception(InvalidStateError)
        self.register_exception(ConfigurationError)
        self.register_exception(TimeoutError_)
        self.register_exception(OverloadError)
        self.register_exception(AdmissionRejected)
        self.register_exception(MarshalError)

    @property
    def caches_enabled(self) -> bool:
        """False under the caches-off reference (``marshal_cache_entries=0``).

        Besides the marshaller's encode/decode caches, the activity
        context snapshot cache and the coordinators' pre-encoded request
        templates follow this switch; the wire bytes are the same either way.
        """
        return self.config.marshal_cache_entries > 0

    # -- nodes ----------------------------------------------------------------

    def create_node(self, node_id: str) -> Node:
        if node_id in self._nodes:
            raise ConfigurationError(f"node {node_id!r} already exists")
        if self.federation is not None:
            # Cross-domain routing keys on the node id alone (an
            # ObjectRef carries no domain id), so ids must be unique
            # across the whole federation, not just this ORB.
            owner = self.federation.domain_of_node(node_id)
            if owner is not None and owner != self.domain_id:
                raise ConfigurationError(
                    f"node {node_id!r} already exists in federated domain {owner!r}"
                )
        node = Node(self, node_id)
        self._nodes[node_id] = node
        return node

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes.values())

    # -- exception registry -----------------------------------------------------

    def register_exception(self, exc_type: Type[BaseException]) -> None:
        """Allow ``exc_type`` to cross the wire as a typed exception."""
        name = ValueTypeRegistry.repository_id(exc_type)
        self._exception_types[name] = exc_type

    # -- initial references -------------------------------------------------------

    def register_initial_reference(self, name: str, ref: ObjectRef) -> None:
        self._initial_references[name] = ref

    def resolve_initial_references(self, name: str) -> ObjectRef:
        try:
            return self._initial_references[name]
        except KeyError:
            raise ConfigurationError(f"no initial reference {name!r}") from None

    # -- invocation --------------------------------------------------------------

    def prepare_invocation(
        self, operation: str, args: tuple = (), kwargs: Optional[dict] = None
    ) -> PreparedInvocation:
        """Marshal-once: pre-encode one operation's request for N targets.

        The returned :class:`PreparedInvocation` is handed back to
        :meth:`invoke` via ``prepared=``; only the target object id, the
        service contexts and any caller-declared slots are encoded per
        send.  ``args`` may contain :class:`PayloadSlot` markers.
        """
        if operation.startswith("_"):
            raise ConfigurationError(f"operation {operation!r} is not dispatchable")
        return PreparedInvocation(self, operation, args, kwargs or {})

    def invoke(
        self,
        ref: ObjectRef,
        operation: str,
        args: tuple,
        kwargs: dict,
        prepared: Optional[PreparedInvocation] = None,
        slots: Optional[dict] = None,
    ) -> Any:
        """The full client-side invocation path for one request.

        A target node of this ORB is *collocated*: the request travels
        the transport as values, and each delivery hands the servant its
        own :meth:`~repro.orb.marshal.Marshaller.copy`.  Other targets get
        bytes, patched into ``prepared`` (a template from
        :meth:`prepare_invocation` for the same operation) when given,
        with ``slots`` as the per-send hole values.  ``args``/``kwargs``
        hold the real values either way: a collocated call ignores
        templates.
        """
        if operation.startswith("_"):
            raise ConfigurationError(f"operation {operation!r} is not dispatchable")
        source_node = self.current.get_slot("node", "client")
        info = RequestInfo(
            operation=operation,
            target_node=ref.node_id,
            target_object=ref.object_id,
            interface=ref.interface,
        )
        self.interceptors.run_send_request(info)
        node_id = ref.node_id
        collocated = node_id in self._nodes
        if collocated:
            request: Any = [ref.object_id, operation, list(args), kwargs, info.service_contexts]
            # The first copy is taken before anything is sent, so an
            # unmarshallable argument fails here as ``encode`` would.
            fresh = [self.marshaller.copy(request, self)]
        elif prepared is not None:
            request = prepared.fill(ref.object_id, info.service_contexts, slots)
        else:
            request = self.marshaller.encode(
                [ref.object_id, operation, list(args), kwargs, info.service_contexts]
            )

        def dispatch(payload: Any) -> Any:
            if collocated:  # every delivery, duplicates too, gets its own copy
                payload = fresh.pop() if fresh else self.marshaller.copy(payload, self)
            return self._dispatch(node_id, payload)

        try:
            if self.federation is not None and not collocated:
                # Foreign domain: the bridge carries the bytes across the
                # inter-domain link (and both sides' transports).
                reply = self.federation.route(self, source_node, ref, request)
            else:
                reply = self.transport.deliver(source_node, node_id, request, dispatch)
        except CommunicationError as exc:
            info.exception = exc
            self.interceptors.run_receive_exception(info)
            raise
        if not collocated:
            reply = self.marshaller.decode(reply, self)
        status, payload, info.reply_contexts = reply
        if status == "exc":
            exc = self._revive_exception(payload)
            info.exception = exc
            self.interceptors.run_receive_exception(info)
            raise exc
        self.interceptors.run_receive_reply(info)
        return payload

    def dispatch_request(self, node_id: str, request_bytes: bytes) -> bytes:
        """Server-side entry for requests from outside this process (the
        site daemon hands arriving socket frames here)."""
        return self._dispatch(node_id, request_bytes)

    def _dispatch(self, node_id: str, request: Any) -> Any:
        """Server-side: intercept, run the servant, build the reply.

        ``request`` is either bytes off a wire, which are decoded and
        answered with encoded bytes, or a collocated request already
        copied for this delivery, answered with a copy of the reply.
        """
        node = self.node(node_id)
        if node.crashed:
            raise CommunicationError(f"node {node_id} is down")
        wire = isinstance(request, bytes)
        object_id, operation, args, kwargs, contexts = (
            self.marshaller.decode(request, self) if wire else request
        )
        servant = node.servant(object_id)
        method = getattr(servant, operation, None)
        if method is None or operation.startswith("_") or not callable(method):
            raise ObjectNotExist(
                f"object {object_id!r} has no operation {operation!r}"
            )
        info = RequestInfo(
            operation=operation,
            target_node=node_id,
            target_object=object_id,
            interface=ref_interface(node, object_id),
            service_contexts=contexts,
        )
        with self.current.frame({"node": node_id}):
            self.interceptors.run_receive_request(info)
            try:
                result = method(*args, **kwargs)
            except BaseException as exc:  # marshalled back to the caller
                info.exception = exc
                self.interceptors.run_send_exception(info)
                reply = ["exc", self._describe_exception(exc), info.reply_contexts]
            else:
                self.interceptors.run_send_reply(info)
                reply = ["ok", result, info.reply_contexts]
        return self.marshaller.encode(reply) if wire else self.marshaller.copy(reply, self)

    # -- exception shipping ----------------------------------------------------

    def _describe_exception(self, exc: BaseException) -> list:
        name = ValueTypeRegistry.repository_id(type(exc))
        if name in self._exception_types:
            try:
                return [name, self.marshaller.copy(list(exc.args), self)]
            except MarshalError:
                pass
        return ["", [type(exc).__name__, str(exc)]]

    def _revive_exception(self, payload: list) -> BaseException:
        name, args = payload
        if name and name in self._exception_types:
            exc_type = self._exception_types[name]
            try:
                return exc_type(*args)
            except TypeError:
                return exc_type(*[str(a) for a in args])
        if name:
            # Typed by the server, unknown here: keep what it sent.
            return RemoteApplicationError(name, ", ".join(map(str, args)), args)
        type_name, message = args
        return RemoteApplicationError(type_name, message)


def ref_interface(node: Node, object_id: str) -> str:
    return node._interfaces.get(object_id, "")
