"""Activity context propagation over the ORB.

When application code inside an activity invokes a remote object, the
activity's identity and its PropertyGroups travel implicitly as a service
context (§3.3 — visibility "in downstream nodes", propagation by value or
by reference).  A client request interceptor builds the
:class:`ActivityContext`; the server interceptor re-associates the
activity (when the receiving deployment knows it) and exposes the
received property groups to the servant through the invocation-current
slot ``activity_context``.

Invocation fast path: the built :class:`ActivityContext` is cached per
activity, keyed by the *version vector* of its propagable property
groups (see :func:`context_version`), and the context type is interned
in the marshal registry so an unchanged context's encoded bytes are
reused by every hop instead of being re-marshalled.  Any mutation of a
by-value group (version bump), attach/detach of a group, or export of a
by-reference group changes the vector and invalidates the snapshot;
remote-proxy groups make the vector untrackable and disable caching for
that activity.  The snapshot cache is off under the caches-off
reference (``OrbConfig(marshal_cache_entries=0)``) or per call via
``build_context(activity, cache=False)``.

Each by-value group is its own interned :class:`GroupSnapshot` frame,
reused by a rebuilt context while the group's ``version_token()`` holds:
one changed group re-marshals that group, not the whole context.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Tuple

from repro.core.property_group import (
    Propagation,
    PropertyGroup,
    RemotePropertyGroup,
)
from repro.orb.core import Orb
from repro.orb.interceptors import (
    ACTIVITY_CONTEXT_ID,
    ClientRequestInterceptor,
    RequestInfo,
    ServerRequestInterceptor,
)
from repro.orb.marshal import GLOBAL_REGISTRY
from repro.orb.reference import ObjectRef
from repro.util.records import FrozenRecord
from repro.util.workers import ThreadAssociation


class GroupSnapshot(Mapping):
    """Read-only snapshot of one by-value property group, interned (so
    framed, encode-cached and decode-memoized on its own).  It reads and
    compares like the dict it wraps; item assignment raises ``TypeError``.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping) -> None:
        self._values = values if type(values) is dict else dict(values)

    def __getitem__(self, key: Any) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"GroupSnapshot({self._values!r})"


# The wire parts are the wrapped dict itself.
GLOBAL_REGISTRY.register_custom(
    GroupSnapshot, lambda snapshot: snapshot._values, GroupSnapshot
)
GLOBAL_REGISTRY.intern_encoded(GroupSnapshot)


@GLOBAL_REGISTRY.register_slotted
class ActivityContext(FrozenRecord):
    """Wire form of a propagated activity association.

    Slotted record (PR 7): one context travels with *every* invocation
    inside an activity, so its storage is ``__slots__``; ``_fields``
    keeps the original dataclass order, so the wire bytes are unchanged.

    Both maps, and each group's :class:`GroupSnapshot` inside
    ``property_values`` (cache or no cache), are read-only: a receiver's
    decode cache hands the same decoded context to every request that
    carries the same frame, so a servant editing it would otherwise edit
    the context later requests see.  A mutation raises ``TypeError``
    where it happens; :meth:`received_groups` gives writable copies.
    """

    __slots__ = (
        "activity_id",
        "activity_name",
        "property_values",
        "property_refs",
    )
    _fields: ClassVar[Tuple[str, ...]] = __slots__

    def __init__(
        self,
        activity_id: str,
        activity_name: str,
        property_values: Optional[Mapping[str, Mapping[str, Any]]] = None,
        property_refs: Optional[Mapping[str, ObjectRef]] = None,
    ) -> None:
        self._init(
            activity_id=activity_id,
            activity_name=activity_name,
            # group name -> snapshot (by-value groups)
            property_values=MappingProxyType(
                {
                    name: values if type(values) is GroupSnapshot else GroupSnapshot(values)
                    for name, values in (property_values or {}).items()
                }
            ),
            # group name -> ObjectRef of the origin group (by-reference groups)
            property_refs=MappingProxyType(
                property_refs if property_refs is not None else {}
            ),
        )

    def received_groups(self) -> Dict[str, PropertyGroup]:
        """Materialise the context's property groups on the receiving side."""
        groups: Dict[str, PropertyGroup] = {}
        for name, values in self.property_values.items():
            groups[name] = PropertyGroup(
                name, propagation=Propagation.VALUE, initial=values
            )
        for name, ref in self.property_refs.items():
            groups[name] = RemotePropertyGroup(name, ref)
        return groups


# A context instance is immutable and identity-stable per activity
# version (the snapshot cache below reuses the same object until the
# version vector changes), so its encoded bytes are safely interned.
GLOBAL_REGISTRY.intern_encoded(ActivityContext)


def context_version(activity: Any) -> Optional[Tuple[Any, ...]]:
    """Version vector of the activity's propagable state.

    One entry per propagating group: by-value groups contribute their
    mutation counter (``version_token``); exported by-reference groups
    contribute the exported ref's key (their content never crosses the
    wire).  Returns ``None`` when any group's content is untrackable
    (remote proxies, by-reference groups degrading to remote-read
    by-value) — such activities never serve cached snapshots.
    """
    parts: List[Tuple[Any, ...]] = []
    for group in activity.property_groups():
        if group.propagation is Propagation.NONE:
            continue
        if group.propagation is Propagation.REFERENCE:
            exported = getattr(group, "exported_ref", None)
            if exported is not None:
                parts.append((group.name, "ref", exported.key()))
                continue
            if isinstance(group, RemotePropertyGroup):
                return None
        token = group.version_token()
        if token is None:
            return None
        parts.append((group.name, "val", token))
    return tuple(parts)


class _ContextSnapshot:
    """One cached (version vector, built context) pair for an activity."""

    __slots__ = ("version", "context")

    def __init__(self, version: Tuple[Any, ...], context: ActivityContext) -> None:
        self.version = version
        self.context = context


def _build_context(
    activity: Any, reuse: Mapping[str, GroupSnapshot] = MappingProxyType({})
) -> ActivityContext:
    values: Dict[str, GroupSnapshot] = {}
    refs: Dict[str, ObjectRef] = {}
    for group in activity.property_groups():
        by_reference = group.propagation is Propagation.REFERENCE
        exported = getattr(group, "exported_ref", None) if by_reference else None
        if exported is not None:
            refs[group.name] = exported
        elif group.propagation is not Propagation.NONE:
            # By-value, or an un-exported by-reference group degraded to it.
            snapshot = reuse.get(group.name)
            if snapshot is None:
                snapshot = GroupSnapshot(group.snapshot())
            values[group.name] = snapshot
    return ActivityContext(
        activity_id=activity.activity_id,
        activity_name=activity.name,
        property_values=values,
        property_refs=refs,
    )


def snapshot_context(
    activity: Any, cache: bool = True
) -> Tuple[ActivityContext, bool, Optional[ActivityContext]]:
    """Build (or reuse) the activity's wire context.

    Returns ``(context, cache_hit, stale)`` where ``stale`` is the
    previously cached context this call replaced (callers use it to
    invalidate interned encode-cache bytes).  Concurrent builds for the
    same activity are benign: both produce equal frozen contexts and
    the last snapshot wins.
    """
    if not cache:
        return _build_context(activity), False, None
    version = context_version(activity)
    if version is None:
        return _build_context(activity), False, None
    snapshot: Optional[_ContextSnapshot] = getattr(
        activity, "_context_snapshot", None
    )
    if snapshot is not None and snapshot.version == version:
        return snapshot.context, True, None
    # Reuse the snapshot of every by-value group whose token did not move.
    kept = set(version).intersection(snapshot.version if snapshot else ())
    previous = snapshot.context.property_values if snapshot else {}
    reuse = {name: previous[name] for name, kind, _ in kept if kind == "val"}
    context = _build_context(activity, reuse)
    activity._context_snapshot = _ContextSnapshot(version, context)
    return context, False, snapshot.context if snapshot is not None else None


def build_context(activity: Any, cache: bool = True) -> ActivityContext:
    """Snapshot an activity into its wire context (cached per version)."""
    context, _, _ = snapshot_context(activity, cache=cache)
    return context


class ActivityClientInterceptor(ClientRequestInterceptor):
    """Attaches the current activity's context to outgoing requests.

    With ``orb`` supplied (the normal ``ActivityManager.install`` path)
    the interceptor counts snapshot hits/misses in the transport's
    marshal stats and invalidates the marshaller's interned bytes when
    a version bump replaces a cached context (and its unreused group
    snapshots).  An ORB under the caches-off reference
    (:attr:`Orb.caches_enabled`) gets a context rebuilt on every hop.
    """

    name = "activity-client"

    def __init__(self, current: Any, orb: Optional[Orb] = None) -> None:
        self.current = current
        self.orb = orb
        self.cache = orb is None or orb.caches_enabled

    def send_request(self, info: RequestInfo) -> None:
        activity = self.current.current_activity()
        if activity is not None and not activity.status.is_terminal:
            context, hit, stale = snapshot_context(activity, cache=self.cache)
            if self.orb is not None:
                if stale is not None:
                    kept = set(map(id, context.property_values.values()))
                    for value in (stale, *stale.property_values.values()):
                        if id(value) not in kept:
                            self.orb.marshaller.invalidate_cached(value)
                self.orb.transport.stats.marshal.note_context(hit)
            info.set_context(ACTIVITY_CONTEXT_ID, context)


class ActivityServerInterceptor(ServerRequestInterceptor):
    """Re-establishes the propagated activity around each dispatch."""

    name = "activity-server"

    def __init__(self, orb: Orb, manager: Any) -> None:
        self.orb = orb
        self.manager = manager
        # Resume flags are per dispatching thread: parallel broadcast
        # executors drive concurrent dispatches through one ORB, and a
        # shared LIFO would let one request pop another's flag.
        self._resumed = ThreadAssociation()

    def receive_request(self, info: RequestInfo) -> None:
        context = info.get_context(ACTIVITY_CONTEXT_ID)
        if isinstance(context, ActivityContext):
            # Expose the raw context (and its property groups) to servants.
            self.orb.current.set_slot("activity_context", context)
            if self.manager.knows(context.activity_id):
                self.manager.current.resume(self.manager.get(context.activity_id))
                self._resumed.stack.append(True)
                return
        self._resumed.stack.append(False)

    def _detach(self) -> None:
        flags = self._resumed.stack
        if flags and flags.pop():
            self.manager.current.suspend()

    def send_reply(self, info: RequestInfo) -> None:
        self._detach()

    def send_exception(self, info: RequestInfo) -> None:
        self._detach()


def received_context(orb: Orb) -> Optional[ActivityContext]:
    """The activity context of the request being dispatched, if any."""
    return orb.current.get_slot("activity_context")
