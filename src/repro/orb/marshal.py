"""CDR-style marshalling.

CORBA's GIOP encodes request arguments in the Common Data Representation.
We reproduce the *semantics* that matter to the Activity Service:

- arguments and results cross node boundaries **by value** — mutating a
  received structure never mutates the sender's copy;
- object references cross **by reference** — an :class:`ObjectRef` is
  re-bound to the receiving node's ORB on arrival;
- application types (Signals, Outcomes, contexts…) must be explicitly
  registered, mirroring IDL-declared value types.

One encoding serves the wire and every object store (README "Hot-path
engine"): precompiled ``struct.Struct`` packers, an exact-type encode
dispatch table, a tag-indexed decode table over a zero-copy
``memoryview``, and *length-framed* interned value types so a receiver
memoizes the decode of an unchanged context frame (:class:`DecodeCache`)
instead of re-walking it per request.  Tags live in 0x80–0x8F; bytes
written by a pre-struct build (the retired tagged format, wire protocol
1) start below that range and are refused with a :class:`MarshalError`
naming the cause.

Invocation fast path (README "Invocation fast path"):

- value types marked with :meth:`ValueTypeRegistry.intern_encoded` hit a
  bounded identity-keyed :class:`EncodeCache` — the same object instance
  encodes once and its bytes are spliced into every later message that
  carries it (activity/transaction contexts are identity-stable per
  version, so an unchanged context stops being re-marshalled per hop;
  its property groups are interned frames cached with it, so a context
  rebuilt around one changed group splices the others);
- :class:`PayloadTemplate` (built via :meth:`Marshaller.prepare`) is the
  *marshal-once* seam: a value tree containing :class:`PayloadSlot`
  holes is encoded once, and ``fill`` patches only the per-send fields
  (request/delivery id, target object) between the pre-encoded chunks.
  A filled template is byte-identical to a full ``encode`` of the tree
  with the holes substituted, which is what lets broadcasts assert
  unchanged wire traces with the fast path on.

:meth:`Marshaller.copy` is the collocated call's stand-in for the pair:
the value a decode of the encoding would give, without the bytes.

Both paths account their work in :class:`MarshalStats` (hits, misses,
bytes encoded vs bytes reused), which the ORB threads through its
transport stats for the benchmarks.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from enum import Enum
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.exceptions import ReproError
from repro.orb.reference import ObjectRef


class MarshalError(ReproError):
    """A value could not be encoded or decoded."""


class ValueTypeRegistry:
    """Registry of application value types allowed on the wire.

    A value type is registered under its *repository id* (we use the
    qualified class name).  Dataclasses get automatic field-based
    encoders; slotted records (:class:`~repro.util.records.SlottedRecord`
    subclasses) get the same treatment from their ``_fields`` tuple;
    other classes must provide ``to_parts``/``from_parts``.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, Tuple[Type, Callable, Callable]] = {}
        self._by_type: Dict[Type, str] = {}
        self._enums: Dict[str, Type[Enum]] = {}
        self._interned: Set[Type] = set()

    @staticmethod
    def repository_id(cls: Type) -> str:
        return f"{cls.__module__}.{cls.__qualname__}"

    def register_dataclass(self, cls: Type) -> Type:
        """Register a dataclass; usable as a decorator."""
        if not is_dataclass(cls):
            raise MarshalError(f"{cls!r} is not a dataclass")
        name = self.repository_id(cls)

        def to_parts(value: Any) -> Dict[str, Any]:
            return {f.name: getattr(value, f.name) for f in fields(cls)}

        def from_parts(parts: Dict[str, Any]) -> Any:
            return cls(**parts)

        self._by_name[name] = (cls, to_parts, from_parts)
        self._by_type[cls] = name
        return cls

    def register_slotted(self, cls: Type) -> Type:
        """Register a slotted record type; usable as a decorator.

        The wire parts come from the class's ``_fields`` tuple in
        declaration order — the same dict a ``register_dataclass`` of
        the equivalent dataclass would produce, so converting a record
        type from dataclass to ``__slots__`` never changes its bytes.
        """
        names = tuple(getattr(cls, "_fields", ()))
        if not names:
            raise MarshalError(f"{cls!r} declares no _fields to marshal")
        name = self.repository_id(cls)

        def to_parts(value: Any) -> Dict[str, Any]:
            return {field_name: getattr(value, field_name) for field_name in names}

        def from_parts(parts: Dict[str, Any]) -> Any:
            return cls(**parts)

        self._by_name[name] = (cls, to_parts, from_parts)
        self._by_type[cls] = name
        return cls

    def register_custom(
        self,
        cls: Type,
        to_parts: Callable[[Any], Dict[str, Any]],
        from_parts: Callable[[Dict[str, Any]], Any],
    ) -> None:
        name = self.repository_id(cls)
        self._by_name[name] = (cls, to_parts, from_parts)
        self._by_type[cls] = name

    def register_enum(self, cls: Type[Enum]) -> Type[Enum]:
        self._enums[self.repository_id(cls)] = cls
        return cls

    def lookup_type(self, cls: Type) -> Optional[str]:
        return self._by_type.get(cls)

    def lookup_name(self, name: str) -> Tuple[Type, Callable, Callable]:
        try:
            return self._by_name[name]
        except KeyError:
            raise MarshalError(f"unregistered value type: {name}") from None

    def lookup_enum(self, name: str) -> Type[Enum]:
        try:
            return self._enums[name]
        except KeyError:
            raise MarshalError(f"unregistered enum type: {name}") from None

    def is_enum_registered(self, cls: Type) -> bool:
        return self.repository_id(cls) in self._enums

    def intern_encoded(self, cls: Type) -> Type:
        """Mark a registered value type as encode-cacheable.

        Instances of an interned type are encoded at most once per
        identity: marshallers with an :class:`EncodeCache` reuse the
        bytes for every later occurrence of the *same object*.  Only
        types whose instances are immutable and identity-stable per
        logical version (contexts, snapshots) should be interned.
        Interned types are also length-framed on the wire so receivers
        can memoize their decode — and share the decoded instance, which
        is why they must be immutable on the receiving side too.
        """
        if self.lookup_type(cls) is None:
            raise MarshalError(f"{cls!r} must be registered before interning")
        self._interned.add(cls)
        return cls

    def is_interned(self, cls: Type) -> bool:
        return cls in self._interned


GLOBAL_REGISTRY = ValueTypeRegistry()

# What :meth:`_FrameLRU.get` returns for a key it does not hold.
_MISS = object()


class MarshalStats:
    """Thread-safe fast-path counters for one marshaller.

    ``bytes_encoded`` counts bytes produced by real tree walks;
    ``bytes_saved`` counts bytes spliced from the encode cache or a
    payload template's static chunks instead of being re-encoded.
    ``context_hits``/``context_misses`` are fed by the activity client
    interceptor's snapshot cache (same fast path, one stats block).
    ``decode_hits``/``decode_misses`` are the framed-decode memoization
    of :class:`DecodeCache`.
    """

    __slots__ = (
        "_lock",
        "cache_hits",
        "cache_misses",
        "bytes_encoded",
        "bytes_saved",
        "templates_prepared",
        "template_fills",
        "context_hits",
        "context_misses",
        "decode_hits",
        "decode_misses",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.cache_hits = 0
            self.cache_misses = 0
            self.bytes_encoded = 0
            self.bytes_saved = 0
            self.templates_prepared = 0
            self.template_fills = 0
            self.context_hits = 0
            self.context_misses = 0
            self.decode_hits = 0
            self.decode_misses = 0

    def note_encode(self, fresh: int, reused: int, hits: int, misses: int) -> None:
        with self._lock:
            self.bytes_encoded += fresh
            self.bytes_saved += reused
            self.cache_hits += hits
            self.cache_misses += misses

    def note_prepare(self) -> None:
        with self._lock:
            self.templates_prepared += 1

    def note_fill(self, fresh: int, reused: int, hits: int, misses: int) -> None:
        with self._lock:
            self.template_fills += 1
            self.bytes_encoded += fresh
            self.bytes_saved += reused
            self.cache_hits += hits
            self.cache_misses += misses

    def note_context(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.context_hits += 1
            else:
                self.context_misses += 1

    def note_decode(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.decode_hits += 1
            else:
                self.decode_misses += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "bytes_encoded": self.bytes_encoded,
                "bytes_saved": self.bytes_saved,
                "templates_prepared": self.templates_prepared,
                "template_fills": self.template_fills,
                "context_hits": self.context_hits,
                "context_misses": self.context_misses,
                "decode_hits": self.decode_hits,
                "decode_misses": self.decode_misses,
            }


class _FrameLRU:
    """LRU of interned frames whose ``max_entries`` bound counts only the
    outer ones (contexts).  Frames nested in an outer frame (its property
    groups) are put with it as its ``members``, into a second LRU: evicting
    an outer frame drops each of its members that no later put touched,
    and the member count of the cached outer frames bounds the rest.  A
    context costs one entry however many groups it carries.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        # key -> (entry, put number, member keys) / (entry, last put number)
        self._outer: "OrderedDict[Any, Tuple[Any, int, List[Any]]]" = OrderedDict()
        self._nested: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._members = 0
        self._puts = 0
        self._lock = threading.Lock()

    def get(self, key: Any) -> Any:
        """The entry under ``key``, or ``_MISS``."""
        with self._lock:
            for tier in (self._outer, self._nested):
                if key in tier:
                    tier.move_to_end(key)
                    return tier[key][0]
            return _MISS

    def put(self, key: Any, entry: Any, members: Sequence[Tuple[Any, Any]] = ()) -> None:
        """Cache an outer frame's ``entry`` and its ``(key, entry)`` members."""
        with self._lock:
            outer, nested = self._outer, self._nested
            self._puts += 1
            for member_key, member in members:
                nested[member_key] = (member, self._puts)
                nested.move_to_end(member_key)
            keys = [member_key for member_key, _ in members]
            self._members += len(keys) - len(outer.pop(key, (None, 0, []))[2])
            outer[key] = (entry, self._puts, keys)
            while len(outer) > self.max_entries:
                _, (_, put, evicted) = outer.popitem(last=False)
                self._members -= len(evicted)
                for member_key in evicted:
                    if nested.get(member_key, (None, put + 1))[1] <= put:
                        del nested[member_key]
            while len(nested) > self._members:
                nested.popitem(last=False)

    def invalidate(self, key: Any) -> bool:
        with self._lock:
            found = self._outer.pop(key, None)
            self._members -= len(found[2]) if found else 0
            return self._nested.pop(key, found) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._outer) + len(self._nested)


class EncodeCache(_FrameLRU):
    """Bounded identity-keyed cache of encoded interned values.

    Keys are object identities (the entry pins the value, so the id
    cannot be recycled while the entry lives); eviction is LRU under a
    hard ``max_entries`` bound on contexts (:class:`_FrameLRU`), and
    :meth:`invalidate` drops a stale value explicitly (the context
    snapshot machinery calls it when a version bump replaces a cached
    context or group snapshot).
    """

    def __init__(self, max_entries: int = 256) -> None:
        super().__init__(max_entries)

    def get(self, value: Any) -> Optional[bytes]:
        entry = _FrameLRU.get(self, id(value))
        return None if entry is _MISS else entry[1]

    def put(self, value: Any, encoded: bytes, members: Sequence[Tuple[Any, bytes]] = ()) -> None:
        """Cache ``value``'s bytes and each ``(member, bytes)`` nested in it."""
        _FrameLRU.put(self, id(value), (value, encoded), [(id(m), (m, b)) for m, b in members])

    def invalidate(self, value: Any) -> bool:
        return super().invalidate(id(value))


# Bound on a DecodeCache, in contexts.  Its working set is the *live*
# contexts a receiver sees at once (one per in-flight activity version),
# not the encode cache's size: each entry pins a frame plus its decoded
# tree, so a churning sender would otherwise fill the cache with dead
# versions.  Group frames ride with their context (:class:`_FrameLRU`).
DECODE_CACHE_ENTRIES = 16


class DecodeCache(_FrameLRU):
    """Bounded cache of decoded interned value frames.

    Keyed by ``(id(orb), frame bytes)`` — the frame's *exact bytes* plus
    the decoding ORB, since decoded ObjectRefs are bound to it: an
    unchanged context that arrives spliced into a thousand requests is
    decoded once and the shared instance returned for the rest.  Safe by
    the same contract that makes encode interning safe — interned types
    are immutable value types (:class:`~repro.core.context.ActivityContext`
    makes its maps read-only), so sharing one decoded instance across
    dispatches cannot leak state between requests.
    """

    def __init__(self, max_entries: int = DECODE_CACHE_ENTRIES) -> None:
        super().__init__(max_entries)


class PayloadSlot:
    """Named hole in a marshal-once template (see :meth:`Marshaller.prepare`)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"PayloadSlot({self.name!r})"


class _EncodeRun:
    """Per-top-level-encode accounting (not shared across threads)."""

    __slots__ = ("reused", "hits", "misses", "members")

    def __init__(self) -> None:
        self.reused = 0
        self.hits = 0
        self.misses = 0
        # While an interned frame encodes: (value, bytes) nested in it.
        self.members: Optional[List[Tuple[Any, bytes]]] = None


class PayloadTemplate:
    """A value tree encoded once, with per-send holes patched on ``fill``.

    ``fill(**values)`` returns bytes byte-identical to ``encode()`` of
    the template tree with every :class:`PayloadSlot` replaced by its
    value — the encoding is purely compositional, so splicing encoded
    holes between the static chunks reproduces the full walk exactly.
    Templates are immutable after construction; ``fill`` is safe to
    call from broadcast worker threads concurrently.
    """

    def __init__(self, marshaller: "Marshaller", chunks: List[Any]) -> None:
        self._marshaller = marshaller
        parts: List[Union[bytes, PayloadSlot]] = []
        pending: List[bytes] = []
        for chunk in chunks:
            if isinstance(chunk, PayloadSlot):
                if pending:
                    parts.append(b"".join(pending))
                    pending = []
                parts.append(chunk)
            else:
                pending.append(chunk)
        if pending:
            parts.append(b"".join(pending))
        self._parts: Tuple[Union[bytes, PayloadSlot], ...] = tuple(parts)
        self.static_bytes = sum(
            len(part) for part in self._parts if isinstance(part, bytes)
        )
        self.slot_names: Tuple[str, ...] = tuple(
            part.name for part in self._parts if isinstance(part, PayloadSlot)
        )

    def fill(self, **values: Any) -> bytes:
        missing = [name for name in self.slot_names if name not in values]
        if missing:
            raise MarshalError(f"template fill missing slot values: {missing}")
        marshaller = self._marshaller
        encode_into = marshaller._encode_into
        run = _EncodeRun()
        out: List[bytes] = []
        fresh = 0
        for part in self._parts:
            if isinstance(part, PayloadSlot):
                hole: List[bytes] = []
                encode_into(values[part.name], hole, run)
                for chunk in hole:
                    if isinstance(chunk, PayloadSlot):
                        raise MarshalError(
                            "PayloadSlot values cannot contain further slots"
                        )
                    fresh += len(chunk)
                out.extend(hole)
            else:
                out.append(part)
        if marshaller.stats is not None:
            marshaller.stats.note_fill(
                fresh - run.reused,
                self.static_bytes + run.reused,
                run.hits,
                run.misses,
            )
        return b"".join(out)


# One-byte type tags.  Every tag is >= 0x80, so a message whose first
# byte is below that range was not written by this format (see
# Marshaller._dec_unknown).
_S_NONE = 0x80
_S_TRUE = 0x81
_S_FALSE = 0x82
_S_I32 = 0x83
_S_I64 = 0x84
_S_FLOAT = 0x85
_S_STR = 0x86
_S_BYTES = 0x87
_S_LIST = 0x88
_S_TUPLE = 0x89
_S_SET = 0x8A
_S_DICT = 0x8B
_S_ENUM = 0x8C
_S_OBJREF = 0x8D
_S_VALUE = 0x8E  # unframed registered value: tag, name, parts
_S_FVALUE = 0x8F  # framed interned value: tag, u32 frame_len, name, parts

_SB_NONE = bytes((_S_NONE,))
_SB_TRUE = bytes((_S_TRUE,))
_SB_FALSE = bytes((_S_FALSE,))
_SB_VALUE = bytes((_S_VALUE,))

# Precompiled packers: one C call per scalar instead of tag + payload.
_P_I32 = struct.Struct("<Bi")
_P_I64 = struct.Struct("<Bq")
_P_FLOAT = struct.Struct("<Bd")
_P_HDR = struct.Struct("<BI")  # tag + u32 (string/bytes/container/frame len)
_U_I32 = struct.Struct("<i")
_U_I64 = struct.Struct("<q")
_U_FLOAT = struct.Struct("<d")
_U_LEN = struct.Struct("<I")

_I32_MIN = -(2**31)
_I32_MAX = 2**31 - 1
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

# Immutable leaves :meth:`Marshaller.copy` shares, inline in containers
# (ints are range-checked, so they are not leaves).
_LEAVES = frozenset((type(None), bool, float, str, bytes))


def _shared(value: Any, orb: Any) -> Any:
    return value


class Marshaller:
    """Encodes/decodes values to bytes using a :class:`ValueTypeRegistry`.

    ``encode_cache`` (optional) enables byte reuse for interned value
    types; ``decode_cache`` (optional) enables framed-decode
    memoization; ``stats`` (optional, any object with the
    :class:`MarshalStats` interface) accounts encoded vs reused bytes —
    the ORB shares its transport stats' marshal block here.

    The format, all in service of per-send CPU:

    - **Exact-type encode dispatch** — one dict probe on
      ``value.__class__`` replaces an isinstance chain for every common
      type; precompiled :class:`struct.Struct` packers emit tag +
      payload in a single C call.
    - **32-bit small-int packing** — ints in the i32 range cost 5 bytes
      instead of 9 (most wire ints are counters and lengths).
    - **Tag-indexed decode table over a memoryview** — each tag is a
      direct table hit, and string/bytes payloads slice without
      intermediate copies.
    - **Length-framed interned values** — types marked
      ``intern_encoded`` are wrapped in a ``(len, name, parts)`` frame,
      so the receiver memoizes the whole frame's decode: an unchanged
      activity context spliced into N requests is decoded once
      (``decode_hits`` in the stats).

    Framing depends only on the *registry* (``is_interned``), never on
    cache presence, so a deployment's wire bytes are identical across
    every ``marshal_cache_entries`` setting.  A :class:`PayloadSlot` inside
    an interned value cannot be length-framed ahead of time and is
    refused at ``prepare`` time.
    """

    def __init__(
        self,
        registry: Optional[ValueTypeRegistry] = None,
        stats: Optional[MarshalStats] = None,
        encode_cache: Optional[EncodeCache] = None,
        decode_cache: Optional[DecodeCache] = None,
    ) -> None:
        self.registry = registry if registry is not None else GLOBAL_REGISTRY
        self.stats = stats
        self.encode_cache = encode_cache
        self.decode_cache = decode_cache
        # ``members`` as on _EncodeRun, per decoding (or copying) thread.
        self._decoding = threading.local()
        self._enc: Dict[Type, Callable[[Any, list, Optional[_EncodeRun]], None]] = {
            type(None): self._enc_none,
            bool: self._enc_bool,
            int: self._enc_int,
            float: self._enc_float,
            str: self._enc_str,
            bytes: self._enc_bytes,
            list: self._enc_list,
            tuple: self._enc_tuple,
            dict: self._enc_dict,
            # Read-only views of a dict (ActivityContext's maps) go on
            # the wire as the dict they wrap.
            MappingProxyType: self._enc_dict,
            set: self._enc_set,
            frozenset: self._enc_set,
        }
        # Same dispatch for :meth:`copy`: immutable leaves are shared.
        self._copiers: Dict[Type, Callable[[Any, Any], Any]] = dict.fromkeys(_LEAVES, _shared)
        self._copiers.update(
            {
                int: self._copy_int,
                list: self._copy_list,
                tuple: self._copy_tuple,
                dict: self._copy_dict,
                MappingProxyType: self._copy_dict,
                set: self._copy_set,
                frozenset: self._copy_set,
            }
        )
        dec: List[Any] = [self._dec_unknown] * 256
        dec[_S_NONE] = self._dec_none
        dec[_S_TRUE] = self._dec_true
        dec[_S_FALSE] = self._dec_false
        dec[_S_I32] = self._dec_i32
        dec[_S_I64] = self._dec_i64
        dec[_S_FLOAT] = self._dec_float
        dec[_S_STR] = self._raw_str_from
        dec[_S_BYTES] = self._dec_bytes
        dec[_S_LIST] = self._dec_list
        dec[_S_TUPLE] = self._dec_tuple
        dec[_S_SET] = self._dec_set
        dec[_S_DICT] = self._dec_dict
        dec[_S_ENUM] = self._dec_enum
        dec[_S_OBJREF] = self._dec_objref
        dec[_S_VALUE] = self._dec_value
        dec[_S_FVALUE] = self._dec_fvalue
        self._dec = dec

    # -- encoding ---------------------------------------------------------

    def encode(self, value: Any) -> bytes:
        chunks: list = []
        run = _EncodeRun()
        self._encode_into(value, chunks, run)
        try:
            result = b"".join(chunks)
        except TypeError:
            raise MarshalError(
                "PayloadSlot encountered outside a template; use prepare()"
            ) from None
        if self.stats is not None:
            self.stats.note_encode(
                len(result) - run.reused, run.reused, run.hits, run.misses
            )
        return result

    def prepare(self, value: Any) -> PayloadTemplate:
        """Marshal-once: encode ``value`` into a reusable template.

        ``value`` may contain :class:`PayloadSlot` markers anywhere a
        value may appear (including inside registered dataclass fields,
        but not inside interned ones); everything else is encoded now,
        exactly once.
        """
        chunks: list = []
        run = _EncodeRun()
        self._encode_into(value, chunks, run)
        if self.stats is not None:
            fresh = sum(len(c) for c in chunks if not isinstance(c, PayloadSlot))
            self.stats.note_encode(
                fresh - run.reused, run.reused, run.hits, run.misses
            )
            self.stats.note_prepare()
        return PayloadTemplate(self, chunks)

    def invalidate_cached(self, value: Any) -> bool:
        """Drop ``value``'s interned bytes (stale version replaced)."""
        if self.encode_cache is None:
            return False
        return self.encode_cache.invalidate(value)

    def _encode_into(
        self, value: Any, out: list, run: Optional[_EncodeRun] = None
    ) -> None:
        """Append ``value``'s encoding (chunks / slot markers) to ``out``.

        The encoding is *compositional* — every value encodes to a
        self-contained byte string regardless of context — which is the
        property template filling relies on for byte-identity.
        """
        handler = self._enc.get(value.__class__)
        if handler is not None:
            handler(value, out, run)
        else:
            self._enc_other(value, out, run)

    def _enc_none(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        out.append(_SB_NONE)

    def _enc_bool(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        out.append(_SB_TRUE if value else _SB_FALSE)

    def _enc_int(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        if _I32_MIN <= value <= _I32_MAX:
            out.append(_P_I32.pack(_S_I32, value))
            return
        try:
            out.append(_P_I64.pack(_S_I64, value))
        except struct.error:
            raise MarshalError(
                f"integer {value} exceeds the wire format's 64-bit range"
            ) from None

    def _enc_float(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        out.append(_P_FLOAT.pack(_S_FLOAT, value))

    def _enc_str(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        raw = value.encode("utf-8")
        out.append(_P_HDR.pack(_S_STR, len(raw)))
        out.append(raw)

    def _enc_bytes(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        out.append(_P_HDR.pack(_S_BYTES, len(value)))
        out.append(value)

    def _enc_list(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        out.append(_P_HDR.pack(_S_LIST, len(value)))
        encode = self._encode_into
        for item in value:
            encode(item, out, run)

    def _enc_tuple(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        out.append(_P_HDR.pack(_S_TUPLE, len(value)))
        encode = self._encode_into
        for item in value:
            encode(item, out, run)

    def _enc_set(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        items = sorted(value, key=repr)
        out.append(_P_HDR.pack(_S_SET, len(items)))
        encode = self._encode_into
        for item in items:
            encode(item, out, run)

    def _enc_dict(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        out.append(_P_HDR.pack(_S_DICT, len(value)))
        encode = self._encode_into
        for key, item in value.items():
            encode(key, out, run)
            encode(item, out, run)

    def _raw_str(self, value: str, out: list) -> None:
        raw = value.encode("utf-8")
        out.append(_U_LEN.pack(len(raw)))
        out.append(raw)

    def _enc_other(self, value: Any, out: list, run: Optional[_EncodeRun]) -> None:
        registry = self.registry
        cls = value.__class__
        if isinstance(value, PayloadSlot):
            # Template hole: recorded as-is, spliced at fill time.
            out.append(value)
            return
        if isinstance(value, Enum) and registry.is_enum_registered(cls):
            out.append(bytes((_S_ENUM,)))
            self._raw_str(registry.repository_id(cls), out)
            self._raw_str(value.name, out)
            return
        if isinstance(value, ObjectRef):
            out.append(bytes((_S_OBJREF,)))
            self._raw_str(value.node_id, out)
            self._raw_str(value.object_id, out)
            self._raw_str(value.interface, out)
            return
        name = registry.lookup_type(cls)
        if name is None:
            # Exact-type dispatch misses subclasses of the builtin
            # containers/scalars; fall back to the isinstance ladder
            # once so e.g. an OrderedDict still encodes as a dict.
            for base, handler in self._enc.items():
                if base is not type(None) and isinstance(value, base):
                    handler(value, out, run)
                    return
            raise MarshalError(
                f"cannot marshal value of unregistered type {cls.__qualname__}"
            )
        _, to_parts, _ = registry.lookup_name(name)
        if not registry.is_interned(cls):
            out.append(_SB_VALUE)
            self._raw_str(name, out)
            self._encode_into(to_parts(value), out, run)
            return
        # Interned: length-framed so receivers can memoize the decode.
        if run is None:
            run = _EncodeRun()
        cache = self.encode_cache
        # A list when this frame is nested in another: it joins that
        # frame's cache entry rather than taking one of its own.
        outer = run.members
        if cache is not None:
            cached = cache.get(value)
            if cached is not None:
                out.append(cached)
                run.reused += len(cached)
                run.hits += 1
                if outer is not None:
                    outer.append((value, cached))
                return
        sub: list = []
        self._raw_str(name, sub)
        run.members = [] if outer is None else outer
        self._encode_into(to_parts(value), sub, run)
        members, run.members = run.members, outer
        if any(isinstance(chunk, PayloadSlot) for chunk in sub):
            raise MarshalError(
                f"cannot length-frame interned type {name} containing"
                " PayloadSlot holes; keep slots outside interned values"
            )
        body = b"".join(sub)
        blob = _P_HDR.pack(_S_FVALUE, len(body)) + body
        if cache is not None:
            run.misses += 1
            if outer is None:
                cache.put(value, blob, members)
            else:
                outer.append((value, blob))
        out.append(blob)

    # -- decoding ---------------------------------------------------------

    def decode(self, data: bytes, orb: Optional[Any] = None) -> Any:
        try:
            view = memoryview(data)
            value, offset = self._dec[view[0]](view, 1, orb)
            if offset != len(view):
                raise MarshalError(
                    f"{len(view) - offset} trailing bytes after decode"
                )
            return value
        except (struct.error, IndexError, TypeError, UnicodeDecodeError) as exc:
            # TypeError covers corrupted wires whose damage only shows at
            # construction time (an unhashable decoded dict key / set
            # member): still a malformed message, not a caller bug.
            raise MarshalError(f"malformed message: {exc}") from exc

    def _next(self, data: memoryview, offset: int, orb: Optional[Any]):
        return self._dec[data[offset]](data, offset + 1, orb)

    def _dec_unknown(self, data: memoryview, offset: int, orb: Optional[Any]):
        tag = data[offset - 1]
        if offset == 1 and tag < _S_NONE:
            raise MarshalError(
                f"unknown tag {bytes((tag,))!r} at offset 0: data written by a"
                " pre-struct build (legacy codec, wire protocol 1), which this"
                " build cannot read"
            )
        raise MarshalError(f"unknown tag {bytes((tag,))!r} at offset {offset - 1}")

    def _dec_none(self, data: memoryview, offset: int, orb: Optional[Any]):
        return None, offset

    def _dec_true(self, data: memoryview, offset: int, orb: Optional[Any]):
        return True, offset

    def _dec_false(self, data: memoryview, offset: int, orb: Optional[Any]):
        return False, offset

    def _dec_i32(self, data: memoryview, offset: int, orb: Optional[Any]):
        return _U_I32.unpack_from(data, offset)[0], offset + 4

    def _dec_i64(self, data: memoryview, offset: int, orb: Optional[Any]):
        return _U_I64.unpack_from(data, offset)[0], offset + 8

    def _dec_float(self, data: memoryview, offset: int, orb: Optional[Any]):
        return _U_FLOAT.unpack_from(data, offset)[0], offset + 8

    def _dec_bytes(self, data: memoryview, offset: int, orb: Optional[Any]):
        length = _U_LEN.unpack_from(data, offset)[0]
        offset += 4
        end = offset + length
        if end > len(data):
            raise MarshalError("truncated message")
        return bytes(data[offset:end]), end

    def _dec_list(self, data: memoryview, offset: int, orb: Optional[Any]):
        count = _U_LEN.unpack_from(data, offset)[0]
        offset += 4
        items = []
        append = items.append
        table = self._dec
        for _ in range(count):
            item, offset = table[data[offset]](data, offset + 1, orb)
            append(item)
        return items, offset

    def _dec_tuple(self, data: memoryview, offset: int, orb: Optional[Any]):
        items, offset = self._dec_list(data, offset, orb)
        return tuple(items), offset

    def _dec_set(self, data: memoryview, offset: int, orb: Optional[Any]):
        items, offset = self._dec_list(data, offset, orb)
        return set(items), offset

    def _dec_dict(self, data: memoryview, offset: int, orb: Optional[Any]):
        count = _U_LEN.unpack_from(data, offset)[0]
        offset += 4
        result = {}
        table = self._dec
        for _ in range(count):
            key, offset = table[data[offset]](data, offset + 1, orb)
            value, offset = table[data[offset]](data, offset + 1, orb)
            result[key] = value
        return result, offset

    def _raw_str_from(
        self, data: memoryview, offset: int, orb: Optional[Any] = None
    ) -> Tuple[str, int]:
        """A u32-length utf-8 string (the body of a STR tag, or a bare name)."""
        length = _U_LEN.unpack_from(data, offset)[0]
        offset += 4
        end = offset + length
        if end > len(data):
            raise MarshalError("truncated message")
        return str(data[offset:end], "utf-8"), end

    def _dec_enum(self, data: memoryview, offset: int, orb: Optional[Any]):
        name, offset = self._raw_str_from(data, offset)
        member, offset = self._raw_str_from(data, offset)
        enum_cls = self.registry.lookup_enum(name)
        try:
            return enum_cls[member], offset
        except KeyError:
            raise MarshalError(
                f"unknown member {member!r} of enum {name}"
            ) from None

    def _dec_objref(self, data: memoryview, offset: int, orb: Optional[Any]):
        node_id, offset = self._raw_str_from(data, offset)
        object_id, offset = self._raw_str_from(data, offset)
        interface, offset = self._raw_str_from(data, offset)
        ref = ObjectRef(node_id=node_id, object_id=object_id, interface=interface)
        if orb is not None:
            ref.bind(orb)
        return ref, offset

    def _dec_value(self, data: memoryview, offset: int, orb: Optional[Any]):
        name, offset = self._raw_str_from(data, offset)
        parts, offset = self._next(data, offset, orb)
        return self._rebuild(name, parts), offset

    def _dec_fvalue(self, data: memoryview, offset: int, orb: Optional[Any]):
        frame_len = _U_LEN.unpack_from(data, offset)[0]
        offset += 4
        end = offset + frame_len
        if end > len(data):
            raise MarshalError("truncated message")
        cache = self.decode_cache
        if cache is None:
            return self._frame_value(data, offset, end, orb), end
        key = (id(orb), bytes(data[offset:end]))
        value = cache.get(key)
        hit = value is not _MISS
        # A list when this frame is nested in another: it joins that
        # frame's cache entry rather than taking one of its own.
        outer = getattr(self._decoding, "members", None)
        if not hit:
            self._decoding.members = [] if outer is None else outer
            try:
                value = self._frame_value(data, offset, end, orb)
            finally:
                members, self._decoding.members = self._decoding.members, outer
            if outer is None:
                cache.put(key, value, members)
        if outer is not None:
            outer.append((key, value))
        if self.stats is not None:
            self.stats.note_decode(hit)
        return value, end

    def _frame_value(self, data: memoryview, offset: int, end: int, orb: Any):
        name, inner = self._raw_str_from(data, offset)
        parts, inner = self._next(data, inner, orb)
        if inner != end:
            raise MarshalError(
                f"framed value {name} consumed {inner - offset} bytes, "
                f"frame declares {end - offset}"
            )
        return self._rebuild(name, parts)

    def _rebuild(self, name: str, parts: Any) -> Any:
        _, __, from_parts = self.registry.lookup_name(name)
        try:
            return from_parts(parts)
        except (TypeError, ValueError) as exc:
            raise MarshalError(f"malformed {name} parts: {exc}") from None

    # -- collocated copy ------------------------------------------------------

    def copy(self, value: Any, orb: Optional[Any] = None) -> Any:
        """The by-value copy a collocated callee receives, without bytes.

        Equal in type and value to ``decode(encode(value), orb)`` and
        sharing no mutable container with ``value``.  Immutable leaves
        and registered enums are shared; containers are rebuilt, a
        read-only mapping view as a ``dict`` and a ``frozenset`` as a
        ``set``; a registered value is rebuilt from copied parts; an
        ``ObjectRef`` is rebound to ``orb``.  An interned value is copied
        once per instance and ORB, memoized in the decode cache as a
        decoded frame is.  Raises :class:`MarshalError` wherever
        :meth:`encode` would.
        """
        copier = self._copiers.get(value.__class__)
        if copier is not None:
            return copier(value, orb)
        return self._copy_other(value, orb)

    def _copy_int(self, value: int, orb: Any) -> int:
        if not _I64_MIN <= value <= _I64_MAX:
            raise MarshalError(
                f"integer {value} exceeds the wire format's 64-bit range"
            )
        return value

    def _copy_list(self, value: Any, orb: Any) -> list:
        copy = self.copy
        return [item if item.__class__ in _LEAVES else copy(item, orb) for item in value]

    def _copy_tuple(self, value: Any, orb: Any) -> tuple:
        return tuple(self._copy_list(value, orb))

    def _copy_set(self, value: Any, orb: Any) -> set:
        # Built in the order a decode inserts (the encoder's repr sort).
        return set(self._copy_list(sorted(value, key=repr), orb))

    def _copy_dict(self, value: Any, orb: Any) -> dict:
        if not value:
            return {}
        copy = self.copy
        return {
            key if key.__class__ in _LEAVES else copy(key, orb): (
                item if item.__class__ in _LEAVES else copy(item, orb)
            )
            for key, item in value.items()
        }

    def _copy_other(self, value: Any, orb: Any) -> Any:
        registry = self.registry
        cls = value.__class__
        if isinstance(value, Enum) and registry.is_enum_registered(cls):
            return value
        if isinstance(value, ObjectRef):
            ref = ObjectRef(value.node_id, value.object_id, value.interface)
            return ref.bind(orb) if orb is not None else ref
        name = registry.lookup_type(cls)
        if name is None:
            # Subclasses of the builtins copy as the builtin, as they encode.
            for base, copier in self._copiers.items():
                if base is not type(None) and isinstance(value, base):
                    return copier(base(value), orb)
            raise MarshalError(
                f"cannot marshal value of unregistered type {cls.__qualname__}"
            )
        to_parts = registry.lookup_name(name)[1]
        cache = self.decode_cache
        if cache is None or not registry.is_interned(cls):
            return self._rebuild(name, self.copy(to_parts(value), orb))
        # Memoized as _dec_fvalue memoizes a frame; the entry pins
        # ``value``, so its id keys it safely.
        key = (id(orb), id(value))
        entry = cache.get(key)
        outer = getattr(self._decoding, "members", None)
        if entry is _MISS:
            self._decoding.members = [] if outer is None else outer
            try:
                entry = (value, self._rebuild(name, self.copy(to_parts(value), orb)))
            finally:
                members, self._decoding.members = self._decoding.members, outer
            if outer is None:
                cache.put(key, entry, members)
        if outer is not None:
            outer.append((key, entry))
        return entry[1]


def marshal_roundtrip(
    value: Any,
    orb: Optional[Any] = None,
    registry: Optional[ValueTypeRegistry] = None,
) -> Any:
    """Encode then decode ``value`` — the by-value copy a remote peer sees."""
    marshaller = Marshaller(registry)
    return marshaller.decode(marshaller.encode(value), orb)
