"""Wire-format fuzz suite for the marshaller.

Drives randomized (but seeded, hence reproducible) contexts, payloads,
and wire damage through the one wire format — once through a bare
:class:`Marshaller` and once through one with the ORB's encode/decode
caches — and asserts:

- value equality both ways: ``decode(encode(v)) == v`` with the exact
  decoded types, and re-encoding the decoded value reproduces the bytes;
- the format shares no tag with the pre-struct (retired legacy) format,
  so data written by an older build is refused, never misparsed;
- malformed input (every truncation point, random single-byte
  corruption) surfaces as :class:`MarshalError` — never a bare
  ``KeyError``/``TypeError`` leaking parser internals;
- a servant exception crossing a real :class:`SocketTransport` revives
  typed (typed errors keep their type and args, unregistered types
  degrade to :class:`RemoteApplicationError`).
"""

import random

import pytest

from repro.core.context import ActivityContext
from repro.core.signals import Outcome, Signal
from repro.core.status import ActivityStatus, CompletionStatus, SignalSetState
from repro.exceptions import AdmissionRejected, InvalidStateError, OverloadError
from repro.orb.core import Orb, RemoteApplicationError, Servant
from repro.orb.marshal import DecodeCache, EncodeCache, MarshalError, Marshaller
from repro.orb.reference import ObjectRef
from repro.orb.site import SiteFederation
from repro.orb.socket_transport import SocketTransport
from repro.ots.propagation import TransactionContext
from repro.wscf.coordination import PROTOCOL_ATOMIC, CoordinationContext

SEEDS = list(range(25))

_ENUMS = (
    ActivityStatus.ACTIVE,
    ActivityStatus.COMPLETED,
    CompletionStatus.FAIL_ONLY,
    SignalSetState.WAITING,
)
_TEXT_POOL = "abz ABZ 09_-µé✓☃\U0001f40d"


def _fuzz_scalar(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-(2**62), 2**62)
    if kind == 3:
        return rng.choice([0.0, -1.5, 1e300, rng.uniform(-1e9, 1e9)])
    if kind == 4:
        return "".join(rng.choice(_TEXT_POOL) for _ in range(rng.randrange(20)))
    if kind == 5:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(20)))
    if kind == 6:
        return rng.choice(_ENUMS)
    return ObjectRef(
        f"node-{rng.randrange(9)}", f"obj-{rng.randrange(9)}", "Iface"
    )


def fuzz_value(rng: random.Random, depth: int = 0):
    """One random wire-legal value: scalars, containers, value types."""
    if depth >= 3 or rng.random() < 0.35:
        return _fuzz_scalar(rng)
    kind = rng.randrange(8)
    if kind == 0:
        return [fuzz_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 1:
        return tuple(fuzz_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind == 2:
        return {
            rng.choice(["k1", "k2", "k3", 7, -1, True, None]): fuzz_value(
                rng, depth + 1
            )
            for _ in range(rng.randrange(4))
        }
    if kind == 3:
        return {rng.randint(-99, 99) for _ in range(rng.randrange(4))}
    if kind == 4:
        return Signal(
            f"sig-{rng.randrange(9)}",
            f"set-{rng.randrange(9)}",
            fuzz_value(rng, depth + 1),
            delivery_id=rng.choice([None, f"d-{rng.randrange(9)}"]),
        )
    if kind == 5:
        return Outcome(
            f"out-{rng.randrange(9)}",
            fuzz_value(rng, depth + 1),
            is_error=rng.random() < 0.5,
        )
    if kind == 6:
        return ActivityContext(
            f"act-{rng.randrange(9)}",
            f"name-{rng.randrange(9)}",
            {"grp": {"k": fuzz_value(rng, depth + 1)}},
            {"grp": ObjectRef("n", "o", "PropertyGroup")},
        )
    return rng.choice(
        [
            TransactionContext(f"tid-{rng.randrange(99)}"),
            CoordinationContext(
                f"ctx-{rng.randrange(99)}",
                PROTOCOL_ATOMIC,
                rng.choice([None, "dA", "dB"]),
            ),
        ]
    )


# Legacy tag letters: the first byte of every pre-struct message.
_PRE_STRUCT_TAGS = frozenset(b"NTFIDSBLUMEOVG")


@pytest.fixture(scope="module")
def marshallers():
    """A bare marshaller and one wired like an ORB's (both caches on)."""
    return Marshaller(), Marshaller(
        encode_cache=EncodeCache(256), decode_cache=DecodeCache()
    )


class TestDifferentialRoundtrip:
    """Round trips, checked against the original value."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_value_equality_both_ways(self, marshallers, seed):
        rng = random.Random(seed)
        for _ in range(20):
            value = fuzz_value(rng)
            for marshaller in marshallers:
                wire = marshaller.encode(value)
                decoded = marshaller.decode(wire)
                assert decoded == value
                assert value == decoded
                assert marshaller.encode(decoded) == wire

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_decoded_types_match_exactly(self, marshallers, seed):
        """Equality is not enough: tuple/list and bool/int must not blur."""
        rng = random.Random(1000 + seed)
        for _ in range(10):
            value = fuzz_value(rng)
            for marshaller in marshallers:
                assert type(marshaller.decode(marshaller.encode(value))) is type(value)

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_wire_formats_are_disjoint(self, marshallers, seed):
        """Every message starts with a struct tag (0x80-0x8F), never a
        pre-struct tag letter, so old data fails instead of mis-decoding."""
        rng = random.Random(2000 + seed)
        for _ in range(10):
            value = fuzz_value(rng)
            for marshaller in marshallers:
                first = marshaller.encode(value)[0]
                assert 0x80 <= first <= 0x8F
                assert first not in _PRE_STRUCT_TAGS


class TestWireDamage:
    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_every_truncation_point_raises_marshal_error(self, marshallers, seed):
        rng = random.Random(3000 + seed)
        for _ in range(5):
            value = fuzz_value(rng)
            for marshaller in marshallers:
                wire = marshaller.encode(value)
                for cut in range(len(wire)):
                    with pytest.raises(MarshalError):
                        marshaller.decode(wire[:cut])

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_corruption_never_escapes_marshal_error(self, marshallers, seed):
        """A flipped byte may still decode (string bodies are opaque) but
        must never surface anything other than MarshalError."""
        rng = random.Random(4000 + seed)
        for _ in range(5):
            value = fuzz_value(rng)
            for marshaller in marshallers:
                wire = marshaller.encode(value)
                if not wire:
                    continue
                for _ in range(40):
                    damaged = bytearray(wire)
                    damaged[rng.randrange(len(wire))] = rng.randrange(256)
                    try:
                        marshaller.decode(bytes(damaged))
                    except MarshalError:
                        pass

    def test_known_regressions_stay_fixed(self, marshallers):
        """Seed-independent anchors for escapes the fuzzer once found."""
        for marshaller in marshallers:
            enum_wire = marshaller.encode(ActivityStatus.ACTIVE)
            # A truncated enum member once escaped as KeyError.
            with pytest.raises(MarshalError):
                marshaller.decode(enum_wire[:-1])
            # A foreign member name is a malformed message, not a KeyError.
            swapped = enum_wire.replace(b"ACTIVE", b"ABSENT")
            with pytest.raises(MarshalError):
                marshaller.decode(swapped)
            # A truncated bytes body once decoded to a short slice.
            bytes_wire = marshaller.encode(b"0123456789")
            with pytest.raises(MarshalError):
                marshaller.decode(bytes_wire[:-3])


class _Failing(Servant):
    def typed(self):
        raise InvalidStateError("fuzz failure", 17)

    def untyped(self):
        raise ZeroDivisionError("not wire-typed")

    def overloaded(self):
        raise OverloadError("server drowning")

    def shed(self):
        raise AdmissionRejected("gate: at capacity (9/9 live)")


def _revived_errors():
    """Run typed + untyped servant failures over a real socket pair."""
    server_transport = SocketTransport("server", bind=("127.0.0.1", 0))
    server_orb = Orb(transport=server_transport)
    SiteFederation(server_transport, server_orb)
    server_transport.set_request_handler(server_orb.dispatch_request)
    server_transport.set_control_handler(
        lambda req: {
            "site": "server",
            "domain": "server"
            if server_orb.has_node(str(req.get("node")))
            else None,
        }
    )
    server_transport.start()
    server_orb.create_node("server.fail").activate(
        _Failing(), object_id="failing", interface="Failing"
    )

    client_transport = SocketTransport("client")
    client_orb = Orb(transport=client_transport)
    SiteFederation(client_transport, client_orb)
    client_transport.connect_peer("server", server_transport.address)
    client_transport.start()
    try:
        ref = ObjectRef("server.fail", "failing", "Failing").bind(client_orb)
        caught = {}
        for operation in ("typed", "untyped", "overloaded", "shed"):
            try:
                ref.invoke(operation)
            except Exception as exc:  # noqa: BLE001 - the revival IS the result
                caught[operation] = exc
        return caught
    finally:
        client_transport.close()
        server_transport.close()


class TestErrorRevival:
    def test_typed_error_revival(self):
        caught = _revived_errors()
        typed = caught["typed"]
        assert type(typed) is InvalidStateError
        assert typed.args == ("fuzz failure", 17)
        untyped = caught["untyped"]
        assert type(untyped) is RemoteApplicationError
        assert untyped.type_name == "ZeroDivisionError"
        assert "not wire-typed" in str(untyped)

    def test_overload_errors_revive_typed(self):
        """Admission/overload refusals must fast-fail as *their own*
        types on the client — a shed op retried as a generic error
        would defeat the deadline-aware retry policies (PR 10)."""
        caught = _revived_errors()
        overloaded = caught["overloaded"]
        assert type(overloaded) is OverloadError
        assert "server drowning" in str(overloaded)
        assert overloaded.transient
        shed = caught["shed"]
        assert type(shed) is AdmissionRejected
        assert isinstance(shed, OverloadError)
        assert "at capacity" in str(shed)
