"""SocketTransport: framing, pooling, reconnect, error revival, the seam."""

import hashlib
import json
import socket
import threading
import time

import pytest

from repro.exceptions import CommunicationError, ConfigurationError, ObjectNotExist
from repro.orb.core import Orb, Servant
from repro.orb.marshal import MarshalError, Marshaller
from repro.orb.reference import ObjectRef
from repro.orb.site import SiteFederation
from repro.orb.socket_transport import (
    KIND_HELLO,
    KIND_REPLY_ERR,
    KIND_REPLY_OK,
    KIND_REQUEST,
    SocketTransport,
    _encode_frame,
    _read_frame,
)
from repro.orb.transport import SimulatedTransport, Transport
from repro.persistence.object_store import SegmentedFileStore


@pytest.fixture
def server():
    transport = SocketTransport("server", bind=("127.0.0.1", 0))
    transport.start()
    yield transport
    transport.close()


def make_client(server, site_id="client", **kwargs):
    client = SocketTransport(site_id, bind=None, **kwargs)
    client.connect_peer("server", server.address)
    client.start()
    return client


class TestFraming:
    def test_round_trips_arbitrary_bytes(self):
        payload = bytes(range(256)) * 3
        frame = _encode_frame(KIND_REQUEST, "node-a", "node-b", payload)
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            kind, source, target, decoded = _read_frame(right)
        finally:
            left.close()
            right.close()
        assert (kind, source, target, decoded) == (
            KIND_REQUEST,
            "node-a",
            "node-b",
            payload,
        )

    def test_unicode_node_ids(self):
        frame = _encode_frame(KIND_REPLY_OK, "sítê-α", "nœud", b"x")
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            _, source, target, _ = _read_frame(right)
        finally:
            left.close()
            right.close()
        assert (source, target) == ("sítê-α", "nœud")


class TestRequestReply:
    def test_request_dispatches_through_handler(self, server):
        seen = []

        def handler(target_node, payload):
            seen.append((target_node, payload))
            return b"reply:" + payload

        server.set_request_handler(handler)
        client = make_client(server)
        try:
            reply = client.request("server", "src-node", "dst-node", b"hello")
        finally:
            client.close()
        assert reply == b"reply:hello"
        assert seen == [("dst-node", b"hello")]

    def test_control_round_trip(self, server):
        server.set_control_handler(lambda req: {"echo": req["op"]})
        client = make_client(server)
        try:
            assert client.control("server", {"op": "ping"}) == {"echo": "ping"}
        finally:
            client.close()

    def test_typed_errors_revive(self, server):
        def handler(target_node, payload):
            raise ObjectNotExist(f"no object on {target_node}")

        server.set_request_handler(handler)
        client = make_client(server)
        try:
            with pytest.raises(ObjectNotExist, match="no object on dst"):
                client.request("server", "src", "dst", b"x")
        finally:
            client.close()

    def test_unknown_errors_degrade_to_communication_error(self, server):
        def handler(target_node, payload):
            raise RuntimeError("boom")

        server.set_request_handler(handler)
        client = make_client(server)
        try:
            with pytest.raises(CommunicationError, match="RuntimeError"):
                client.request("server", "src", "dst", b"x")
        finally:
            client.close()

    def test_connections_are_pooled(self, server):
        server.set_request_handler(lambda node, payload: payload)
        client = make_client(server)
        try:
            for _ in range(5):
                client.request("server", "s", "d", b"p")
            assert len(client._idle["server"]) == 1
        finally:
            client.close()

    def test_concurrent_rounds_use_separate_connections(self, server):
        release = threading.Event()

        def handler(node, payload):
            if payload == b"slow":
                release.wait(5.0)
            return payload

        server.set_request_handler(handler)
        client = make_client(server)
        results = {}

        def call(tag, payload):
            results[tag] = client.request("server", "s", "d", payload)

        try:
            slow = threading.Thread(target=call, args=("slow", b"slow"))
            slow.start()
            call("fast", b"fast")  # must not queue behind the slow round
            assert results["fast"] == b"fast"
            release.set()
            slow.join(5.0)
            assert results["slow"] == b"slow"
        finally:
            release.set()
            client.close()


class TestReconnect:
    def test_unknown_peer(self):
        client = SocketTransport("client")
        client.start()
        with pytest.raises(CommunicationError, match="no address"):
            client.request("nowhere", "s", "d", b"x")

    def test_dead_peer_exhausts_retries_and_counts_drop(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()[:2]
        client = SocketTransport(
            "client", reconnect_attempts=3, reconnect_base_delay=0.005
        )
        client.connect_peer("server", dead_address)
        client.start()
        with pytest.raises(CommunicationError, match="after 3 attempts"):
            client.request("server", "s", "d", b"x")
        assert client.stats.requests_dropped == 1

    def test_reconnects_after_peer_restart(self, server):
        server.set_request_handler(lambda node, payload: payload)
        client = make_client(server, reconnect_base_delay=0.005)
        try:
            assert client.request("server", "s", "d", b"one") == b"one"
            # Kill every server-side conn: the pooled client connection
            # is now dead and the next round must redial transparently.
            with server._lock:
                conns = list(server._server_conns)
            for conn in conns:
                conn.close()
            assert client.request("server", "s", "d", b"two") == b"two"
        finally:
            client.close()

    def test_fail_fast_probe_attempts_1(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()[:2]
        client = SocketTransport("client", reconnect_base_delay=10.0)
        client.connect_peer("server", dead_address)
        client.start()
        # attempts=1 must not sleep the 10s backoff even once.
        with pytest.raises(CommunicationError):
            client.control("server", {"op": "ping"}, attempts=1)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestServerLifecycle:
    def test_finished_sessions_leave_server_conns(self, server):
        server.set_request_handler(lambda node, payload: payload)
        for i in range(50):
            client = make_client(server, site_id=f"client-{i}")
            try:
                assert client.request("server", "s", "d", b"x") == b"x"
            finally:
                client.close()
        assert wait_until(lambda: len(server._server_conns) == 0)

    def test_close_ends_open_sessions(self, server):
        server.set_request_handler(lambda node, payload: payload)
        client = make_client(server)
        try:
            client.request("server", "s", "d", b"x")
            with server._lock:
                conns = list(server._server_conns)
            assert len(conns) == 1
            server.close()
            assert conns[0].fileno() == -1
            # The pooled client connection sees EOF, not a silent hang.
            pooled = client._idle["server"][0].sock
            pooled.settimeout(5.0)
            assert pooled.recv(1) == b""
        finally:
            client.close()

    def test_close_is_clean(self):
        server = SocketTransport("srv", bind=("127.0.0.1", 0))
        server.set_request_handler(lambda node, data: data)
        server.start()
        address = server.address
        assert address is not None
        server.close()
        # Closing twice is fine; the port is released at once.
        server.close()
        probe = SocketTransport("srv2", bind=("127.0.0.1", address[1]))
        probe.start()
        try:
            assert probe.address[1] == address[1]
        finally:
            probe.close()

    def test_concurrent_clients_one_server(self, server):
        server.set_request_handler(lambda node, data: data.upper())
        clients = [SocketTransport(f"c{i}") for i in range(4)]
        results, errors = [], []

        def worker(client, i):
            try:
                client.start()
                client.connect_peer("server", server.address)
                results.append(client.request("server", "a", "b", f"m{i}".encode()))
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        try:
            workers = [
                threading.Thread(target=worker, args=(client, i))
                for i, client in enumerate(clients)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not errors
            assert sorted(results) == [b"M0", b"M1", b"M2", b"M3"]
        finally:
            for client in clients:
                client.close()


class TestTransportSeam:
    def test_capability_flags(self):
        assert SocketTransport.remote_capable
        assert not SocketTransport.supports_fault_injection
        assert SimulatedTransport.supports_fault_injection
        assert not SimulatedTransport.remote_capable
        assert issubclass(SocketTransport, Transport)
        assert issubclass(SimulatedTransport, Transport)

    def test_local_deliver_without_peers(self):
        """An ORB on a SocketTransport with no peers behaves like an
        in-process deployment: deliver dispatches locally, stats count
        (bytes only for a byte payload; a collocated call carries values)."""
        transport = SocketTransport("solo")
        orb = Orb(transport=transport)

        class Echo(Servant):
            def echo(self, value):
                return value * 2

        node = orb.create_node("n1")
        node.activate(Echo(), object_id="echo", interface="Echo")
        ref = ObjectRef("n1", "echo", "Echo").bind(orb)
        assert ref.invoke("echo", 21) == 42
        assert transport.stats.requests_sent == 1
        assert transport.stats.replies_sent == 1
        assert transport.stats.bytes_sent == 0
        request = orb.marshaller.encode(["echo", "echo", [21], {}, {}])
        reply = transport.deliver(
            "client", "n1", request, lambda payload: orb.dispatch_request("n1", payload)
        )
        assert orb.marshaller.decode(reply, orb) == ["ok", 42, {}]
        assert transport.stats.requests_sent == 2
        assert transport.stats.bytes_sent == len(request) + len(reply)

    def test_cross_process_style_invocation(self):
        """Two ORBs in one test, wired the way two daemons would be."""
        server_transport = SocketTransport("server", bind=("127.0.0.1", 0))
        server_orb = Orb(transport=server_transport)
        SiteFederation(server_transport, server_orb)
        server_transport.set_request_handler(server_orb.dispatch_request)
        server_transport.set_control_handler(
            lambda req: {
                "site": "server",
                "domain": "server" if server_orb.has_node(str(req.get("node"))) else None,
            }
        )
        server_transport.start()

        class Adder(Servant):
            def add(self, a, b):
                return a + b

        server_orb.create_node("server.calc").activate(
            Adder(), object_id="adder", interface="Adder"
        )

        client_transport = SocketTransport("client")
        client_orb = Orb(transport=client_transport)
        SiteFederation(client_transport, client_orb)
        client_transport.connect_peer("server", server_transport.address)
        client_transport.start()
        try:
            ref = ObjectRef("server.calc", "adder", "Adder").bind(client_orb)
            assert ref.invoke("add", 20, 22) == 42
            # Location was cached on the first probe.
            assert client_transport.node_home("server.calc") == "server"
        finally:
            client_transport.close()
            server_transport.close()

    def test_orb_rejects_fault_plan_with_injected_transport(self):
        from repro.exceptions import ConfigurationError
        from repro.orb.transport import FaultPlan

        with pytest.raises(ConfigurationError):
            Orb(transport=SocketTransport("x"), fault_plan=FaultPlan(drop_probability=1.0))

    def test_describe(self, server):
        described = server.describe()
        assert described["transport"] == "SocketTransport"
        assert described["site"] == "server"
        assert described["address"][1] == server.address[1]

    def test_hello_version_check(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        try:
            raw.sendall(
                _encode_frame(
                    KIND_HELLO, "old", "server", json.dumps({"version": 99}).encode()
                )
            )
            kind, _, _, payload = _read_frame(raw)
        finally:
            raw.close()
        assert kind == KIND_REPLY_ERR
        assert "version" in json.loads(payload.decode())["message"]

    def test_control_without_handler_is_typed_error(self, server):
        client = make_client(server)
        try:
            with pytest.raises(Exception, match="no control handler"):
                client.control("server", {"op": "ping"})
        finally:
            client.close()

    def test_closed_transport_refuses(self, server):
        client = make_client(server)
        client.close()
        with pytest.raises(CommunicationError, match="closed"):
            client.request("server", "s", "d", b"x")


class TestPreStructPeersAndData:
    """Wire protocol 3 against older builds: a pre-struct peer (protocol
    1) and a struct peer without per-group context frames (protocol 2)
    are both refused at HELLO in either direction, and pre-struct stored
    data fails loudly."""

    # A cell-store segment holding {"balance": 100} under "cell:acct-a",
    # as a pre-struct build wrote it (legacy tagged encoding).
    PRE_STRUCT_SEGMENT = (
        b"\x00\x00\x00\x16\x00\x00\x00\x1aL\x02\x00\x00\x00S\x0b\x00\x00\x00"
        b"cell:acct-aFM\x01\x00\x00\x00S\x07\x00\x00\x00balanceId\x00\x00\x00"
        b"\x00\x00\x00\x00"
    )
    # {"balance": 100, "owner": "alice"} as a bare pre-struct blob.
    PRE_STRUCT_BLOB = (
        b"M\x02\x00\x00\x00S\x07\x00\x00\x00balanceId\x00\x00\x00\x00\x00\x00"
        b"\x00S\x05\x00\x00\x00ownerS\x05\x00\x00\x00alice"
    )

    @pytest.mark.parametrize("old_version", [1, 2])
    def test_server_refuses_pre_struct_dialer(self, server, old_version):
        raw = socket.create_connection(server.address, timeout=5.0)
        try:
            hello = json.dumps({"version": old_version, "site": "old"}).encode()
            raw.sendall(_encode_frame(KIND_HELLO, "old", "server", hello))
            kind, _, _, payload = _read_frame(raw)
        finally:
            raw.close()
        assert kind == KIND_REPLY_ERR
        error = json.loads(payload.decode())
        assert error["type"] == "ConfigurationError"
        assert f"speaks {old_version}" in error["message"]
        assert "this site speaks 3" in error["message"]

    @pytest.mark.parametrize("old_version", [1, 2])
    def test_client_refuses_pre_struct_server(self, old_version):
        """A peer that accepts the HELLO but answers with an older
        version is refused by the dialer, before any request bytes are
        sent."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        requests = []

        def old_server():
            conn, _ = listener.accept()
            with conn:
                kind, source, _, _ = _read_frame(conn)
                reply = json.dumps({"version": old_version, "site": "old"}).encode()
                conn.sendall(_encode_frame(KIND_HELLO, "old", source, reply))
                try:
                    requests.append(_read_frame(conn)[0])
                except (ConnectionError, OSError):
                    pass

        thread = threading.Thread(target=old_server, daemon=True)
        thread.start()
        client = SocketTransport("client")
        client.connect_peer("old", listener.getsockname()[:2])
        client.start()
        try:
            with pytest.raises(ConfigurationError) as caught:
                client.request("old", "s", "d", Marshaller().encode("x"))
            thread.join(5.0)
        finally:
            client.close()
            listener.close()
        assert f"peer old speaks {old_version}" in str(caught.value)
        assert "this site speaks 3" in str(caught.value)
        assert requests == []
        assert not client._idle.get("old")

    def test_pre_struct_blob_names_the_cause(self):
        with pytest.raises(MarshalError, match="pre-struct build"):
            Marshaller().decode(self.PRE_STRUCT_BLOB)

    def test_pre_struct_store_fails_loudly_on_open(self, tmp_path):
        with open(tmp_path / "seg-00000001.log", "wb") as handle:
            handle.write(self.PRE_STRUCT_SEGMENT)
        with pytest.raises(MarshalError, match="pre-struct build"):
            SegmentedFileStore(str(tmp_path))


class TestExceptionOnlyTheServerCanType:
    """A reply naming an exception type the client ORB never registered
    (a ``SiteClient`` installs no OTS service) revives as
    ``RemoteApplicationError`` carrying what the server sent."""

    def test_site_client_without_ots_types(self):
        from repro.orb.core import RemoteApplicationError
        from repro.orb.site import SiteClient, SiteConfig, SiteRuntime
        from repro.ots import TransactionRolledBack

        class Desk(Servant):
            def fail(self):
                raise TransactionRolledBack("tx-7 rolled back", 7)

        runtime = SiteRuntime(SiteConfig(site_id="srv", port=0, poll_interval=0.05))
        runtime.orb.create_node("srv.app").activate(Desk(), object_id="desk")
        runtime.serve_in_background()
        client = None
        try:
            assert runtime.wait_recovered(timeout=10.0)
            waiter = threading.Event()
            for _ in range(200):
                if runtime.transport.address is not None:
                    break
                waiter.wait(0.02)
            client = SiteClient({"srv": tuple(runtime.transport.address)})
            with pytest.raises(RemoteApplicationError) as caught:
                client.ref("srv.app", "desk").invoke("fail")
        finally:
            if client is not None:
                client.close()
            runtime.stop()
        error = caught.value
        assert error.type_name.endswith("TransactionRolledBack")
        assert error.remote_args == ("tx-7 rolled back", 7)
        assert "tx-7 rolled back" in str(error)


class PinnedAccount(Servant):
    def quote(self, items, options, signal, target):
        return {"items": list(items), "total": sum(items), "signal": signal, "target": target}

    def refuse(self, amount):
        raise ConfigurationError("over limit", amount)


def wire_digests():
    """sha256 of each socket request and reply payload of a fixed session:
    an activity and a transaction ride along, the arguments span the wire
    types, and the second call's reply is a typed exception."""
    from repro.core import ActivityManager, Propagation, PropertyGroup, PropertyGroupManager
    from repro.core.signals import Signal
    from repro.core.status import CompletionStatus
    from repro.ots import TransactionCurrent, TransactionFactory
    from repro.ots.propagation import install_transaction_service

    server_transport = SocketTransport("server", bind=("127.0.0.1", 0))
    server_orb = Orb(transport=server_transport)
    SiteFederation(server_transport, server_orb)
    server_transport.set_request_handler(server_orb.dispatch_request)
    server_transport.set_control_handler(
        lambda req: {
            "site": "server",
            "domain": "server" if server_orb.has_node(str(req.get("node"))) else None,
        }
    )
    server_transport.start()
    server_orb.create_node("server.bank").activate(
        PinnedAccount(), object_id="acct", interface="Account"
    )
    client_transport = SocketTransport("client")
    client_orb = Orb(transport=client_transport)
    SiteFederation(client_transport, client_orb)
    client_transport.connect_peer("server", server_transport.address)
    client_transport.start()
    groups = PropertyGroupManager()
    groups.register_factory(
        "env",
        lambda: PropertyGroup("env", propagation=Propagation.VALUE, initial={"locale": "en"}),
    )
    manager = ActivityManager(clock=client_orb.clock, property_groups=groups)
    manager.install(client_orb)
    transactions = TransactionCurrent(TransactionFactory())
    install_transaction_service(client_orb, transactions)
    wire = []
    request = client_transport.request

    def recording(peer_id, source_node, target_node, request_bytes):
        wire.append(request_bytes)
        try:
            reply = request(peer_id, source_node, target_node, request_bytes)
        except Exception:
            wire.append(b"<raised>")
            raise
        wire.append(reply)
        return reply

    client_transport.request = recording
    try:
        manager.current.begin("pinned")
        transactions.begin()
        ref = ObjectRef("server.bank", "acct", "Account").bind(client_orb)
        ref.invoke(
            "quote",
            (1, 2**40, -3),
            {"fast": True, "ratio": 0.25, "tags": {"b", "a"}, "none": None, "raw": b"\x00\xff"},
            Signal("go", "set", {"status": CompletionStatus.FAIL_ONLY}),
            ObjectRef("server.bank", "other", "Account"),
        )
        with pytest.raises(ConfigurationError):
            ref.invoke("refuse", 5)
    finally:
        client_transport.close()
        server_transport.close()
    return [hashlib.sha256(payload).hexdigest()[:16] for payload in wire]


PINNED_WIRE = ["100ab3b269013298", "4543c0d6dd434a30", "e76a72cec234b234", "537f6197ef80db9d"]


class TestWireBytesArePinned:
    def test_socket_request_and_reply_bytes(self):
        """The bytes a socket carries do not depend on how in-process
        calls are carried; a change here is a wire-protocol change."""
        assert wire_digests() == PINNED_WIRE
