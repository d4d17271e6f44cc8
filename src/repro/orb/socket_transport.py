"""A real TCP transport behind the :class:`~repro.orb.transport.Transport` seam.

Where :class:`~repro.orb.transport.SimulatedTransport` carries marshalled
payloads between nodes of one process, this transport carries the *same
bytes* between OS processes, so federation and OTS interposition run
unchanged over a genuine network:

- **Framing** — every message is one length-prefixed frame::

      u32 length | u8 kind | u16 len + utf-8 source | u16 len + utf-8 target | payload

  Kinds: ``HELLO`` (identity and :data:`PROTOCOL_VERSION` exchange on
  dial, checked by both ends), ``REQUEST`` (marshalled
  request bytes; ``source``/``target`` are node ids), ``REPLY_OK``
  (marshalled reply bytes), ``REPLY_ERR`` (JSON ``{"type", "message"}``
  revived to a typed exception client-side), ``CONTROL`` (JSON site-level
  operations: ping, node location).

- **Connection management** — one listener per transport (a *site*); a
  per-peer pool of dialed connections, each checked out exclusively for
  one synchronous request/reply round, so no sequence numbers or demux
  are needed (mirroring the blocking two-way CORBA invocation the
  simulated transport models).

- **Reconnect with backoff** — a failed dial or a connection that dies
  mid-round is retried against a fresh socket with exponential backoff;
  exhausted retries surface as :class:`CommunicationError` (and count as
  ``requests_dropped``), exactly what the invocation path and the 2PC
  retry logic already handle.  A request retried over a fresh connection
  may have executed on the peer — at-least-once delivery, the same
  visibility the fault plan's ``duplicate_probability`` models in
  simulation (phase operations are idempotent by design).

- **Stats parity** — the shared :class:`TransportStats` counters are
  filled the same way the simulated transport fills them, so a
  benchmark's simulated and socket runs compare like for like.

The transport is deliberately ORB-agnostic: the hosting runtime supplies
a request handler (``set_request_handler``) that dispatches into its
ORB, and a control handler for site-level operations.  Delivery routing:
``deliver`` dispatches locally when no peer is known to own the target
node, otherwise forwards the frame to the owning peer (ownership learned
from explicit registration or ``locate`` control queries).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Callable, ClassVar, Dict, List, Optional, Set, Tuple, Union

from repro.exceptions import (
    AdmissionRejected,
    CommunicationError,
    ConfigurationError,
    InvalidStateError,
    ObjectNotExist,
    OverloadError,
    TimeoutError_,
)
from repro.orb.transport import Transport, TransportStats
from repro.util.retry import RetryPolicy

# Version 2: request/reply payloads use the struct encoding of
# repro.orb.marshal; version 3: each property group of an activity context
# is its own interned frame.  Both ends check it on HELLO, so a peer from
# an older build is refused there rather than at its first request.
PROTOCOL_VERSION = 3

KIND_HELLO = 1
KIND_REQUEST = 2
KIND_REPLY_OK = 3
KIND_REPLY_ERR = 4
KIND_CONTROL = 5

_HEADER = struct.Struct(">IB")
_MAX_FRAME = 64 * 1024 * 1024

# Typed errors that keep their identity across the wire; anything else
# degrades to CommunicationError (the safe answer for a caller deciding
# whether to retry or keep holding in-doubt state).
_WIRE_ERRORS = {
    exc.__name__: exc
    for exc in (
        CommunicationError,
        ConfigurationError,
        InvalidStateError,
        ObjectNotExist,
        OverloadError,
        AdmissionRejected,
        TimeoutError_,
    )
}


def _encode_frame(kind: int, source: str, target: str, payload: bytes) -> bytes:
    source_b = source.encode("utf-8")
    target_b = target.encode("utf-8")
    body = b"".join(
        (
            struct.pack(">H", len(source_b)),
            source_b,
            struct.pack(">H", len(target_b)),
            target_b,
            payload,
        )
    )
    return _HEADER.pack(len(body) + 1, kind) + body


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket) -> Tuple[int, str, str, bytes]:
    header = _recv_exact(sock, _HEADER.size)
    length, kind = _HEADER.unpack(header)
    if not 1 <= length <= _MAX_FRAME:
        raise ConnectionError(f"invalid frame length {length}")
    body = _recv_exact(sock, length - 1)
    src_len = struct.unpack_from(">H", body, 0)[0]
    source = body[2 : 2 + src_len].decode("utf-8")
    offset = 2 + src_len
    dst_len = struct.unpack_from(">H", body, offset)[0]
    target = body[offset + 2 : offset + 2 + dst_len].decode("utf-8")
    payload = body[offset + 2 + dst_len :]
    return kind, source, target, payload


def _shut(sock: socket.socket) -> None:
    """Shut down and close a server-side socket.  ``shutdown`` wakes a
    thread blocked in its ``accept``/``recv`` and sends the peer EOF;
    ``close`` alone would leave both waiting."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Connection:
    """One dialed connection, used exclusively for one round at a time."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def round_trip(
        self, kind: int, source: str, target: str, payload: bytes
    ) -> Tuple[int, bytes]:
        self.sock.sendall(_encode_frame(kind, source, target, payload))
        reply_kind, _, _, reply_payload = _read_frame(self.sock)
        return reply_kind, reply_payload

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class SocketTransport(Transport):
    """Length-prefixed TCP request/reply between site processes.

    ``site_id`` names this endpoint in HELLO exchanges; ``bind``
    (host, port) is where :meth:`start` listens — port 0 picks a free
    port, readable from :attr:`address` afterwards — or a socket bound
    there, which :meth:`start` takes over.  Peers are added
    with :meth:`connect_peer` and dialed lazily on first use.

    The server side is thread-per-connection: one accept thread hands
    each inbound connection to a thread of its own, which reads a frame,
    runs the handler and writes the reply before reading the next.  A
    connection is forgotten when its thread ends; :meth:`close` shuts
    down the ones still open.
    """

    supports_fault_injection: ClassVar[bool] = False
    remote_capable: ClassVar[bool] = True

    def __init__(
        self,
        site_id: str,
        bind: Union[Tuple[str, int], socket.socket, None] = None,
        reconnect_attempts: int = 5,
        reconnect_base_delay: float = 0.05,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.site_id = site_id
        self.bind = bind
        self.stats = TransportStats()
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_base_delay = reconnect_base_delay
        # Reconnects follow the unified RetryPolicy: capped exponential
        # backoff *with jitter*, so the pool slots of many clients never
        # hammer a recovering peer in lockstep (PR 8).  The
        # (attempts, base_delay) pair folds into a policy when no
        # explicit one is given.
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_attempts=reconnect_attempts,
                base_delay=reconnect_base_delay,
                max_delay=max(reconnect_base_delay, 2.0),
                jitter=0.5,
            )
        )
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._quarantined: Dict[str, str] = {}
        self._peers: Dict[str, Tuple[str, int]] = {}
        self._node_homes: Dict[str, str] = {}
        self._idle: Dict[str, List[_Connection]] = {}
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._server_conns: Set[socket.socket] = set()
        self._closed = False
        self._started = False
        self._request_handler: Optional[Callable[[str, bytes], bytes]] = None
        self._control_handler: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- runtime wiring ----------------------------------------------------

    def set_request_handler(self, handler: Callable[[str, bytes], bytes]) -> None:
        """``handler(target_node, request_bytes) -> reply_bytes`` runs the
        server-side dispatch for frames arriving over the wire."""
        self._request_handler = handler

    def set_control_handler(
        self, handler: Callable[[Dict[str, Any]], Dict[str, Any]]
    ) -> None:
        """Handler for site-level CONTROL operations (JSON in/out)."""
        self._control_handler = handler

    def _hello_bytes(self) -> bytes:
        """This endpoint's HELLO payload (sent on dial and as the reply)."""
        hello = {"version": PROTOCOL_VERSION, "site": self.site_id}
        return json.dumps(hello).encode("utf-8")

    def register_remote_node(self, node_id: str, peer_id: str) -> None:
        """Record that ``peer_id``'s process serves ``node_id``."""
        self._node_homes[node_id] = peer_id

    def node_home(self, node_id: str) -> Optional[str]:
        return self._node_homes.get(node_id)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        if self.bind is None:
            # A client-only transport: dials peers, accepts nothing.
            self._started = True
            return
        if isinstance(self.bind, socket.socket):
            listener = self.bind
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.bind)
        listener.listen(32)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_connections,
            args=(listener,),
            name=f"site-{self.site_id}-accept",
            daemon=True,
        )
        self._started = True
        self._accept_thread.start()

    def close(self) -> None:
        self._closed = True
        listener, self._listener = self._listener, None
        if listener is not None:
            _shut(listener)
            # Once the accept thread is out of accept() the port is free.
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
            server_conns, self._server_conns = self._server_conns, set()
        for conn in idle:
            conn.close()
        for sock in server_conns:
            _shut(sock)

    def connect_peer(self, peer_id: str, address: Tuple[str, int]) -> None:
        self._peers[peer_id] = (address[0], int(address[1]))

    def peers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._peers))

    # -- quarantine (failure-detector integration) -------------------------

    def quarantine(self, peer_id: str, reason: str = "failure detector") -> None:
        """Fast-fail requests to ``peer_id`` until :meth:`readmit`.

        A quarantined peer costs one typed :class:`CommunicationError`
        per request — no dial, no backoff, no pool-slot pile-up — which
        is what lets callers honour their deadline budgets while the
        membership layer waits for the peer to come back.
        """
        with self._lock:
            self._quarantined[peer_id] = reason

    def readmit(self, peer_id: str) -> None:
        """Lift the quarantine (the failure detector saw a heartbeat)."""
        with self._lock:
            self._quarantined.pop(peer_id, None)

    def quarantined(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._quarantined)

    def is_quarantined(self, peer_id: str) -> bool:
        with self._lock:
            return peer_id in self._quarantined

    # -- server side (thread-per-connection) -------------------------------

    def _accept_connections(self, listener: socket.socket) -> None:
        while not self._closed:
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            with self._lock:
                self._server_conns.add(sock)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name=f"site-{self.site_id}-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            while not self._closed:
                kind, source, target, payload = _read_frame(sock)
                reply_kind, reply_payload = self._handle_frame(
                    kind, source, target, payload
                )
                sock.sendall(
                    _encode_frame(reply_kind, self.site_id, source, reply_payload)
                )
                with self._lock:
                    self.stats.replies_sent += 1
                    self.stats.bytes_sent += len(reply_payload)
        except (ConnectionError, OSError):
            pass
        finally:
            with self._lock:
                self._server_conns.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _handle_frame(
        self,
        kind: int,
        source: str,
        target: str,
        payload: bytes,
    ) -> Tuple[int, bytes]:
        try:
            if kind == KIND_HELLO:
                hello = json.loads(payload.decode("utf-8"))
                if hello.get("version") != PROTOCOL_VERSION:
                    raise ConfigurationError(
                        f"protocol version mismatch: peer {source} speaks"
                        f" {hello.get('version')}, this site speaks {PROTOCOL_VERSION}"
                    )
                return KIND_HELLO, self._hello_bytes()
            if kind == KIND_CONTROL:
                if self._control_handler is None:
                    raise ConfigurationError("no control handler installed")
                request = json.loads(payload.decode("utf-8"))
                reply = self._control_handler(request)
                return KIND_REPLY_OK, json.dumps(reply).encode("utf-8")
            if kind == KIND_REQUEST:
                if self._request_handler is None:
                    raise ConfigurationError("no request handler installed")
                return KIND_REPLY_OK, self._request_handler(target, payload)
            raise ConfigurationError(f"unknown frame kind {kind}")
        except BaseException as exc:
            described = {"type": type(exc).__name__, "message": str(exc)}
            return KIND_REPLY_ERR, json.dumps(described).encode("utf-8")

    # -- client side -------------------------------------------------------

    def _dial(self, peer_id: str) -> _Connection:
        host, port = self._peers[peer_id]
        sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        sock.settimeout(self.request_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        reply_kind, reply_payload = conn.round_trip(
            KIND_HELLO, self.site_id, peer_id, self._hello_bytes()
        )
        if reply_kind == KIND_REPLY_ERR:
            conn.close()
            raise self._revive_error(reply_payload)
        if reply_kind != KIND_HELLO:
            conn.close()
            raise CommunicationError(
                f"peer {peer_id} answered HELLO with frame kind {reply_kind}"
            )
        try:
            version = json.loads(reply_payload.decode("utf-8")).get("version")
        except (ValueError, UnicodeDecodeError, AttributeError):
            version = None
        if version != PROTOCOL_VERSION:
            conn.close()
            raise ConfigurationError(
                f"protocol version mismatch: peer {peer_id} speaks {version},"
                f" this site speaks {PROTOCOL_VERSION}"
            )
        return conn

    def _checkout(self, peer_id: str) -> _Connection:
        with self._lock:
            idle = self._idle.get(peer_id)
            if idle:
                return idle.pop()
        return self._dial(peer_id)

    def _checkin(self, peer_id: str, conn: _Connection) -> None:
        with self._lock:
            if self._closed:
                conn.close()
                return
            self._idle.setdefault(peer_id, []).append(conn)

    def _revive_error(self, payload: bytes) -> BaseException:
        try:
            described = json.loads(payload.decode("utf-8"))
            type_name = described.get("type", "")
            message = described.get("message", "")
        except (ValueError, UnicodeDecodeError):
            type_name, message = "", repr(payload[:128])
        exc_type = _WIRE_ERRORS.get(type_name)
        if exc_type is not None:
            return exc_type(message)
        return CommunicationError(f"remote {type_name or 'error'}: {message}")

    def _round_trip(
        self,
        peer_id: str,
        kind: int,
        source: str,
        target: str,
        payload: bytes,
        attempts: Optional[int] = None,
        ignore_quarantine: bool = False,
    ) -> Tuple[int, bytes]:
        """One request/reply against ``peer_id``, reconnecting under the
        transport's :class:`RetryPolicy` (capped backoff + jitter) when
        the peer is down or a pooled connection has died underneath us.
        A quarantined peer fails fast — no dial at all — unless the
        caller is the membership layer's half-open probe."""
        if self._closed:
            raise CommunicationError(f"transport for site {self.site_id} is closed")
        if peer_id not in self._peers:
            raise CommunicationError(
                f"site {self.site_id} has no address for peer {peer_id!r}"
            )
        if not ignore_quarantine:
            with self._lock:
                reason = self._quarantined.get(peer_id)
            if reason is not None:
                with self._lock:
                    self.stats.requests_dropped += 1
                    self.stats.quarantine_rejections += 1
                raise CommunicationError(
                    f"peer {peer_id} quarantined ({reason}); failing fast"
                )
        policy = self.retry_policy
        if attempts is not None:
            policy = RetryPolicy(
                max_attempts=attempts,
                base_delay=policy.base_delay,
                multiplier=policy.multiplier,
                max_delay=policy.max_delay,
                jitter=policy.jitter,
                deadline=policy.deadline,
            )

        def one_round() -> Tuple[int, bytes]:
            conn = self._checkout(peer_id)
            try:
                reply = conn.round_trip(kind, source, target, payload)
            except (ConnectionError, OSError):
                # The connection died mid-round; the request may or may
                # not have executed (at-least-once, like a duplicated
                # simulated delivery).  Retry on a fresh connection.
                conn.close()
                raise
            self._checkin(peer_id, conn)
            return reply

        def count_reconnect(_attempt: int, _error: BaseException) -> None:
            # Distinct re-dial attempts, not requests: a request that
            # succeeds first try contributes nothing here.
            with self._lock:
                self.stats.reconnects += 1

        try:
            return policy.call(  # type: ignore[return-value]
                one_round,
                retry_on=(ConnectionError, OSError),
                on_retry=count_reconnect,
            )
        except (ConnectionError, OSError) as exc:
            with self._lock:
                self.stats.requests_dropped += 1
            raise CommunicationError(
                f"peer {peer_id} unreachable after {policy.max_attempts}"
                f" attempts: {exc}"
            )

    def request(
        self, peer_id: str, source_node: str, target_node: str, request_bytes: bytes
    ) -> bytes:
        """Send one marshalled request to ``peer_id`` and return the
        marshalled reply (raising the revived typed error on failure)."""
        with self._lock:
            self.stats.requests_sent += 1
            self.stats.bytes_sent += len(request_bytes)
        kind, payload = self._round_trip(
            peer_id, KIND_REQUEST, source_node, target_node, request_bytes
        )
        if kind == KIND_REPLY_ERR:
            raise self._revive_error(payload)
        return payload

    def control(
        self,
        peer_id: str,
        operation: Dict[str, Any],
        attempts: Optional[int] = None,
        probe: bool = False,
    ) -> Dict[str, Any]:
        """Site-level JSON RPC (ping, locate) against one peer.

        ``attempts=1`` probes without the reconnect backoff — the right
        setting for discovery sweeps that must not stall on a dead peer.
        ``probe=True`` additionally bypasses quarantine: it is how the
        membership layer's half-open heartbeat reaches a DOWN peer to
        discover it recovered.
        """
        payload = json.dumps(operation).encode("utf-8")
        with self._lock:
            self.stats.requests_sent += 1
            self.stats.bytes_sent += len(payload)
        kind, reply = self._round_trip(
            peer_id,
            KIND_CONTROL,
            self.site_id,
            peer_id,
            payload,
            attempts=attempts,
            ignore_quarantine=probe,
        )
        if kind == KIND_REPLY_ERR:
            raise self._revive_error(reply)
        return json.loads(reply.decode("utf-8"))

    # -- the Transport seam ------------------------------------------------

    def deliver(
        self,
        source_node: str,
        target_node: str,
        request: Any,
        dispatch: Callable[[Any], Any],
    ) -> Any:
        """Local targets dispatch in-process; targets registered to a
        peer cross the wire.  Stats are counted either way, so the
        counters mean the same thing they mean on the simulated path
        (a collocated request's values add no bytes)."""
        home = self._node_homes.get(target_node)
        if home is None or home == self.site_id:
            with self._lock:
                self.stats.requests_sent += 1
                self.stats.bytes_sent += len(request) if isinstance(request, bytes) else 0
            reply = dispatch(request)
            with self._lock:
                self.stats.replies_sent += 1
                self.stats.bytes_sent += len(reply) if isinstance(reply, bytes) else 0
            return reply
        return self.request(home, source_node, target_node, request)

    # -- introspection -----------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "transport": type(self).__name__,
            "site": self.site_id,
            "address": list(self.address) if self.address else None,
            "peers": {peer: list(addr) for peer, addr in sorted(self._peers.items())},
            "quarantined": self.quarantined(),
            "retry_policy": self.retry_policy.describe(),
        }
