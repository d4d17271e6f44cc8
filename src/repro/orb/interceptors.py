"""Portable-interceptor-style request interception.

CORBA propagates transaction and activity contexts *implicitly*: a client
request interceptor attaches a service context to each outgoing request and
a server request interceptor re-establishes it on the receiving side.  The
Activity Service specification relies on this machinery (its contexts ride
in service context id 0x41435400, "ACT\\0").

We reproduce the same structure: interceptors see a :class:`RequestInfo`
carrying the operation, the target and a service-context dict.  Service
context values must be marshallable: they cross the wire as bytes, or a
collocated call hands the server side a copy equal to their decode.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Tuple


# Well-known service context ids, mirroring OMG-assigned tags.
TRANSACTION_CONTEXT_ID = "CosTransactions"
ACTIVITY_CONTEXT_ID = "CosActivity"
PROPERTY_CONTEXT_ID = "CosActivityProperties"
# Federation: rides alongside CosTransactions on requests crossing an
# inter-ORB bridge.  Named here (not in ots.interposition) so the plain
# propagation interceptor can yield to it without importing federation.
FEDERATED_TRANSACTION_CONTEXT_ID = "CosTransactionsFederation"


class RequestInfo:
    """Everything an interceptor may inspect about one invocation.

    Slotted (PR 7): two are built per invocation (client and server
    side), so the instance dict was pure per-send churn.
    """

    __slots__ = (
        "operation",
        "target_node",
        "target_object",
        "interface",
        "service_contexts",
        "reply_contexts",
        "exception",
    )

    def __init__(
        self,
        operation: str,
        target_node: str,
        target_object: str,
        interface: str,
        service_contexts: Optional[Dict[str, Any]] = None,
        reply_contexts: Optional[Dict[str, Any]] = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self.operation = operation
        self.target_node = target_node
        self.target_object = target_object
        self.interface = interface
        self.service_contexts = (
            service_contexts if service_contexts is not None else {}
        )
        # Filled in on the reply path:
        self.reply_contexts = reply_contexts if reply_contexts is not None else {}
        self.exception = exception

    def get_context(self, context_id: str) -> Any:
        return self.service_contexts.get(context_id)

    def set_context(self, context_id: str, value: Any) -> None:
        self.service_contexts[context_id] = value


class ClientRequestInterceptor(abc.ABC):
    """Client-side hook pair around each outgoing invocation."""

    name: str = "client-interceptor"

    def send_request(self, info: RequestInfo) -> None:
        """Called before the request is marshalled; may add contexts."""

    def receive_reply(self, info: RequestInfo) -> None:
        """Called after a successful reply is unmarshalled."""

    def receive_exception(self, info: RequestInfo) -> None:
        """Called when the invocation raised (system or application)."""


class ServerRequestInterceptor(abc.ABC):
    """Server-side hook pair around each incoming invocation."""

    name: str = "server-interceptor"

    def receive_request(self, info: RequestInfo) -> None:
        """Called before the servant runs; may establish thread contexts."""

    def send_reply(self, info: RequestInfo) -> None:
        """Called after the servant returns, before the reply is sent."""

    def send_exception(self, info: RequestInfo) -> None:
        """Called when the servant raised; the exception is in ``info``."""


class InterceptorChain:
    """Ordered interceptor registry for one ORB."""

    def __init__(self) -> None:
        self._client: list[ClientRequestInterceptor] = []
        self._server: list[ServerRequestInterceptor] = []

    def add_client(self, interceptor: ClientRequestInterceptor) -> None:
        self._client.append(interceptor)

    def add_server(self, interceptor: ServerRequestInterceptor) -> None:
        self._server.append(interceptor)

    @property
    def client_interceptors(self) -> Tuple[ClientRequestInterceptor, ...]:
        return tuple(self._client)

    @property
    def server_interceptors(self) -> Tuple[ServerRequestInterceptor, ...]:
        return tuple(self._server)

    # The ORB drives these; failures in interceptors abort the invocation,
    # as in CORBA (an interceptor raising is a system-level failure).

    def run_send_request(self, info: RequestInfo) -> None:
        for interceptor in self._client:
            interceptor.send_request(info)

    def run_receive_reply(self, info: RequestInfo) -> None:
        for interceptor in reversed(self._client):
            interceptor.receive_reply(info)

    def run_receive_exception(self, info: RequestInfo) -> None:
        for interceptor in reversed(self._client):
            interceptor.receive_exception(info)

    def run_receive_request(self, info: RequestInfo) -> None:
        for interceptor in self._server:
            interceptor.receive_request(info)

    def run_send_reply(self, info: RequestInfo) -> None:
        for interceptor in reversed(self._server):
            interceptor.send_reply(info)

    def run_send_exception(self, info: RequestInfo) -> None:
        for interceptor in reversed(self._server):
            interceptor.send_exception(info)
