"""Span tracer for the end-to-end benchmark: record, install, analyse.

Spans are opened from *outside* the library: :meth:`Tracer.install`
replaces named callables of ``repro`` classes with wrappers for the
length of a traced window and :meth:`Tracer.uninstall` puts the
originals back, so nothing under ``src/`` knows it is being traced and
the untraced window runs the unmodified code.

A span is four int64s in a per-thread ``array``: probe id, start and end
(``time.monotonic_ns()`` — CLOCK_MONOTONIC is one clock for every
process of a Linux host, which is what lets daemon spans be placed
inside client spans) and the index of the span that was open on the same
thread when it started.  :func:`analyze` turns the buffers of every
process of a run into per-probe self times.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

# (span name, "module:Class.attr").  The span name is "<layer>.<what>"
# with the layer spelled as the repro module that owns the callable.
# Private targets are listed in README.md ("Probes on private names").
PROBES: Tuple[Tuple[str, str], ...] = (
    ("orb.core.invoke", "repro.orb.core:Orb.invoke"),
    ("orb.core.dispatch", "repro.orb.core:Orb._dispatch"),
    ("orb.marshal.encode", "repro.orb.marshal:Marshaller.encode"),
    ("orb.marshal.decode", "repro.orb.marshal:Marshaller.decode"),
    ("orb.marshal.prepare", "repro.orb.marshal:Marshaller.prepare"),
    ("orb.marshal.fill", "repro.orb.marshal:PayloadTemplate.fill"),
    ("orb.transport.deliver", "repro.orb.transport:SimulatedTransport.deliver"),
    ("orb.socket_transport.deliver", "repro.orb.socket_transport:SocketTransport.deliver"),
    ("orb.socket_transport.request", "repro.orb.socket_transport:SocketTransport.request"),
    ("core.context.send", "repro.core.context:ActivityClientInterceptor.send_request"),
    ("core.context.receive", "repro.core.context:ActivityServerInterceptor.receive_request"),
    ("core.context.reply", "repro.core.context:ActivityServerInterceptor.send_reply"),
    ("core.manager.begin", "repro.core.manager:ActivityManager.begin"),
    ("core.activity.complete", "repro.core.activity:Activity.complete"),
    ("core.activity.add_action", "repro.core.activity:Activity.add_action"),
    ("core.coordinator.process_signal_set",
     "repro.core.coordinator:ActivityCoordinator.process_signal_set"),
    ("core.broadcast.broadcast", "repro.core.broadcast:SerialBroadcastExecutor.broadcast"),
    ("core.delivery.deliver", "repro.core.delivery:AtLeastOnceDelivery.deliver"),
    ("ots.factory.create", "repro.ots.factory:TransactionFactory.create"),
    ("ots.coordinator.commit", "repro.ots.coordinator:Transaction.commit"),
    ("ots.coordinator.rollback", "repro.ots.coordinator:Transaction.rollback"),
    ("ots.coordinator.prepare_interposed",
     "repro.ots.coordinator:Transaction.prepare_interposed"),
    ("ots.coordinator.commit_interposed",
     "repro.ots.coordinator:Transaction.commit_interposed"),
    ("ots.coordinator.rollback_interposed",
     "repro.ots.coordinator:Transaction.rollback_interposed"),
    ("ots.interposition.send",
     "repro.ots.interposition:FederatedTransactionClientInterceptor.send_request"),
    ("ots.interposition.receive",
     "repro.ots.interposition:FederatedTransactionServerInterceptor.receive_request"),
    ("ots.interposition.adopt",
     "repro.ots.interposition:FederatedTransactionService.adopt"),
    ("ots.locks.acquire", "repro.ots.locks:LockManager.acquire"),
    ("ots.recoverable.prepare", "repro.ots.recoverable:TransactionalCell._prepare"),
    ("ots.recoverable.commit", "repro.ots.recoverable:TransactionalCell._commit"),
    ("ots.recoverable.rollback", "repro.ots.recoverable:TransactionalCell._rollback"),
    ("persistence.wal.append", "repro.persistence.wal:WriteAheadLog.append"),
    ("persistence.wal.force", "repro.persistence.wal:WriteAheadLog.force"),
    ("persistence.object_store.put",
     "repro.persistence.object_store:SegmentedFileStore.put"),
    ("persistence.object_store.put_many",
     "repro.persistence.object_store:SegmentedFileStore.put_many"),
    ("persistence.object_store.remove",
     "repro.persistence.object_store:SegmentedFileStore.remove"),
    ("persistence.object_store.compact",
     "repro.persistence.object_store:SegmentedFileStore._compact_locked"),
    ("models.twopc.participant",
     "repro.models.twopc:TwoPhaseParticipant.process_signal"),
    ("models.saga.run", "repro.models.saga:Saga.run"),
    ("apps.transfer", "repro.apps.site_apps:TransferDesk.transfer"),
    ("apps.withdraw", "repro.apps.site_apps:BankAccount.withdraw"),
    ("apps.deposit", "repro.apps.site_apps:BankAccount.deposit"),
    # The benchmark's own servants, so that dispatch self time excludes them.
    ("apps.servant", "site_hooks:EchoAction.process_signal"),
    ("apps.servant", "workloads:StepWorker.work"),
    ("apps.servant", "workloads:StepWorker.undo"),
)

# Opened by the harness around every operation of a traced window.
OP_SPAN = "load.op"

PROBE_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys([name for name, _ in PROBES] + [OP_SPAN])
)
PROBE_IDS: Dict[str, int] = {name: i for i, name in enumerate(PROBE_NAMES)}

# The server entry span that a remote caller's request span contains.
DISPATCH_SPAN = "orb.core.dispatch"
REQUEST_SPAN = "orb.socket_transport.request"

_FIELDS = 4  # probe id, start_ns, end_ns, parent index


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class Span(NamedTuple):
    pid: int
    index: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index within the same pid, -1 for a thread's outermost span


class Tracer:
    """Per-process span recorder; one instance per process."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._buffers: List[array] = []
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self) -> Tuple[array, List[int]]:
        state = (array("q"), [])
        self._tls.state = state
        with self._lock:
            self._buffers.append(state[0])
        return state

    def wrap(self, fn: Callable[..., Any], span_name: str) -> Callable[..., Any]:
        """``fn`` with a span around every call."""
        probe_id = PROBE_IDS[span_name]
        tls = self._tls
        new_state = self._thread_state
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                buf, stack = tls.state
            except AttributeError:
                buf, stack = new_state()
            index = len(buf) >> 2
            buf.extend((probe_id, clock(), 0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                # drain() may have emptied the buffer under a wrapper that
                # was still on the stack (the daemon's own drain request).
                if len(buf) > (index << 2) + 2:
                    buf[(index << 2) + 2] = clock()

        return traced

    # -- installing probes -------------------------------------------------

    def install(self, probes: Iterable[Tuple[str, str]] = PROBES) -> None:
        """Replace every probe target with its traced wrapper.

        A target whose module this process never imported is skipped:
        code that is not loaded cannot run."""
        if self._installed:
            raise RuntimeError("probes are already installed")
        for span_name, target in probes:
            module_name, _, path = target.partition(":")
            if module_name not in sys.modules:
                continue
            class_name, _, attr = path.partition(".")
            owner = getattr(sys.modules[module_name], class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, span_name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- draining ----------------------------------------------------------

    def drain(self) -> bytes:
        """All finished spans as one flat int64 buffer (parent indices
        rebased onto the concatenation); clears the recorder.

        Only after :meth:`uninstall`, so that no new span starts while
        the buffers are emptied; a span still open on some thread has
        end 0 and is dropped by :func:`decode_spans`."""
        if self._installed:
            raise RuntimeError("uninstall the probes before draining")
        flat = array("q")
        with self._lock:
            for buf in self._buffers:
                base = len(flat) // _FIELDS
                if base:
                    for offset in range(3, len(buf), _FIELDS):
                        if buf[offset] >= 0:
                            buf[offset] += base
                flat.extend(buf)
                del buf[:]
        return flat.tobytes()


def decode_spans(pid: int, raw: bytes) -> List[Span]:
    flat = array("q")
    flat.frombytes(raw)
    return [
        Span(pid, i // _FIELDS, PROBE_NAMES[flat[i]], flat[i + 1], flat[i + 2], flat[i + 3])
        for i in range(0, len(flat), _FIELDS)
        if flat[i + 2] > 0
    ]


# -- analysis ----------------------------------------------------------------


class ProbeTotals(NamedTuple):
    count: int
    total_ns: int  # sum of span durations
    self_ns: int  # durations minus the part child spans cover


class Analysis(NamedTuple):
    ops: int  # load.op spans
    op_ns: int  # summed duration of the load.op spans
    probes: Dict[str, ProbeTotals]  # per span name, attached spans only
    by_pid: Dict[Tuple[int, str], ProbeTotals]
    orphans: int  # spans not reachable from a load.op span


def analyze(spans: Iterable[Span]) -> Analysis:
    """Self time per probe over every span that belongs to a client op.

    Spans of one thread nest through ``parent``.  A thread's outermost
    ``orb.core.dispatch`` span in one process is attached to the
    innermost ``orb.socket_transport.request`` span of *another* process
    that contains it in time — with one request in flight that is the
    call that caused it.  Spans that reach no ``load.op`` span this way
    (a daemon's background rounds) are counted as orphans and left out,
    so that the self times of the kept spans add up to the op time.
    """
    spans = list(spans)
    key_of = {(s.pid, s.index): n for n, s in enumerate(spans)}
    parent: List[int] = [key_of.get((s.pid, s.parent), -1) for s in spans]

    requests = sorted(
        (s.start_ns, n) for n, s in enumerate(spans) if s.name == REQUEST_SPAN
    )
    starts = [start for start, _ in requests]
    for n, span in enumerate(spans):
        if parent[n] >= 0 or span.name != DISPATCH_SPAN:
            continue
        at = bisect.bisect_right(starts, span.start_ns)
        for _, candidate in reversed(requests[max(0, at - 16):at]):
            outer = spans[candidate]
            if outer.pid != span.pid and outer.end_ns >= span.end_ns:
                parent[n] = candidate
                break

    # A span is kept when its chain of parents ends in a load.op span.
    kept: List[Optional[bool]] = [None] * len(spans)
    for n in range(len(spans)):
        chain = []
        cursor = n
        while cursor >= 0 and kept[cursor] is None:
            chain.append(cursor)
            cursor = parent[cursor]
        verdict = kept[cursor] if cursor >= 0 else spans[chain[-1]].name == OP_SPAN
        for member in chain:
            kept[member] = verdict

    child_ns = [0] * len(spans)
    for n, span in enumerate(spans):
        if kept[n] and parent[n] >= 0:
            child_ns[parent[n]] += span.end_ns - span.start_ns

    probes: Dict[str, List[int]] = {}
    by_pid: Dict[Tuple[int, str], List[int]] = {}
    ops = op_ns = orphans = 0
    for n, span in enumerate(spans):
        if not kept[n]:
            orphans += 1
            continue
        duration = span.end_ns - span.start_ns
        if span.name == OP_SPAN:
            ops += 1
            op_ns += duration
        for table, key in ((probes, span.name), (by_pid, (span.pid, span.name))):
            entry = table.setdefault(key, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns[n]
    return Analysis(
        ops=ops,
        op_ns=op_ns,
        probes={k: ProbeTotals(*v) for k, v in probes.items()},
        by_pid={k: ProbeTotals(*v) for k, v in by_pid.items()},
        orphans=orphans,
    )


def layer_self_ns(analysis: Analysis) -> Dict[str, int]:
    """Self time per layer (the module part of the span names)."""
    layers: Dict[str, int] = {}
    for name, totals in analysis.probes.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0) + totals.self_ns
    return layers


def write_trace(path: str, spans: Iterable[Span]) -> None:
    """Write ``spans`` as JSON lines, one span per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps(
                    {
                        "name": span.name,
                        "layer": layer_of(span.name),
                        "start_ns": span.start_ns,
                        "end_ns": span.end_ns,
                        "parent": span.parent,
                        "pid": span.pid,
                        "index": span.index,
                    }
                )
                + "\n"
            )
