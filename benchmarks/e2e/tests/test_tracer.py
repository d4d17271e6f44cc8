"""Self-time arithmetic on synthetic span trees, and the recorder itself."""

import sys
import types

import pytest

import tracer
from tracer import DISPATCH_SPAN, OP_SPAN, REQUEST_SPAN, Span, Tracer, analyze

CLIENT, DAEMON, BANK = 100, 200, 300


def test_nested_and_sibling_spans():
    spans = [
        Span(CLIENT, 0, OP_SPAN, 0, 1000, -1),
        Span(CLIENT, 1, "orb.core.invoke", 100, 900, 0),
        Span(CLIENT, 2, "orb.marshal.encode", 150, 250, 1),  # siblings under invoke
        Span(CLIENT, 3, "orb.marshal.decode", 700, 850, 1),
        Span(CLIENT, 4, "orb.marshal.encode", 160, 200, 2),  # nested in the first encode
    ]
    result = analyze(spans)
    assert result.ops == 1 and result.op_ns == 1000 and result.orphans == 0
    assert result.probes[OP_SPAN].self_ns == 200
    assert result.probes["orb.core.invoke"].self_ns == 800 - 100 - 150
    encode = result.probes["orb.marshal.encode"]
    assert (encode.count, encode.total_ns, encode.self_ns) == (2, 140, 60 + 40)
    assert result.probes["orb.marshal.decode"].self_ns == 150


def test_self_times_add_up_to_the_op_time():
    spans = [
        Span(CLIENT, 0, OP_SPAN, 0, 500, -1),
        Span(CLIENT, 1, "core.manager.begin", 10, 60, 0),
        Span(CLIENT, 2, "core.activity.complete", 100, 480, 0),
        Span(CLIENT, 3, "core.broadcast.broadcast", 120, 400, 2),
        Span(CLIENT, 4, OP_SPAN, 600, 900, -1),
        Span(CLIENT, 5, "core.manager.begin", 650, 700, 4),
    ]
    result = analyze(spans)
    assert result.ops == 2 and result.op_ns == 800
    assert sum(t.self_ns for t in result.probes.values()) == result.op_ns
    assert sum(tracer.layer_self_ns(result).values()) == result.op_ns


def test_cross_process_containment_two_hops():
    # client op -> request to the desk daemon -> its request to the bank daemon.
    spans = [
        Span(CLIENT, 0, OP_SPAN, 0, 10_000, -1),
        Span(CLIENT, 1, REQUEST_SPAN, 1_000, 9_000, 0),
        Span(DAEMON, 0, DISPATCH_SPAN, 1_500, 8_600, -1),
        Span(DAEMON, 1, "orb.marshal.decode", 1_600, 2_000, 0),
        Span(DAEMON, 2, REQUEST_SPAN, 3_000, 7_000, 0),
        Span(BANK, 0, DISPATCH_SPAN, 3_400, 6_500, -1),
        Span(BANK, 1, "persistence.wal.force", 4_000, 6_000, 0),
    ]
    result = analyze(spans)
    assert result.orphans == 0
    # Each request's self time is what the callee's dispatch does not cover.
    assert result.by_pid[(CLIENT, REQUEST_SPAN)].self_ns == 8_000 - 7_100
    assert result.by_pid[(DAEMON, REQUEST_SPAN)].self_ns == 4_000 - 3_100
    assert result.by_pid[(DAEMON, DISPATCH_SPAN)].self_ns == 7_100 - 400 - 4_000
    assert result.by_pid[(BANK, DISPATCH_SPAN)].self_ns == 3_100 - 2_000
    assert sum(t.self_ns for t in result.probes.values()) == result.op_ns == 10_000


def test_innermost_enclosing_request_wins():
    # The bank calls back into the desk while the desk's own request is
    # open: the callback's dispatch belongs to the bank's request, not to
    # the enclosing request of its own pid.
    spans = [
        Span(CLIENT, 0, OP_SPAN, 0, 1_000, -1),
        Span(CLIENT, 1, REQUEST_SPAN, 100, 900, 0),
        Span(DAEMON, 0, DISPATCH_SPAN, 150, 850, -1),
        Span(DAEMON, 1, REQUEST_SPAN, 200, 800, 0),
        Span(BANK, 0, DISPATCH_SPAN, 250, 750, -1),
        Span(BANK, 1, REQUEST_SPAN, 300, 700, 0),
        Span(DAEMON, 2, DISPATCH_SPAN, 350, 650, -1),  # callback, other thread
    ]
    result = analyze(spans)
    assert result.orphans == 0
    assert result.by_pid[(BANK, REQUEST_SPAN)].self_ns == 400 - 300
    assert result.by_pid[(DAEMON, DISPATCH_SPAN)].count == 2


def test_background_spans_are_orphans_not_op_time():
    spans = [
        Span(CLIENT, 0, OP_SPAN, 0, 1_000, -1),
        Span(CLIENT, 1, REQUEST_SPAN, 100, 900, 0),
        Span(DAEMON, 0, DISPATCH_SPAN, 200, 800, -1),
        # A daemon's serve-loop round that happens to overlap the op.
        Span(DAEMON, 1, "persistence.wal.append", 300, 400, -1),
        Span(DAEMON, 2, "persistence.wal.force", 310, 390, 1),
        # A dispatch no traced request caused (tracing control call).
        Span(DAEMON, 3, DISPATCH_SPAN, 2_000, 2_500, -1),
    ]
    result = analyze(spans)
    assert result.orphans == 3
    assert "persistence.wal.append" not in result.probes
    assert result.probes[DISPATCH_SPAN].count == 1
    assert sum(t.self_ns for t in result.probes.values()) == result.op_ns


class _Target:
    def outer(self, depth):
        return self.inner(depth) + self.inner(depth)

    def inner(self, depth):
        return depth


@pytest.fixture
def target_module():
    module = types.ModuleType("e2e_tracer_target")
    module.Target = _Target
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_recorder_nests_and_restores(target_module):
    probes = (
        ("orb.core.invoke", "e2e_tracer_target:Target.outer"),
        ("orb.marshal.encode", "e2e_tracer_target:Target.inner"),
        ("orb.marshal.decode", "never_imported_module:Gone.method"),
    )
    original = _Target.__dict__["outer"]
    recorder = Tracer()
    recorder.install(probes)
    assert _Target.__dict__["outer"] is not original
    with pytest.raises(RuntimeError):
        recorder.drain()  # probes still installed
    assert _Target().outer(3) == 6
    recorder.uninstall()
    assert _Target.__dict__["outer"] is original

    spans = tracer.decode_spans(7, recorder.drain())
    assert [s.name for s in spans] == [
        "orb.core.invoke", "orb.marshal.encode", "orb.marshal.encode",
    ]
    assert [s.parent for s in spans] == [-1, 0, 0]
    assert all(s.pid == 7 and s.end_ns >= s.start_ns > 0 for s in spans)
    assert spans[0].start_ns <= spans[1].start_ns and spans[2].end_ns <= spans[0].end_ns
    assert tracer.decode_spans(7, recorder.drain()) == []  # drained


def test_drain_rebases_parents_across_threads():
    import threading

    recorder = Tracer()
    outer = recorder.wrap(lambda: inner(), "orb.core.invoke")
    inner = recorder.wrap(lambda: None, "orb.marshal.encode")
    outer()
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    spans = tracer.decode_spans(1, recorder.drain())
    assert len(spans) == 4
    by_index = {s.index: s for s in spans}
    for span in spans:
        if span.name == "orb.marshal.encode":
            assert by_index[span.parent].name == "orb.core.invoke"
            assert by_index[span.parent].start_ns <= span.start_ns
