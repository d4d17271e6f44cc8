"""The benchmark's metrics: names, units, direction, and how the
per-layer ones are derived from a traced window.

``BENCHMARK.json`` lists exactly these names (``tests/test_schema.py``
holds the two in step).  A per-layer metric's third column says which
end-to-end metric it is expected to move and where; README.md has the
same table with the reasoning.

Naming: ``*_self_*`` is self time (a span minus what its child spans
cover), ``*_per_op`` is a total divided by the operations of the window,
everything else timed is the mean duration of one call.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from harness import Window, kind_p50_ms, steady_metrics, whole_window
from tracer import OP_SPAN, REQUEST_SPAN, Analysis, ProbeTotals, layer_self_ns


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher"),
    Metric("p50_ms", "ms", "lower"),
    Metric("p95_ms", "ms", "lower"),
    Metric("cpu_ms_per_op", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("setup_s", "s", "lower"),
)

_INVOKE = "cpu_ms_per_op, ops_per_s, p50_ms on invoke_stable and invoke_churn"
_MIX = "ops_per_s, p50_ms on activity_mix only"
_TRANSFERS = "p50_ms, cpu_ms_per_op on local_transfer and federated_transfer"
_WAITING = "p50_ms, p95_ms, ops_per_s on both transfer workloads (waiting, not cpu_ms_per_op)"
_FEDERATED = "p50_ms on federated_transfer only (local_transfer is the control)"
_HONESTY = "none: a check on the numbers themselves"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("orb.marshal.encode_us_per_op", "us", "lower", _INVOKE + "; a few % on transfers"),
    Metric("orb.marshal.decode_us_per_op", "us", "lower", _INVOKE + "; a few % on transfers"),
    Metric("orb.marshal.bytes_encoded_per_op", "B", "lower", "p50_ms gap invoke_churn - invoke_stable"),
    Metric("orb.marshal.bytes_reused_per_op", "B", "higher", "p50_ms gap invoke_churn - invoke_stable"),
    Metric("orb.marshal.encode_cache_hit_ratio", "ratio", "higher", "~1 on invoke_stable, lower on invoke_churn"),
    Metric("orb.marshal.context_snapshot_hit_ratio", "ratio", "higher", "1 on invoke_stable, 0 on invoke_churn"),
    Metric("orb.marshal.template_fills_per_op", "count", "higher", "cpu_ms_per_op on activity_mix"),
    Metric("orb.core.invoke_self_us_per_op", "us", "lower", "p50_ms on invoke_*, activity_mix"),
    Metric("orb.core.dispatch_self_us_per_op", "us", "lower", "p50_ms on invoke_*, activity_mix"),
    Metric("orb.socket_transport.round_trip_us", "us", "lower", "p50_ms on invoke_*; x requests_per_op = cross-site share of federated_transfer p50_ms"),
    Metric("orb.socket_transport.requests_per_op", "count", "lower", "p50_ms on federated_transfer"),
    Metric("orb.socket_transport.bytes_per_op", "B", "lower", "p50_ms on invoke_*"),
    Metric("orb.socket_transport.reconnects", "count", "lower", "p95_ms on the socket workloads; 0 expected"),
    Metric("core.context.send_us_per_op", "us", "lower", "p50_ms, cpu_ms_per_op on invoke_churn first, invoke_stable second"),
    Metric("core.context.receive_us_per_op", "us", "lower", "p50_ms, cpu_ms_per_op on invoke_churn first, invoke_stable second"),
    Metric("core.coordinator.process_signal_set_self_ms", "ms", "lower", _MIX),
    Metric("core.broadcast.broadcast_self_ms", "ms", "lower", _MIX),
    Metric("core.coordinator.signals_per_op", "count", "lower", _MIX),
    Metric("core.coordinator.transmits_per_op", "count", "lower", _MIX),
    Metric("core.manager.begin_us", "us", "lower", _MIX),
    Metric("core.activity.complete_self_ms", "ms", "lower", _MIX),
    Metric("models.twopc.commit_p50_ms", "ms", "lower", "60 % of activity_mix p50_ms"),
    Metric("models.twopc.rollback_p50_ms", "ms", "lower", "10 % of activity_mix; p95_ms"),
    Metric("models.saga.success_p50_ms", "ms", "lower", "20 % of activity_mix p50_ms"),
    Metric("models.saga.compensate_p50_ms", "ms", "lower", "10 % of activity_mix; p95_ms"),
    Metric("ots.coordinator.commit_self_ms", "ms", "lower", _TRANSFERS),
    Metric("ots.coordinator.rollback_self_ms", "ms", "lower", _TRANSFERS),
    Metric("ots.factory.create_us", "us", "lower", _TRANSFERS),
    Metric("ots.locks.acquire_us_per_op", "us", "lower", _TRANSFERS),
    Metric("ots.recoverable.prepare_ms_per_op", "ms", "lower", _TRANSFERS),
    Metric("ots.recoverable.commit_ms_per_op", "ms", "lower", _TRANSFERS),
    Metric("ots.coordinator.commit_p50_ms", "ms", "lower", "the commit path of the transfer workloads' p50_ms"),
    Metric("ots.coordinator.abort_p50_ms", "ms", "lower", "the abort path (10 % of ops) of the transfer workloads"),
    Metric("ots.interposition.adopt_ms", "ms", "lower", _FEDERATED),
    Metric("ots.interposition.sub_prepare_ms", "ms", "lower", _FEDERATED),
    Metric("ots.interposition.sub_commit_ms", "ms", "lower", _FEDERATED),
    Metric("ots.interposition.cross_site_requests_per_op", "count", "lower", _FEDERATED),
    Metric("persistence.wal.force_ms", "ms", "lower", _WAITING),
    Metric("persistence.wal.forces_per_op", "count", "lower", _WAITING),
    Metric("persistence.wal.records_per_op", "count", "lower", _WAITING),
    Metric("persistence.wal.append_self_us", "us", "lower", "cpu_ms_per_op on the transfer workloads"),
    Metric("persistence.object_store.put_ms_per_op", "ms", "lower", "p50_ms on transfers"),
    Metric("persistence.object_store.puts_per_op", "count", "lower", "p50_ms on transfers (one fsync each)"),
    Metric("persistence.object_store.bytes_written_per_op", "B", "lower", "p50_ms on transfers"),
    Metric("persistence.object_store.auto_compactions", "count", "lower", "p95_ms spikes on transfers"),
    Metric("persistence.object_store.compact_ms_total", "ms", "lower", "p95_ms spikes on transfers"),
    Metric("persistence.wal.replay_ms", "ms", "lower", "orb.site.restart_recover_ms, setup_s after a crash"),
    Metric("persistence.wal.replay_records", "count", "lower", "persistence.wal.replay_ms"),
    Metric("orb.site.restart_recover_ms", "ms", "lower", "setup_s on the transfer workloads"),
    Metric("orb.site.daemon_cpu_us_per_op", "us", "lower", "cpu_ms_per_op on the socket workloads"),
    Metric("orb.site.daemon_rss_mb", "MB", "lower", "peak_rss_mb on the socket workloads"),
    Metric("load.p99_ms", "ms", "lower", _HONESTY),
    Metric("load.samples", "count", "higher", _HONESTY),
    Metric("load.slice_spread_pct", "%", "lower", _HONESTY),
    Metric("load.client_self_us_per_op", "us", "lower", _HONESTY),
    Metric("load.trace_overhead_pct", "%", "lower", _HONESTY),
    Metric("load.unattributed_share", "ratio", "lower", _HONESTY),
    Metric("load.host_spin_ms", "ms", "lower", "every timing alike: the host got slower, not the code"),
    Metric("load.concurrent_transfer_probe_ok", "count", "higher", "flips to 1 when the TransactionCurrent defect is fixed"),
)

# Which op kind feeds which per-kind latency metric, per workload.
KIND_METRICS: Dict[str, Dict[str, str]] = {
    "activity_mix": {
        "twopc_commit": "models.twopc.commit_p50_ms",
        "twopc_rollback": "models.twopc.rollback_p50_ms",
        "saga_success": "models.saga.success_p50_ms",
        "saga_compensate": "models.saga.compensate_p50_ms",
    },
    "local_transfer": {
        "commit": "ots.coordinator.commit_p50_ms",
        "overdraft": "ots.coordinator.abort_p50_ms",
    },
    "federated_transfer": {
        "commit": "ots.coordinator.commit_p50_ms",
        "overdraft": "ots.coordinator.abort_p50_ms",
    },
}

_NONE = ProbeTotals(0, 0, 0)


def end_to_end(window: Window, peak_rss_mb: float, setup_s: float) -> Dict[str, float]:
    steady = steady_metrics(window)
    return {
        "ops_per_s": steady["ops_per_s"],
        "p50_ms": steady["p50_ms"],
        "p95_ms": steady["p95_ms"],
        "cpu_ms_per_op": steady["cpu_ms_per_op"],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def counter_delta(
    before: Sequence[Dict[str, Any]], after: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """Counters summed over the run's processes, as after - before."""
    delta: Dict[str, float] = {}
    for old, new in zip(before, after):
        for key, value in new.items():
            if key == "pid":
                continue
            pairs = (
                [(f"marshal.{k}", v, old[key][k]) for k, v in value.items()]
                if isinstance(value, dict)
                else [(key, value, old[key])]
            )
            for name, now, then in pairs:
                delta[name] = delta.get(name, 0) + now - then
    return delta


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(
    *,
    workload: str,
    kinds: Sequence[str],
    analysis: Analysis,
    client_pid: int,
    counters: Dict[str, float],
    reference: Window,
    traced: Window,
    daemon_rss_mb: float,
    written_bytes: int,
    restart_recover_ms: float,
    wal_replay_ms: float,
    wal_replay_records: int,
    probe_ok: int,
    host_spin_ms: float,
) -> Dict[str, float]:
    """Every per-layer metric of one run.

    ``reference`` is the two untraced halves run around the traced
    window on the same deployment: latencies come from it, times inside
    the layers from the trace, counts from counters read around the
    traced window.  A layer the workload does not enter reports 0.
    """
    ops = max(1, analysis.ops)
    probes = analysis.probes

    def get(name: str) -> ProbeTotals:
        return probes.get(name, _NONE)

    def self_per_op(*names: str) -> float:
        return sum(get(n).self_ns for n in names) / ops

    def total_per_op(*names: str) -> float:
        return sum(get(n).total_ns for n in names) / ops

    def mean_total(name: str) -> float:
        totals = get(name)
        return totals.total_ns / totals.count if totals.count else 0.0

    def mean_self(name: str) -> float:
        totals = get(name)
        return totals.self_ns / totals.count if totals.count else 0.0

    ref = steady_metrics(reference)
    ref_whole = whole_window(reference)
    traced_rate = steady_metrics(traced)["ops_per_s"]
    requests = get(REQUEST_SPAN)
    daemon_requests = sum(
        totals.count
        for (pid, name), totals in analysis.by_pid.items()
        if name == REQUEST_SPAN and pid != client_pid
    )
    stores = ("persistence.object_store.put_many", "persistence.object_store.remove")
    unattributed = get(OP_SPAN).self_ns + requests.self_ns
    values = {
        "orb.marshal.encode_us_per_op": self_per_op(
            "orb.marshal.encode", "orb.marshal.prepare", "orb.marshal.fill"
        ) / 1e3,
        "orb.marshal.decode_us_per_op": self_per_op("orb.marshal.decode") / 1e3,
        "orb.marshal.bytes_encoded_per_op": counters["marshal.bytes_encoded"] / ops,
        "orb.marshal.bytes_reused_per_op": counters["marshal.bytes_saved"] / ops,
        "orb.marshal.encode_cache_hit_ratio": _ratio(
            counters["marshal.cache_hits"], counters["marshal.cache_misses"]
        ),
        "orb.marshal.context_snapshot_hit_ratio": _ratio(
            counters["marshal.context_hits"], counters["marshal.context_misses"]
        ),
        "orb.marshal.template_fills_per_op": counters["marshal.template_fills"] / ops,
        "orb.core.invoke_self_us_per_op": self_per_op("orb.core.invoke") / 1e3,
        "orb.core.dispatch_self_us_per_op": self_per_op("orb.core.dispatch") / 1e3,
        "orb.socket_transport.round_trip_us": (
            requests.self_ns / requests.count / 1e3 if requests.count else 0.0
        ),
        "orb.socket_transport.requests_per_op": requests.count / ops,
        "orb.socket_transport.bytes_per_op": (
            counters["bytes_sent"] / ops if requests.count else 0.0
        ),
        "orb.socket_transport.reconnects": counters["reconnects"],
        "core.context.send_us_per_op": total_per_op("core.context.send") / 1e3,
        "core.context.receive_us_per_op": total_per_op(
            "core.context.receive", "core.context.reply"
        ) / 1e3,
        "core.coordinator.process_signal_set_self_ms": mean_self(
            "core.coordinator.process_signal_set"
        ) / 1e6,
        "core.broadcast.broadcast_self_ms": mean_self("core.broadcast.broadcast") / 1e6,
        "core.coordinator.signals_per_op": get("core.broadcast.broadcast").count / ops,
        "core.coordinator.transmits_per_op": get("core.delivery.deliver").count / ops,
        "core.manager.begin_us": mean_total("core.manager.begin") / 1e3,
        "core.activity.complete_self_ms": mean_self("core.activity.complete") / 1e6,
        "ots.coordinator.commit_self_ms": mean_self("ots.coordinator.commit") / 1e6,
        "ots.coordinator.rollback_self_ms": mean_self("ots.coordinator.rollback") / 1e6,
        "ots.factory.create_us": mean_total("ots.factory.create") / 1e3,
        "ots.locks.acquire_us_per_op": total_per_op("ots.locks.acquire") / 1e3,
        "ots.recoverable.prepare_ms_per_op": total_per_op("ots.recoverable.prepare") / 1e6,
        "ots.recoverable.commit_ms_per_op": total_per_op("ots.recoverable.commit") / 1e6,
        "ots.interposition.adopt_ms": mean_total("ots.interposition.adopt") / 1e6,
        "ots.interposition.sub_prepare_ms": mean_total(
            "ots.coordinator.prepare_interposed"
        ) / 1e6,
        "ots.interposition.sub_commit_ms": mean_total(
            "ots.coordinator.commit_interposed"
        ) / 1e6,
        "ots.interposition.cross_site_requests_per_op": daemon_requests / ops,
        "persistence.wal.force_ms": mean_total("persistence.wal.force") / 1e6,
        "persistence.wal.forces_per_op": counters.get("wal_forces", 0) / ops,
        "persistence.wal.records_per_op": counters.get("wal_records", 0) / ops,
        "persistence.wal.append_self_us": mean_self("persistence.wal.append") / 1e3,
        "persistence.object_store.put_ms_per_op": self_per_op(
            "persistence.object_store.put", *stores
        ) / 1e6,
        "persistence.object_store.puts_per_op": sum(get(n).count for n in stores) / ops,
        "persistence.object_store.bytes_written_per_op": written_bytes / ops,
        "persistence.object_store.auto_compactions": counters.get("auto_compactions", 0),
        "persistence.object_store.compact_ms_total": get(
            "persistence.object_store.compact"
        ).total_ns / 1e6,
        "persistence.wal.replay_ms": wal_replay_ms,
        "persistence.wal.replay_records": wal_replay_records,
        "orb.site.restart_recover_ms": restart_recover_ms,
        "orb.site.daemon_cpu_us_per_op": ref["daemon_cpu_us_per_op"],
        "orb.site.daemon_rss_mb": daemon_rss_mb,
        "load.p99_ms": ref_whole["p99_ms"],
        "load.samples": reference.ok,
        "load.slice_spread_pct": ref_whole["slice_spread_pct"],
        "load.client_self_us_per_op": get(OP_SPAN).self_ns / ops / 1e3,
        "load.trace_overhead_pct": (ref["ops_per_s"] - traced_rate) / ref["ops_per_s"] * 100.0,
        "load.unattributed_share": unattributed / analysis.op_ns if analysis.op_ns else 0.0,
        "load.host_spin_ms": host_spin_ms,
        "load.concurrent_transfer_probe_ok": probe_ok,
    }
    by_kind = KIND_METRICS.get(workload, {})
    for metric in set().union(*(m.values() for m in KIND_METRICS.values())):
        values[metric] = 0.0
    for index, kind in enumerate(kinds):
        if kind in by_kind:
            values[by_kind[kind]] = kind_p50_ms(reference, index)
    return {metric.name: float(values[metric.name]) for metric in PER_LAYER}


def layer_budget(analysis: Analysis) -> List[Tuple[str, float]]:
    """Each layer's share of the client op time, largest first; the
    shares add up to 1 (tests/test_tracer.py)."""
    if not analysis.op_ns:
        return []
    shares = [
        (layer, self_ns / analysis.op_ns)
        for layer, self_ns in layer_self_ns(analysis).items()
    ]
    return sorted(shares, key=lambda item: -item[1])
