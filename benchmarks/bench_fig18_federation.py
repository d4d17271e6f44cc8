"""Figure 18 (extension) — federated deployments: coordinator interposition.

Not a figure from the paper, but its federated-deployment story made
concrete: an activity tree spanning coordination domains should cost one
inter-domain conversation per *domain* per protocol round, not one per
participant.  This bench sweeps domains x participants-per-domain x
inter-domain latency over the :class:`~repro.orb.federation.InterOrbBridge`
and compares:

- **direct** — a parent manager that is not installed on a federated
  ORB registers every remote participant straight with its coordinator
  (the pre-federation topology): cross-bridge sends grow
  O(domains x participants);
- **interposed** — the parent manager installed on its federated ORB,
  which always interposes: one subordinate coordinator per remote
  domain, built by that domain itself, relays locally, so
  cross-bridge sends are O(domains) and the simulated completion latency
  is dominated by one inter-domain hop per tree level, independent of
  the local fan-out behind each subordinate.

A second scenario drives the OTS twin (interposed subordinate
transactions over real recoverable cells) and sweeps the subordinate
domain's ``SegmentedFileStore.auto_compact_ratio`` under the checkpoint
churn this workload produces, recording the recommended default.

Results land in ``results/fig18.txt`` + ``results/BENCH_fig18.json``
(uploaded as a CI artifact).  ``BENCH_QUICK=1`` shrinks the sweep.
"""

import json
import os

import pytest

from repro.core import ActivityManager, RecordingAction
from repro.core.signals import Outcome
from repro.models.twopc import SET_NAME as TWOPC_SET, TwoPhaseCommitSignalSet
from repro.orb import InterOrbBridge, Orb
from repro.orb.reference import ObjectRef
from repro.ots import (
    RecoverableRegistry,
    TransactionCurrent,
    TransactionFactory,
    TransactionalCell,
    install_federated_transaction_service,
)
from repro.persistence import SegmentedFileStore, WriteAheadLog
from repro.util.clock import SimulatedClock
from repro.util.events import EventLog

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
DOMAIN_COUNTS = [2, 4] if QUICK else [2, 4, 8]
PARTICIPANTS_PER_DOMAIN = [4, 16] if QUICK else [4, 16, 64]
LINK_LATENCIES = [0.005] if QUICK else [0.0, 0.005, 0.020]
OTS_TRANSACTIONS = 40 if QUICK else 200
COMPACT_RATIOS = [None, 0.25, 0.5, 0.75]

RESULTS_JSON = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_fig18.json"
)


def _merge_json(payload):
    os.makedirs(os.path.dirname(RESULTS_JSON), exist_ok=True)
    existing = {}
    if os.path.exists(RESULTS_JSON):
        try:
            with open(RESULTS_JSON) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
    existing.update(payload)
    with open(RESULTS_JSON, "w") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)


@pytest.fixture(scope="module", autouse=True)
def _fresh_json():
    if os.path.exists(RESULTS_JSON):
        os.remove(RESULTS_JSON)
    yield


def rebind(ref, orb):
    return ObjectRef(ref.node_id, ref.object_id, ref.interface).bind(orb)


def vote_reply(signal):
    return Outcome.of(
        "vote_commit" if signal.signal_name == "prepare" else "done"
    )


def run_broadcast(domains, per_domain, latency, interposed):
    """One federated 2PC broadcast; returns (link sends, simulated secs)."""
    clock = SimulatedClock()
    bridge = InterOrbBridge()
    orbs = []
    for index in range(domains):
        orb = Orb(clock=clock)
        bridge.connect(orb, f"d{index}")
        orbs.append(orb)
    parent = ActivityManager(clock=clock, event_log=EventLog(max_events=1_024).attach())
    if interposed:
        parent.install(orbs[0])
    for index in range(1, domains):
        remote = ActivityManager(clock=clock, event_log=EventLog(max_events=1_024).attach())
        remote.install(orbs[index])
    nodes = [orb.create_node(f"node-{i}") for i, orb in enumerate(orbs)]
    activity = parent.begin(name="fig18")
    activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
    for domain in range(1, domains):
        for i in range(per_domain):
            ref = nodes[domain].activate(
                RecordingAction(f"d{domain}p{i}", reply=vote_reply),
                object_id=f"p{domain}-{i}",
            )
            activity.add_action(TWOPC_SET, rebind(ref, orbs[0]))
    for domain in range(1, domains):
        bridge.set_link_latency("d0", f"d{domain}", latency)
    bridge.reset_link_stats()
    begin = clock.now()
    outcome = activity.complete()
    assert outcome.name == "committed"
    return bridge.cross_domain_requests(), clock.now() - begin


class TestFig18InterpositionFlattensTraffic:
    def test_sends_o_domains_not_o_participants(self, emit):
        latency = LINK_LATENCIES[0]
        rows = []
        for domains in DOMAIN_COUNTS:
            for per_domain in PARTICIPANTS_PER_DOMAIN:
                direct_sends, direct_secs = run_broadcast(
                    domains, per_domain, latency, interposed=False
                )
                interposed_sends, interposed_secs = run_broadcast(
                    domains, per_domain, latency, interposed=True
                )
                remote_domains = domains - 1
                # Exact contracts: 2 rounds (prepare + commit), one send
                # per remote participant vs one per remote domain.
                assert direct_sends == 2 * remote_domains * per_domain
                assert interposed_sends == 2 * remote_domains
                rows.append(
                    {
                        "domains": domains,
                        "per_domain": per_domain,
                        "latency_ms": latency * 1e3,
                        "direct_sends": direct_sends,
                        "interposed_sends": interposed_sends,
                        "send_ratio": direct_sends / interposed_sends,
                        "direct_sim_ms": direct_secs * 1e3,
                        "interposed_sim_ms": interposed_secs * 1e3,
                    }
                )
        emit(
            "fig18",
            [
                "fig 18 — cross-bridge sends per federated 2PC "
                f"(link latency {latency * 1e3:.0f} ms):",
                "  domains  per_domain  direct  interposed  ratio"
                "  direct_ms  interposed_ms",
            ]
            + [
                f"  {row['domains']:7d}  {row['per_domain']:10d}"
                f"  {row['direct_sends']:6d}  {row['interposed_sends']:10d}"
                f"  {row['send_ratio']:5.1f}  {row['direct_sim_ms']:9.1f}"
                f"  {row['interposed_sim_ms']:13.1f}"
                for row in rows
            ],
        )
        _merge_json({"broadcast_sweep": rows})
        # Acceptance: >= 5x fewer cross-bridge sends at 4 domains x 16
        # participants (exact contract gives (2*3*16)/(2*3) = 16x).
        pivotal = next(
            row
            for row in rows
            if row["domains"] == 4 and row["per_domain"] == 16
        )
        assert pivotal["send_ratio"] >= 5.0
        # Interposed sends are flat in participants-per-domain.
        for domains in DOMAIN_COUNTS:
            sends = {
                row["per_domain"]: row["interposed_sends"]
                for row in rows
                if row["domains"] == domains
            }
            assert len(set(sends.values())) == 1

    def test_latency_dominated_by_one_hop_per_level(self, emit):
        domains = DOMAIN_COUNTS[-1]
        rows = []
        for latency in LINK_LATENCIES:
            for per_domain in PARTICIPANTS_PER_DOMAIN:
                _, interposed_secs = run_broadcast(
                    domains, per_domain, latency, interposed=True
                )
                rows.append(
                    {
                        "latency_ms": latency * 1e3,
                        "per_domain": per_domain,
                        "interposed_sim_ms": interposed_secs * 1e3,
                    }
                )
        emit(
            "fig18",
            [
                f"fig 18 — simulated completion latency, {domains} domains,"
                " interposition on:",
                "  latency_ms  per_domain  completion_ms",
            ]
            + [
                f"  {row['latency_ms']:10.1f}  {row['per_domain']:10d}"
                f"  {row['interposed_sim_ms']:13.1f}"
                for row in rows
            ],
        )
        _merge_json({"latency_sweep": rows})
        for latency in LINK_LATENCIES:
            times = {
                row["per_domain"]: row["interposed_sim_ms"]
                for row in rows
                if row["latency_ms"] == latency * 1e3
            }
            # Flat in local fan-out: the inter-domain hops are the bill.
            assert len(set(times.values())) == 1
            if latency > 0:
                # 2 rounds x (domains-1) subordinate conversations x
                # request+reply on the link: one hop per level, per round.
                expected_ms = 2 * (domains - 1) * 2 * latency * 1e3
                assert times[PARTICIPANTS_PER_DOMAIN[0]] == pytest.approx(
                    expected_ms, rel=0.01
                )


def run_ots_churn(tmp_path, ratio, transactions):
    """Federated OTS commits against a segmented subordinate store."""
    clock = SimulatedClock()
    bridge = InterOrbBridge()
    orb_a, orb_b = Orb(clock=clock), Orb(clock=clock)
    bridge.connect(orb_a, "A")
    bridge.connect(orb_b, "B")
    tag = "none" if ratio is None else str(ratio).replace(".", "_")
    store_b = SegmentedFileStore(
        tmp_path / f"cells-{tag}",
        # Small segments, so the churn rolls them over: the ratio is
        # only looked at when a segment fills.
        segment_bytes=1024,
        auto_compact_ratio=ratio,
    )
    factory_a = TransactionFactory(clock=clock)
    factory_b = TransactionFactory(
        clock=clock,
        wal=WriteAheadLog(
            SegmentedFileStore(tmp_path / f"wal-{tag}"), "wal"
        ),
    )
    current_a = TransactionCurrent(factory_a)
    current_b = TransactionCurrent(factory_b)
    install_federated_transaction_service(orb_a, current_a, registry=RecoverableRegistry())
    registry_b = RecoverableRegistry()
    install_federated_transaction_service(orb_b, current_b, registry=registry_b)
    cell = TransactionalCell(
        "hot", 0, factory_b, store=store_b, registry=registry_b
    )

    class Bank:
        def deposit(self, amount):
            tx = current_b.get_transaction()
            cell.write(tx, cell.read(tx) + amount)
            return True

    node_b = orb_b.create_node("b1")
    ref = rebind(node_b.activate(Bank(), object_id="bank"), orb_a)
    import time

    begin = time.perf_counter()
    for _ in range(transactions):
        current_a.begin()
        ref.invoke("deposit", 1)
        current_a.commit()
    elapsed = time.perf_counter() - begin
    assert cell.committed_value == transactions
    live = len(store_b.keys())
    total_records = getattr(store_b, "_records_written", live)
    return {
        "ratio": "off" if ratio is None else ratio,
        "elapsed_ms": elapsed * 1e3,
        "auto_compactions": store_b.auto_compactions,
        "live_records": live,
        "dead_records": max(0, total_records - live),
    }


class TestFig18SubordinateStoreChurn:
    def test_auto_compact_ratio_recommendation(self, emit, tmp_path):
        rows = [
            run_ots_churn(tmp_path, ratio, OTS_TRANSACTIONS)
            for ratio in COMPACT_RATIOS
        ]
        emit(
            "fig18",
            [
                "fig 18 — subordinate-domain store churn "
                f"({OTS_TRANSACTIONS} federated commits, prepared-key"
                " write+remove per tx):",
                "  ratio  elapsed_ms  auto_compactions  live  dead",
            ]
            + [
                f"  {str(row['ratio']):>5}  {row['elapsed_ms']:10.1f}"
                f"  {row['auto_compactions']:16d}  {row['live_records']:4d}"
                f"  {row['dead_records']:4d}"
                for row in rows
            ]
            + [
                "  recommendation: auto_compact_ratio=0.5 — the ratio is"
                " checked when a segment rolls over, so it bounds dead"
                " records at one segment of churn; a hot-key store like"
                " this one is past any ratio by then, a cooler one keeps"
                " at most as many dead frames as live ones",
            ],
        )
        _merge_json({"store_churn": rows, "recommended_auto_compact_ratio": 0.5})
        by_ratio = {row["ratio"]: row for row in rows}
        # Compaction keeps the dead-record population bounded vs. off.
        assert by_ratio[0.5]["dead_records"] <= by_ratio["off"]["dead_records"]
        assert by_ratio[0.5]["auto_compactions"] >= 1
        # Tighter ratios compact at least as often (the thrash axis).
        assert (
            by_ratio[0.25]["auto_compactions"]
            >= by_ratio[0.5]["auto_compactions"]
        )
