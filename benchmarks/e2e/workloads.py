"""The five workloads: what each deploys, sends and checks.

Every workload is one closed-loop client: ``next_op`` draws the next
operation from the run's :class:`SeededRng` (the program under test only
ever sees the generated inputs), ``execute`` performs it and says
whether the reply was the correct one.  ``setup`` boots the deployment
and ends with a fixed-count warm-up; ``audit`` is the end-of-run
correctness and durability check.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.apps.site_apps import bank_node_id
from repro.config import RuntimeConfig
from repro.core import (
    ActivityManager,
    CompletionStatus,
    NestedVisibility,
    Propagation,
    PropertyGroup,
    PropertyGroupManager,
)
from repro.core.signals import Signal
from repro.models.saga import Saga
from repro.models.twopc import SET_NAME, TwoPhaseCommitSignalSet, TwoPhaseParticipant
from repro.orb.core import Orb, RemoteApplicationError, Servant
from repro.persistence.object_store import SegmentedFileStore
from repro.persistence.wal import WriteAheadLog
from repro.testing import SiteCluster
from repro.util.events import EventLog
from repro.util.retry import RetryPolicy
from repro.util.rng import SeededRng

import site_hooks

E2E_DIR = os.path.dirname(os.path.abspath(__file__))

WARMUP_OPS = 200  # fixed count, part of setup_s
CALL_TIMEOUT_S = 10.0  # a single client call (a sizing run hung on a deadlock)
READY_TIMEOUT_S = 30.0


PROBE_THREADS = 2
PROBE_TRANSFERS = 50  # per thread
PROBE_WATCHDOG_S = 10.0


class Audit(NamedTuple):
    problems: List[str]  # empty when the run's end state is correct
    restart_recover_ms: float = 0.0
    wal_replay_ms: float = 0.0
    wal_replay_records: int = 0
    concurrent_probe_ok: int = 0


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    why = ""
    kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = SeededRng(seed).fork(self.name)
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> Any:
        raise NotImplementedError

    def execute(self, spec: Any) -> Tuple[int, bool]:
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(WARMUP_OPS):
            spec = self.next_op()
            _, correct = self.execute(spec)
            if not correct:
                raise RuntimeError(f"{self.name}: wrong result in warm-up for {spec!r}")

    def audit(self, probe: bool = False) -> Audit:
        """End-of-run check; ``probe`` also runs the report-only
        known-defect probe where the workload has one."""
        return Audit([])

    def teardown(self) -> None:
        raise NotImplementedError

    def abort(self) -> None:
        """Watchdog hook: make whatever ``execute`` is blocked in fail."""

    def debug_dump(self) -> str:
        return ""

    # -- observation -------------------------------------------------------

    def daemon_pids(self) -> List[int]:
        return []

    def counters(self) -> List[Dict[str, Any]]:
        """One counter block per process, the client's first."""
        raise NotImplementedError

    def trace_start(self) -> None:
        """Turn tracing on inside the daemons (the harness traces the
        client process itself)."""

    def trace_stop(self) -> List[Tuple[int, bytes]]:
        """``(pid, span bytes)`` per daemon."""
        return []


def _client_counters(stats: Any) -> Dict[str, Any]:
    return {
        "pid": os.getpid(),
        "marshal": stats.marshal.snapshot(),
        "requests_sent": stats.requests_sent,
        "bytes_sent": stats.bytes_sent,
        "reconnects": stats.reconnects,
    }


# -- activity_mix ----------------------------------------------------------------


class StepWorker(Servant):
    """One saga step's remote work and its compensation."""

    def __init__(self, journal: List[Tuple[str, str]]) -> None:
        self._journal = journal

    def work(self, step: str, fail: bool) -> str:
        if fail:
            raise ValueError(f"step {step} fails as scheduled")
        self._journal.append(("work", step))
        return step

    def undo(self, step: str) -> str:
        self._journal.append(("undo", step))
        return step


class ActivityMix(Workload):
    name = "activity_mix"
    why = (
        "the paper's own mechanism in one process (signals, signal sets, actions, "
        "compensation): core.*, models and small-payload orb.marshal work; sockets, "
        "ots and persistence do none"
    )
    kinds = ("twopc_commit", "twopc_rollback", "saga_success", "saga_compensate")
    NODES = 8
    SAGA_STEPS = 6

    def setup(self) -> None:
        # Bounded like a site daemon's log, so memory does not grow with
        # the number of operations a run happens to complete.
        self.orb = Orb(event_log=EventLog(max_events=site_hooks.EVENT_LOG_BOUND))
        self.manager = ActivityManager(
            clock=self.orb.clock,
            config=RuntimeConfig(max_events=site_hooks.EVENT_LOG_BOUND),
        )
        self.manager.install(self.orb)
        self.nodes = [self.orb.create_node(f"n{i}") for i in range(self.NODES)]
        self.journal: List[Tuple[str, str]] = []
        self.workers = [
            node.activate(StepWorker(self.journal), object_id="worker")
            for node in self.nodes[: self.SAGA_STEPS]
        ]
        self._objects_at_rest = self._object_count()
        self.warm_up()

    def _object_count(self) -> int:
        return sum(len(node.object_ids()) for node in self.nodes)

    def next_op(self) -> Tuple[int, int]:
        draw = self.rng.random()
        kind = 0 if draw < 0.6 else 1 if draw < 0.7 else 2 if draw < 0.9 else 3
        return kind, self.rng.randint(0, self.NODES - 1)

    def execute(self, spec: Tuple[int, int]) -> Tuple[int, bool]:
        kind, pivot = spec
        if kind < 2:
            return kind, self._two_phase(no_voter=pivot if kind == 1 else None)
        return kind, self._saga(fail=kind == 3)

    def _two_phase(self, no_voter: Optional[int]) -> bool:
        current = self.manager.current
        activity = current.begin("twopc")
        activity.register_signal_set(TwoPhaseCommitSignalSet(), completion=True)
        participants = []
        refs = []
        for index, node in enumerate(self.nodes):
            votes_no = index == no_voter
            participant = TwoPhaseParticipant(
                f"p{index}", on_prepare=(lambda: False) if votes_no else None
            )
            ref = node.activate(participant)
            activity.add_action(SET_NAME, ref)
            participants.append(participant)
            refs.append(ref)
        try:
            outcome = current.complete(CompletionStatus.SUCCESS)
        finally:
            for node, ref in zip(self.nodes, refs):
                node.deactivate(ref.object_id)
        if no_voter is None:
            return outcome.name == "committed" and all(
                p.committed and not p.rolled_back for p in participants
            )
        # Prepare is abandoned at the no-voter; everyone is told to roll
        # back, and nobody may have committed.
        return (
            outcome.name == "rolled_back"
            and not any(p.committed for p in participants)
            and all(p.rolled_back for p in participants)
            and [p.prepared for p in participants] == [False] * len(participants)
        )

    def _saga(self, fail: bool) -> bool:
        del self.journal[:]
        saga = Saga(self.manager, name="mix")
        last = self.SAGA_STEPS - 1
        for index, worker in enumerate(self.workers):
            step = f"s{index}"
            saga.add_step(
                step,
                work=lambda ctx, w=worker, s=step, f=fail and index == last: w.invoke(
                    "work", s, f
                ),
                compensation=lambda ctx, w=worker, s=step: w.invoke("undo", s),
            )
        result = saga.run()
        steps = [f"s{i}" for i in range(self.SAGA_STEPS)]
        if not fail:
            return (
                result.succeeded
                and result.completed == steps
                and not result.compensated
                and self.journal == [("work", s) for s in steps]
            )
        done = steps[:last]
        return (
            result.failed_step == steps[last]
            and result.completed == done
            and result.compensated == done[::-1]
            and self.journal
            == [("work", s) for s in done] + [("undo", s) for s in done[::-1]]
        )

    def audit(self, probe: bool = False) -> Audit:
        problems = []
        if self.manager.begun != self.manager.completed:
            problems.append(
                f"{self.manager.begun} activities begun, {self.manager.completed} completed"
            )
        if self.manager.active_activities():
            problems.append("activities still active at the end of the run")
        if self._object_count() != self._objects_at_rest:
            problems.append("servants leaked: ORB object tables grew")
        return Audit(problems)

    def teardown(self) -> None:
        self.orb = self.manager = self.nodes = self.workers = None  # type: ignore[assignment]

    def counters(self) -> List[Dict[str, Any]]:
        return [_client_counters(self.orb.transport.stats)]


# -- socket workloads --------------------------------------------------------------


class SocketWorkload(Workload):
    """Shared deployment handling for the workloads over site daemons."""

    def site_specs(self) -> Dict[str, Dict[str, Any]]:
        raise NotImplementedError

    def connect(self) -> None:
        """Build the client-side objects against a ready cluster."""

    def setup(self) -> None:
        # The daemons import site_hooks (and tracer) from this directory.
        paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if E2E_DIR not in paths:
            os.environ["PYTHONPATH"] = os.pathsep.join([E2E_DIR] + [p for p in paths if p])
        self.root = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        self.cluster = SiteCluster(self.root, self.site_specs())
        self.cluster.start(timeout=READY_TIMEOUT_S)
        self.client = self._new_client()
        self.connect()
        self.warm_up()

    def _new_client(self) -> Any:
        client = self.cluster.client("bench-client")
        # Every call is bounded: a timeout surfaces as one failed op.
        client.transport.request_timeout = CALL_TIMEOUT_S
        client.transport.retry_policy = RetryPolicy(max_attempts=1)
        return client

    def bench_refs(self) -> List[Any]:
        return [
            self.client.ref(
                site_hooks.bench_node_id(site), site_hooks.BENCH_OBJECT, "BenchServant"
            )
            for site in self.cluster.sites
        ]

    def teardown(self) -> None:
        if getattr(self, "cluster", None) is None:
            return
        try:
            if getattr(self, "client", None) is not None:
                self.client.close()
        finally:
            self.abort()
            shutil.rmtree(self.root, ignore_errors=True)
            self.cluster = self.client = None

    def abort(self) -> None:
        # The data directory is thrown away, so there is nothing a clean
        # shutdown would save: SIGKILL and reap.
        for site in self.cluster.sites.values():
            site.kill()

    def debug_dump(self) -> str:
        return self.cluster.debug_dump()

    def daemon_pids(self) -> List[int]:
        return [site.pid for site in self.cluster.sites.values()]

    def counters(self) -> List[Dict[str, Any]]:
        return [_client_counters(self.client.transport.stats)] + [
            ref.invoke("counters") for ref in self.bench_refs()
        ]

    def trace_start(self) -> None:
        for ref in self.bench_refs():
            ref.invoke("trace_start")

    def trace_stop(self) -> List[Tuple[int, bytes]]:
        return [tuple(ref.invoke("trace_stop")) for ref in self.bench_refs()]


class InvokeStable(SocketWorkload):
    name = "invoke_stable"
    why = (
        "one socket hop carrying a 13 kB activity context that never changes: "
        "orb.marshal, orb.core, orb.socket_transport and core.context with every "
        "snapshot/encode cache hitting; no transactions, no disk"
    )
    kinds = ("invoke",)
    GROUPS = 8
    KEYS_PER_GROUP = 24
    VALUE_BYTES = 48
    churn = False

    def site_specs(self) -> Dict[str, Dict[str, Any]]:
        return {"site-a": {"app": "site_hooks:echo_site", "data_dir": None}}

    def connect(self) -> None:
        groups = PropertyGroupManager()
        for g in range(self.GROUPS):
            groups.register_factory(
                f"pg{g}",
                lambda g=g: PropertyGroup(
                    f"pg{g}",
                    visibility=NestedVisibility.SCOPED,
                    propagation=Propagation.VALUE,
                    initial={
                        f"k{i}": f"{g}:{i}:" + "x" * self.VALUE_BYTES
                        for i in range(self.KEYS_PER_GROUP)
                    },
                ),
            )
        manager = ActivityManager(
            clock=self.client.orb.clock,
            property_groups=groups,
            config=RuntimeConfig(max_events=site_hooks.EVENT_LOG_BOUND),
        )
        manager.install(self.client.orb)
        self.activity = manager.current.begin("bench")
        self.churned = self.activity.get_property_group("pg0")
        self.echo = self.client.ref(
            site_hooks.echo_node_id("site-a"), site_hooks.ECHO_OBJECT, "EchoAction"
        )
        self.signal = Signal("notify", "bench", {"seq": 1})
        self.sent = 0

    def next_op(self) -> int:
        self.sent += 1
        return self.sent

    def execute(self, spec: int) -> Tuple[int, bool]:
        if self.churn:
            self.churned.set_property("k0", f"{spec:0{self.VALUE_BYTES}d}")
        delivery_id = f"d{spec}"
        outcome = self.echo.invoke(
            "process_signal", self.signal.with_delivery_id(delivery_id)
        )
        return 0, outcome.is_done and outcome.data == delivery_id


class InvokeChurn(InvokeStable):
    name = "invoke_churn"
    why = (
        "the same hop with one context key rewritten before each call, so the "
        "snapshot and encode caches miss for that group: the miss path beside "
        "invoke_stable's hit path"
    )
    churn = True


class LocalTransfer(SocketWorkload):
    name = "local_transfer"
    why = (
        "single-node baseline: one socket hop, then a logged 2PC over two cells on "
        "one site; ots.coordinator, ots.recoverable, persistence.wal and "
        "persistence.object_store dominate, ots.interposition is idle"
    )
    kinds = ("commit", "overdraft")
    OVERDRAFT_SHARE = 0.10
    DESK_SITE = "site-a"
    TARGET_SITE = "site-a"  # where the credited account lives
    SITE_APPS = {"site-a": "site_hooks:desk_site"}
    HAS_PROBE = True

    def site_specs(self) -> Dict[str, Dict[str, Any]]:
        return {
            site: {"app": app, "cell_store": "segmented"}
            for site, app in self.SITE_APPS.items()
        }

    def connect(self) -> None:
        self.desk_node = bank_node_id(self.DESK_SITE)
        self.desk = self.client.ref(
            self.desk_node, site_hooks.DESK_OBJECT, "TransferDesk"
        )
        # (debited account on the desk site, credited node, credited account)
        target = bank_node_id(self.TARGET_SITE)
        self.routes = [("acct-1", target, "acct-2"), ("acct-2", target, "acct-1")]
        self.expected = {
            (bank_node_id(site), key): site_hooks.OPENING_BALANCE
            for site in self.SITE_APPS
            for key in site_hooks.ACCOUNTS
        }

    def next_op(self) -> Tuple[str, str, str, float]:
        source, node, target = self.rng.choice(self.routes)
        if self.rng.chance(self.OVERDRAFT_SHARE):
            return source, node, target, 2 * site_hooks.OPENING_BALANCE
        return source, node, target, float(self.rng.randint(1, 9))

    def execute(self, spec: Tuple[str, str, str, float]) -> Tuple[int, bool]:
        source, node, target, amount = spec
        if amount > site_hooks.OPENING_BALANCE:
            # A scheduled overdraft must abort; committing it is the failure.
            try:
                self.desk.invoke("transfer", source, node, target, amount)
            except RemoteApplicationError as exc:
                return 1, exc.type_name == "ValueError"
            return 1, False
        reply = self.desk.invoke("transfer", source, node, target, amount)
        self.expected[(self.desk_node, source)] -= amount
        self.expected[(node, target)] += amount
        return 0, reply == {
            "from_balance": self.expected[(self.desk_node, source)],
            "to_balance": self.expected[(node, target)],
        }

    def _balance_problems(self, stage: str) -> List[str]:
        problems = []
        total = 0.0
        for (node, key), want in self.expected.items():
            have = self.client.ref(node, key, "BankAccount").invoke("balance")
            total += have
            if have != want:
                problems.append(f"{stage}: {node}/{key} holds {have}, expected {want}")
        if total != site_hooks.OPENING_BALANCE * len(self.expected):
            problems.append(f"{stage}: money not conserved, total {total}")
        return problems

    def audit(self, probe: bool = False) -> Audit:
        """Balances live, then from disk alone after SIGKILLing every
        daemon right behind the last acknowledged operation."""
        problems = self._balance_problems("live")
        killed_at = time.perf_counter()
        self.abort()
        self.client.close()
        for site in self.cluster.sites.values():
            site.restart()
        self.client = self._new_client()
        for site_id in self.cluster.sites:
            self.client.wait_ready(site_id, timeout=READY_TIMEOUT_S)
        after_restart = self._balance_problems("after SIGKILL + restart")
        recover_ms = (time.perf_counter() - killed_at) * 1000.0
        probe_ok = self.concurrent_probe() if probe and self.HAS_PROBE else 0
        self.abort()
        replay_begin = time.perf_counter()
        records = 0
        for site_id in self.cluster.sites:
            wal_dir = os.path.join(self.root, site_id, "data", "wal")
            records += len(WriteAheadLog(SegmentedFileStore(wal_dir)).records())
        replay_ms = (time.perf_counter() - replay_begin) * 1000.0
        return Audit(
            problems + after_restart, recover_ms, replay_ms, records, probe_ok
        )

    def concurrent_probe(self) -> int:
        """Report-only: do two clients transferring between disjoint
        accounts of one desk site all commit?  (README, "Known defects".)"""
        node = self.desk_node
        committed = [0] * PROBE_THREADS
        clients = [self.cluster.client(f"probe-{i}") for i in range(PROBE_THREADS)]

        def transfer_loop(index: int) -> None:
            source, target = site_hooks.ACCOUNTS[2 * index : 2 * index + 2]
            desk = clients[index].ref(node, site_hooks.DESK_OBJECT, "TransferDesk")
            try:
                for _ in range(PROBE_TRANSFERS):
                    desk.invoke("transfer", source, node, target, 1.0)
                    committed[index] += 1
            except Exception:  # noqa: BLE001 - any failure answers the probe
                pass

        threads = [
            threading.Thread(target=transfer_loop, args=(i,), daemon=True)
            for i in range(PROBE_THREADS)
        ]
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + PROBE_WATCHDOG_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.perf_counter()))
        if any(thread.is_alive() for thread in threads):
            self.abort()  # unblocks a deadlocked pair: their sockets die
            for thread in threads:
                thread.join(CALL_TIMEOUT_S)
        for client in clients:
            client.close()
        return int(sum(committed) == PROBE_THREADS * PROBE_TRANSFERS)


class FederatedTransfer(LocalTransfer):
    name = "federated_transfer"
    why = (
        "the headline path: a cross-process 2PC with coordinator interposition and "
        "forced log records on both sites; minus local_transfer it is interposition "
        "+ cross-site round trips + the second site's forces"
    )
    TARGET_SITE = "site-b"
    SITE_APPS = {"site-a": "site_hooks:desk_site", "site-b": "site_hooks:bank_site"}
    HAS_PROBE = False


WORKLOADS = {
    cls.name: cls
    for cls in (ActivityMix, InvokeStable, InvokeChurn, LocalTransfer, FederatedTransfer)
}
