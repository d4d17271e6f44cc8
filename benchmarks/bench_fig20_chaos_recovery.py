"""Figure 20 (extension) — failure detection and recovery latency.

Not a figure from the paper: the paper (§6) describes the HLS/OTS
recovery architecture but reports no failure-injection measurements.
This bench puts numbers on the chaos-hardened runtime using the
in-process :class:`~repro.chaos.world.ChaosWorld` under a simulated
clock, which makes every metric a *deterministic* function of the seed —
the regression gate can hold them to tight tolerances no wall-clock
bench could sustain.

Three measurements:

- **time-to-detect**: crash a domain mid-conversation and count
  simulated seconds until the bridge's phi-accrual detector latches the
  link DOWN (client probes keep arriving at the pre-crash cadence);
- **time-to-readmit / time-to-recover**: restart the dead domain and
  measure seconds until the half-open probe re-admits the link, and —
  in a second scenario where the *coordinator* dies before logging
  anything — until the survivor's subordinate has drained and the world
  is quiet again;
- **goodput under faults**: committed fraction across a seeded campaign
  sweep, with failure detection on vs off.

Results land in ``results/fig20.txt`` and ``results/BENCH_fig20.json``
(gated by ``check_bench_regression.py``).  Everything runs under the
simulated clock, so there is no quick mode: the full sweep costs well
under a second of wall time.
"""

from repro.chaos import CampaignConfig, run_campaign
from repro.chaos.world import ChaosWorld
from repro.exceptions import ReproError
from repro.orb.membership import PeerState
from repro.ots import SimulatedCrash

SEED = 20
GOODPUT_SEEDS = range(6)
PROBE_TICK = 0.1
ROUND_TICK = 0.25


def probe_transfer(world, op_id, amount=1.0):
    """One A->B federated transfer; True on commit, False on any abort.

    Each probe feeds the bridge's failure detector exactly like real
    client traffic: a routed success is a heartbeat, a routed failure
    is an explicit strike.
    """
    domain = world.domain("A")
    try:
        domain.current.begin()
        domain.accounts["a0"].withdraw(op_id, amount)
        world.account_ref("A", "B", "b0").invoke("deposit", op_id, amount)
        domain.current.commit()
        return True
    except ReproError:
        try:
            domain.current.rollback()
        except ReproError:
            pass
        return False


def ping(world, source="A", target="B"):
    """A non-transactional balance read across the bridge.

    Transactional traffic alone cannot re-admit a DOWN link: the
    half-open allowance is spent on the outer request, and the target's
    nested superior-registration callback then fast-fails on the same
    latched link, failing the probe itself.  Re-admission needs plain
    pings — the same reason the site daemons run a dedicated heartbeat
    round.
    """
    try:
        world.account_ref(source, target, "b0").invoke("balance")
        return True
    except ReproError:
        return False


def measure_detection():
    """Crash B under steady client traffic; clock the DOWN latch, then
    the half-open re-admission after restart."""
    world = ChaosWorld(seed=SEED)
    for i in range(5):  # establish the observed heartbeat cadence
        assert probe_transfer(world, f"warm{i}")
        world.clock.advance(PROBE_TICK)

    world.crash("B")
    crashed_at = world.clock.now()
    probes = 0
    while world.bridge.link_state("A", "B") is not PeerState.DOWN:
        probe_transfer(world, f"down{probes}")
        probes += 1
        world.clock.advance(PROBE_TICK)
        assert probes < 200, "detector never latched DOWN"
    detect_s = world.clock.now() - crashed_at

    world.restart("B")
    restarted_at = world.clock.now()
    rounds = 0
    while world.bridge.link_state("A", "B") is not PeerState.ALIVE:
        world.clock.advance(ROUND_TICK)
        ping(world)
        rounds += 1
        assert rounds < 200, "link never re-admitted"
    readmit_s = world.clock.now() - restarted_at
    assert world.quiesce()
    assert world.total_committed() == world.expected_total()
    return detect_s, probes, readmit_s


def measure_recovery():
    """Kill the coordinator after its local votes are gathered but
    *before* it logs anything; clock how long the survivor's subordinate
    takes to drain once the coordinator reboots.

    The subordinate is the transfer's only remote participant, so it is
    the coordinator's last agent and was never asked to prepare: it
    holds nothing in doubt, and its own orphan sweep (``min_age`` 0.5 s
    here) rolls it back — presumed abort — while the rebooted WAL holds
    no record to settle.
    """
    world = ChaosWorld(seed=SEED)
    assert probe_transfer(world, "warm")
    domain = world.domain("A")
    domain.factory.failpoints.arm("before_commit_log")
    try:
        domain.current.begin()
        domain.accounts["a0"].withdraw("indoubt", 5.0)
        world.account_ref("A", "B", "b0").invoke("deposit", "indoubt", 5.0)
        domain.current.commit()
        raise AssertionError("failpoint did not fire")
    except SimulatedCrash:
        world.crash("A")
    assert not world.is_quiet()  # B holds an unprepared, adopted branch

    world.restart("A")
    restarted_at = world.clock.now()
    rounds = 0
    while not world.is_quiet():
        world.clock.advance(ROUND_TICK)
        for name in world.domains:
            d = world.domain(name)
            if not d.recovered:
                d.recover()
            d.service.sweep_orphans(min_age=0.5)
            try:
                d.service.resolve_in_doubt()
            except ReproError:
                continue
        rounds += 1
        assert rounds < 200, "in-doubt state never drained"
    recover_s = world.clock.now() - restarted_at
    # No logged decision: presumed abort must win, and cleanly.
    assert world.total_committed() == world.expected_total()
    assert world.domain("B").accounts["b0"].committed_balance == 101.0
    return recover_s


def measure_goodput(failure_detection):
    committed = unknown = total = 0
    for seed in GOODPUT_SEEDS:
        result = run_campaign(
            seed, CampaignConfig(failure_detection=failure_detection)
        )
        counts = result.outcome_counts()
        committed += counts.get("committed", 0)
        unknown += counts.get("unknown", 0)
        total += len(result.ops)
    return committed / total, unknown, total


class TestFig20ChaosRecovery:
    def test_detection_recovery_and_goodput(self, emit):
        detect_s, detect_probes, readmit_s = measure_detection()
        recover_s = measure_recovery()
        goodput_on, unknown_on, total_on = measure_goodput(True)
        goodput_off, unknown_off, _ = measure_goodput(False)

        emit(
            "fig20",
            [
                "fig 20 — failure detection & recovery latency "
                "(simulated clock, deterministic):",
                f"  time-to-detect   {detect_s:6.2f} s"
                f"  ({detect_probes} failed probes to DOWN latch)",
                f"  time-to-readmit  {readmit_s:6.2f} s"
                "  (restart to half-open probe success)",
                f"  time-to-recover  {recover_s:6.2f} s"
                "  (coordinator reboot to in-doubt drained)",
                f"  goodput, fd on   {goodput_on:6.1%}"
                f"  ({unknown_on} unknown / {total_on} ops,"
                f" {len(list(GOODPUT_SEEDS))} seeds)",
                f"  goodput, fd off  {goodput_off:6.1%}"
                f"  ({unknown_off} unknown)",
            ],
            data={
                "detect_s": detect_s,
                "detect_probes": detect_probes,
                "readmit_s": readmit_s,
                "recover_s": recover_s,
                "goodput_fd_on": goodput_on,
                "goodput_fd_off": goodput_off,
                "unknown_fd_on": unknown_on,
                "campaign_ops": total_on,
            },
        )

        assert detect_s < 10.0
        assert recover_s < 10.0
        assert goodput_on > 0.4
