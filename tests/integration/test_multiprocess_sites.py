"""True fault tolerance: SIGKILL real site daemons mid-commit and recover.

Each test spawns the two-site bank (`repro.apps.site_apps`) as separate
OS processes via the process harness, drives a federated transfer from a
client transport, and kills a daemon at an armed protocol point — the
same fail-point names the in-process crash tests use, except here the
crash is a real ``SIGKILL`` and recovery must come entirely from the
on-disk WAL of the restarted process.

A transfer has one remote participant, site-b's subordinate, so site-a
commits with it as the *last agent*: site-a forces ``tx_delegated``,
site-b decides with one ``commit_one_phase`` and forces its decision,
and a site-a that lost the answer asks site-b for it.

Store parametrization: the WAL is always disk-backed (the site runtime
insists), but application cell state honours ``cell_store``.  With
``segmented`` cells the books must balance exactly after recovery; with
``memory`` cells the killed site's data is explicitly non-durable — the
protocol must still *converge* (no held in-doubt state, no stuck locks,
the surviving site consistent with the logged decision), which is
precisely the property the WAL owns.
"""

import os

import pytest

from repro.exceptions import CommunicationError
from repro.persistence import SegmentedFileStore, WriteAheadLog
from repro.testing import SiteCluster
from repro.testing.process_harness import wait_until

DESK = "site-a.bank"
BANK = "site-b.bank"


@pytest.fixture
def cluster_factory(tmp_path):
    clusters = []

    def build(cell_store="segmented", **extra):
        specs = {
            "site-a": {
                "app": "repro.apps.site_apps:transfer_desk_site",
                "cell_store": cell_store,
                **extra,
            },
            "site-b": {
                "app": "repro.apps.site_apps:bank_site",
                "cell_store": cell_store,
                **extra,
            },
        }
        cluster = SiteCluster(str(tmp_path / f"run{len(clusters)}"), specs)
        clusters.append(cluster)
        cluster.start()
        return cluster

    yield build
    for cluster in clusters:
        cluster.stop()


def balances(client):
    a = client.ref(DESK, "acct-1", "BankAccount").invoke("balance")
    b = client.ref(BANK, "acct-2", "BankAccount").invoke("balance")
    return a, b


def transfer_expecting_death(client, amount=10.0):
    desk = client.ref(DESK, "desk", "TransferDesk")
    with pytest.raises(CommunicationError):
        desk.invoke("transfer", "acct-1", BANK, "acct-2", amount)


def in_doubt_drained(client, site_id="site-b"):
    return not client.control(site_id, {"op": "resolve"})["outcomes"]


def nothing_active(client, site_id):
    """No live transaction left: the unprepared orphan of a dead root
    has been swept (after the site's ``orphan_min_age``)."""
    return not client.control(site_id, {"op": "debug_dump"})["active_transactions"]


def readmitted(client, by, peer):
    """``by``'s failure detector no longer quarantines ``peer``: while it
    does, requests to the (restarted) peer fail fast by design."""
    return peer not in client.control(by, {"op": "debug_dump"})["quarantined"]


def offline_log(cluster, site_id):
    """A dead site's WAL, read from its data directory."""
    root = os.path.join(cluster.root, site_id, "data", "wal")
    return WriteAheadLog(SegmentedFileStore(root)).records()


class TestHappyPath:
    def test_federated_transfer_across_processes(self, cluster_factory):
        cluster = cluster_factory()
        client = cluster.client()
        try:
            desk = client.ref(DESK, "desk", "TransferDesk")
            out = desk.invoke("transfer", "acct-1", BANK, "acct-2", 25.0)
            assert out == {"from_balance": 75.0, "to_balance": 125.0}
            assert balances(client) == (75.0, 125.0)
            status = client.control("site-a", {"op": "status"})
            assert status["recovered"] is True
            assert status["stats"]["requests_sent"] > 0
        finally:
            client.close()


class TestCoordinatorSigkill:
    @pytest.mark.parametrize("cell_store", ["segmented", "memory"])
    def test_killed_during_phase_two_recommits_on_restart(
        self, cluster_factory, cell_store
    ):
        """The last agent decided and committed; SIGKILL before site-a
        installs its own side."""
        cluster = cluster_factory(cell_store)
        client = cluster.client()
        try:
            client.control("site-a", {"op": "arm_kill", "point": "after_commit_log"})
            transfer_expecting_death(client)
            cluster["site-a"].wait_exit()
            assert not cluster["site-a"].alive()

            cluster["site-a"].restart()
            client.wait_ready("site-a")
            # The agent's decision stands; the restarted root asks for
            # it and installs its side.
            assert wait_until(
                lambda: client.ref(BANK, "acct-2", "BankAccount").invoke("balance")
                == 110.0
            ), cluster.debug_dump()
            if cell_store == "segmented":
                # Durable cells: the killed site's debit survives too.
                assert balances(client) == (90.0, 110.0)
            else:
                # Memory cells died with the process; protocol state
                # still converged (nothing held, fabric usable).
                assert in_doubt_drained(client)
            # site-b saw site-a die; new work crosses once its detector's
            # half-open probe has re-admitted the restarted peer.
            assert wait_until(
                lambda: readmitted(client, "site-b", "site-a")
            ), cluster.debug_dump()
            desk = client.ref(DESK, "desk", "TransferDesk")
            desk.invoke("transfer", "acct-1", BANK, "acct-2", 5.0)
        finally:
            client.close()

    @pytest.mark.parametrize("cell_store", ["segmented", "memory"])
    def test_killed_during_phase_one_presumes_abort(
        self, cluster_factory, cell_store
    ):
        """Local votes collected, SIGKILL before ``tx_delegated`` is
        logged: nothing durable anywhere.

        The subordinate on site-b was never asked to prepare, so it holds
        nothing in doubt; its own orphan sweep presumes abort, and the
        restarted root, which logged nothing, has nothing to resolve.
        """
        cluster = cluster_factory(cell_store, orphan_min_age=0.5)
        client = cluster.client()
        try:
            client.control("site-a", {"op": "arm_kill", "point": "before_commit_log"})
            transfer_expecting_death(client)
            cluster["site-a"].wait_exit()

            assert client.control("site-b", {"op": "resolve"})["outcomes"] == {}
            assert wait_until(lambda: nothing_active(client, "site-b")), cluster.debug_dump()

            cluster["site-a"].restart()
            client.wait_ready("site-a")
            assert wait_until(lambda: in_doubt_drained(client, "site-a")), cluster.debug_dump()
            assert balances(client) == (100.0, 100.0)
            # Locks released: the same accounts transfer cleanly.
            desk = client.ref(DESK, "desk", "TransferDesk")
            out = desk.invoke("transfer", "acct-1", BANK, "acct-2", 10.0)
            assert out == {"from_balance": 90.0, "to_balance": 110.0}
        finally:
            client.close()

    def test_killed_mid_commit_broadcast(self, cluster_factory):
        """The agent committed; SIGKILL in site-a's own install round,
        before its first participant's commit."""
        cluster = cluster_factory()
        client = cluster.client()
        try:
            client.control(
                "site-a", {"op": "arm_kill", "point": "before_commit_resource_0"}
            )
            transfer_expecting_death(client)
            cluster["site-a"].wait_exit()

            cluster["site-a"].restart()
            client.wait_ready("site-a")
            assert wait_until(
                lambda: balances(client) == (90.0, 110.0)
            ), cluster.debug_dump()
            assert in_doubt_drained(client)
        finally:
            client.close()

    def test_killed_between_delegation_and_reply_conserves_balances(
        self, cluster_factory
    ):
        """SIGKILL right after ``tx_delegated`` is forced, before the
        agent is called.  The restarted root holds its debit in doubt
        until site-b, having swept the unprepared orphan, answers rolled
        back; no money is created or lost."""
        cluster = cluster_factory(orphan_min_age=0.5)
        client = cluster.client()
        try:
            client.control("site-a", {"op": "arm_kill", "point": "after_delegation_log"})
            transfer_expecting_death(client)
            cluster["site-a"].wait_exit()
            records = offline_log(cluster, "site-a")
            assert [r.kind for r in records][-1:] == ["tx_delegated"]

            cluster["site-a"].restart()
            client.wait_ready("site-a")
            assert wait_until(
                lambda: in_doubt_drained(client, "site-a")
            ), cluster.debug_dump()
            assert balances(client) == (100.0, 100.0)
            assert nothing_active(client, "site-a") and nothing_active(client, "site-b")
            assert wait_until(lambda: readmitted(client, "site-b", "site-a"))
            desk = client.ref(DESK, "desk", "TransferDesk")
            out = desk.invoke("transfer", "acct-1", BANK, "acct-2", 10.0)
            assert out == {"from_balance": 90.0, "to_balance": 110.0}
        finally:
            client.close()


class TestOrphanedSubordinate:
    def test_readoption_after_both_sites_restart(self, cluster_factory):
        """Kill the root after its last agent committed, AND the agent;
        restart the agent first.  Its recovery recommits from its own
        decision (which names the root) and holds nothing; when the root
        comes back it asks the agent for the outcome and completes."""
        cluster = cluster_factory()
        client = cluster.client()
        try:
            client.control("site-a", {"op": "arm_kill", "point": "after_commit_log"})
            transfer_expecting_death(client)
            cluster["site-a"].wait_exit()
            cluster["site-b"].kill()

            # The agent restarts first, the root still down.
            cluster["site-b"].restart()
            client.wait_ready("site-b")
            assert client.control("site-b", {"op": "resolve"})["outcomes"] == {}
            assert client.ref(BANK, "acct-2", "BankAccount").invoke("balance") == 110.0

            cluster["site-a"].restart()
            client.wait_ready("site-a")
            assert wait_until(
                lambda: balances(client) == (90.0, 110.0)
            ), cluster.debug_dump()
            # The serve loop may still be logging the replay's completion.
            assert wait_until(lambda: in_doubt_drained(client, "site-a"))
        finally:
            client.close()


class TestCompletionTailLostToSigkill:
    def test_acked_balances_survive_and_the_tail_replays_once(self, cluster_factory):
        """SIGKILL both sites right after the last acknowledged transfer:
        each log holds only its forced records — site-a's
        ``tx_delegated``, site-b's decision — because every completion
        waited for a housekeeping checkpoint and died with the process.
        Restart shows the acknowledged balances (the unsynced installs
        survive a killed process), recovery completes exactly those
        transfers (site-a by asking site-b), and a second restart has
        nothing left to do."""
        # A poll interval longer than the test: no housekeeping round
        # checkpoints the completions before the kill.
        cluster = cluster_factory(poll_interval=60.0)
        client = cluster.client()
        try:
            desk = client.ref(DESK, "desk", "TransferDesk")
            for _ in range(3):
                desk.invoke("transfer", "acct-1", BANK, "acct-2", 10.0)
            assert balances(client) == (70.0, 130.0)

            forced = {"site-a": "tx_delegated", "site-b": "tx_commit_decision"}

            def bounce():
                for site_id in ("site-a", "site-b"):
                    cluster[site_id].kill()
                logs = {site_id: offline_log(cluster, site_id) for site_id in cluster.sites}
                for site_id in ("site-b", "site-a"):  # the agent first
                    cluster[site_id].restart()
                    client.wait_ready(site_id)
                # site-a's held tail resolves in its housekeeping round.
                assert wait_until(lambda: in_doubt_drained(client, "site-a"))
                return logs

            for site_id, records in bounce().items():
                decided = [r.payload["tid"] for r in records if r.kind == forced[site_id]]
                completed = [r.payload["tid"] for r in records if r.kind == "tx_completed"]
                assert len(decided) == 3
                assert completed == [], site_id  # all three were parked

            assert balances(client) == (70.0, 130.0)
            for site_id in cluster.sites:
                status = client.control(site_id, {"op": "status"})
                assert status["recovered"] and status["recovery_error"] is None
            assert in_doubt_drained(client)

            for round_ in ("first restart", "second restart"):
                for site_id, records in bounce().items():
                    decided = [r.payload["tid"] for r in records if r.kind == forced[site_id]]
                    completed = [r for r in records if r.kind == "tx_completed"]
                    assert [r.payload["tid"] for r in completed] == decided, (round_, site_id)
                    assert [bool(r.payload.get("recovered")) for r in completed] == [
                        True,
                        True,
                        True,
                    ], (round_, site_id)
                assert balances(client) == (70.0, 130.0)
        finally:
            client.close()
