"""Last-agent commit: a root whose only remote participant is one
subordinate hands it the decision with one ``commit_one_phase``.

The root forces ``tx_delegated`` (its cells' intentions and the agent's
recovery key) before the call; the agent forces one decision naming the
root.  These tests walk the failure cases: either side crashing between
those forces and the reply, the agent voting no, a lost reply to the
request that adopted the transaction, and a retried adopting request.
"""

import threading

import pytest

from repro.chaos import ChaosWorld
from repro.exceptions import CommunicationError
from repro.orb.federation import coordination_node_id
from repro.ots import HeuristicHazard, SimulatedCrash, TransactionRolledBack
from repro.ots.interposition import RECOVERY_SERVANT_ID, subordinate_recovery_key
from repro.ots.status import TransactionStatus


def world():
    built = ChaosWorld(seed=3, failure_detection=False)
    built.clock.advance(1.0)
    return built


def begin_transfer(world, op_id="op1", amount=5.0):
    """A->B under A's transaction, not yet committed."""
    a = world.domain("A")
    tx = a.current.begin()
    a.accounts["a0"].withdraw(op_id, amount)
    world.account_ref("A", "B", "b0").invoke("deposit", op_id, amount)
    return tx


def commit_expecting(world, exc_type):
    with pytest.raises(exc_type):
        world.domain("A").current.commit()


def balances(world):
    return world.domain("A").accounts["a0"].committed_balance, world.domain(
        "B"
    ).accounts["b0"].committed_balance


def kinds(domain):
    domain.wal.force()
    return [record.kind for record in domain.wal.records()]


class TestRootCrash:
    def test_crash_before_the_call_recovers_rolled_back(self):
        w = world()
        tx = begin_transfer(w)
        w.domain("A").factory.failpoints.arm("after_delegation_log")
        commit_expecting(w, SimulatedCrash)
        w.crash("A")
        assert w.restart("A") is None
        a = w.domain("A")
        assert a.accounts["a0"].cell.list_in_doubt() == [tx.tid]  # held, not presumed
        # The agent never got the call: its subordinate is unprepared.
        assert a.service.resolve_in_doubt() == {tx.tid: "held"}
        assert w.domain("B").service.sweep_orphans(min_age=0.0) == [tx.tid]
        assert a.service.resolve_in_doubt() == {tx.tid: "aborted"}
        assert a.accounts["a0"].cell.list_in_doubt() == []
        assert balances(w) == (100.0, 100.0)
        assert w.quiesce()
        assert w.total_committed() == w.expected_total()

    def test_crash_after_the_agent_committed_recovers_committed(self):
        w = world()
        tx = begin_transfer(w)
        # Fires once the agent has answered, before the root installs.
        w.domain("A").factory.failpoints.arm("after_commit_log")
        commit_expecting(w, SimulatedCrash)
        w.crash("A")
        assert balances(w) == (100.0, 105.0)
        assert w.restart("A") is None
        a = w.domain("A")
        assert a.service.resolve_in_doubt() == {tx.tid: "committed"}
        assert balances(w) == (95.0, 105.0)
        # The replayed completion is forced: a second crash asks nothing.
        w.crash("A")
        assert w.restart("A") is None
        assert w.domain("A").service.resolve_in_doubt() == {}
        assert w.quiesce()
        assert w.total_committed() == w.expected_total()


    def test_concurrent_rounds_settle_a_recovered_delegation_once(self):
        w = world()
        tx = begin_transfer(w)
        w.domain("A").factory.failpoints.arm("after_commit_log")
        commit_expecting(w, SimulatedCrash)
        w.crash("A")
        assert w.restart("A") is None
        a = w.domain("A")
        # The agent's answer blocks until released, so a second round
        # runs while the first is settling the same delegation.
        servant = w.domain("B").orb.node(coordination_node_id("B")).servant(RECOVERY_SERVANT_ID)
        plain = servant.agent_status
        asked, entered, release = [], threading.Event(), threading.Event()

        def blocking(root_tid):
            asked.append(root_tid)
            if len(asked) == 1:
                entered.set()
                release.wait(10)
            return plain(root_tid)

        servant.agent_status = blocking
        first = {}
        worker = threading.Thread(target=lambda: first.update(a.service.resolve_in_doubt()))
        worker.start()
        assert entered.wait(10)
        second = a.service.resolve_in_doubt()
        release.set()
        worker.join(10)
        assert first == {tx.tid: "committed"}
        assert tx.tid not in second
        assert asked == [tx.tid]
        a.wal.force()
        completions = [
            record
            for record in a.wal.records()
            if record.kind == "tx_completed" and record.payload["tid"] == tx.tid
        ]
        assert len(completions) == 1
        assert balances(w) == (95.0, 105.0)


class TestAgentCrash:
    def test_root_holds_until_the_agent_is_back(self):
        w = world()
        tx = begin_transfer(w)
        # The agent dies after its decision force, before its install
        # (and so before its reply).
        w.domain("B").factory.failpoints.arm("before_commit_resource_0")
        commit_expecting(w, HeuristicHazard)
        w.crash("B")
        assert tx.status is TransactionStatus.COMMITTING and tx.decided
        a = w.domain("A")
        assert a.accounts["a0"].cell.is_locked()  # held, with its locks
        assert a.service.resolve_in_doubt() == {tx.tid: "held"}
        assert tx.status is TransactionStatus.COMMITTING
        assert a.factory.redrive_stuck() == []  # only the agent decides
        assert w.restart("B") is None  # recommits from its decision
        assert balances(w) == (100.0, 105.0)
        assert a.service.resolve_in_doubt() == {tx.tid: "committed"}
        assert tx.status is TransactionStatus.COMMITTED
        assert balances(w) == (95.0, 105.0)
        assert w.quiesce()
        assert w.total_committed() == w.expected_total()


class TestAgentVotesNo:
    def test_nothing_is_installed_on_either_site(self):
        w = world()
        a, b = w.domain("A"), w.domain("B")
        tx = begin_transfer(w)
        b.service.subordinate_for(tx.tid).transaction.rollback_only()
        installs = []
        for domain in (a, b):
            plain = domain.cell_store.put_many

            def counting(items, plain=plain):
                installs.append(dict(items))
                return plain(items)

            domain.cell_store.put_many = counting
        commit_expecting(w, TransactionRolledBack)
        assert installs == []
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert balances(w) == (100.0, 100.0)
        assert kinds(a)[-2:] == ["tx_delegated", "tx_completed"]
        assert "tx_commit_decision" not in kinds(b)
        assert w.quiesce()


class TestLostReply:
    def test_lost_deposit_reply_marks_rollback_only_and_the_orphan_is_swept(self):
        w = world()
        a, b = w.domain("A"), w.domain("B")
        tx = a.current.begin()
        a.accounts["a0"].withdraw("op1", 5.0)
        account = b.accounts["b0"]
        plain = account.deposit

        def deposit_then_drop_the_reply(op_id, amount):
            result = plain(op_id, amount)
            w.link_plan("A", "B").drop_probability = 1.0
            return result

        account.deposit = deposit_then_drop_the_reply
        with pytest.raises(CommunicationError):
            w.account_ref("A", "B", "b0").invoke("deposit", "op1", 5.0)
        w.link_plan("A", "B").drop_probability = 0.0
        assert tx.status is TransactionStatus.MARKED_ROLLBACK
        commit_expecting(w, TransactionRolledBack)
        # B adopted and wrote; nothing registered it, so its own sweep
        # rolls the unprepared orphan back.
        assert b.service.sweep_orphans(min_age=0.0) == [tx.tid]
        assert balances(w) == (100.0, 100.0)
        assert b.accounts["b0"].cell.list_in_doubt() == []
        assert w.quiesce()
        assert w.total_committed() == w.expected_total()


class TestRetriedAdoption:
    def test_a_retried_adopting_request_registers_once(self):
        w = world()
        tx = begin_transfer(w)
        # The client retries the same deposit (idempotent by op id).
        w.account_ref("A", "B", "b0").invoke("deposit", "op1", 5.0)
        w.link_plan("A", "B").duplicate_probability = 1.0
        w.account_ref("A", "B", "b0").invoke("balance")
        key = subordinate_recovery_key("B", tx.tid)
        assert [r.recovery_key for r in tx.resources].count(key) == 1
        assert w.domain("B").service.adoptions == 1
        w.link_plan("A", "B").duplicate_probability = 0.0
        w.domain("A").current.commit()
        assert balances(w) == (95.0, 105.0)
