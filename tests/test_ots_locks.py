"""Unit tests for the lock manager (2PL + nested inheritance)."""

import pytest

from repro.ots import TransactionFactory
from repro.ots.locks import LockConflict, LockMode


@pytest.fixture
def factory():
    return TransactionFactory()


@pytest.fixture
def locks(factory):
    return factory.lock_manager


class TestBasicLocking:
    def test_read_read_compatible(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.READ)
        locks.acquire(t2, "x", LockMode.READ)
        assert locks.holds(t1, "x") and locks.holds(t2, "x")

    def test_read_write_conflicts(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.READ)
        with pytest.raises(LockConflict):
            locks.acquire(t2, "x", LockMode.WRITE)

    def test_write_read_conflicts(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.WRITE)
        with pytest.raises(LockConflict):
            locks.acquire(t2, "x", LockMode.READ)

    def test_write_write_conflicts(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.WRITE)
        with pytest.raises(LockConflict):
            locks.acquire(t2, "x", LockMode.WRITE)

    def test_reentrant_same_transaction(self, locks, factory):
        t1 = factory.create()
        locks.acquire(t1, "x", LockMode.READ)
        locks.acquire(t1, "x", LockMode.READ)
        locks.acquire(t1, "x", LockMode.WRITE)  # upgrade
        assert locks.holds(t1, "x", LockMode.WRITE)
        assert locks.upgrades == 1

    def test_upgrade_blocked_by_other_reader(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.READ)
        locks.acquire(t2, "x", LockMode.READ)
        with pytest.raises(LockConflict):
            locks.acquire(t1, "x", LockMode.WRITE)

    def test_write_never_downgrades(self, locks, factory):
        t1 = factory.create()
        locks.acquire(t1, "x", LockMode.WRITE)
        locks.acquire(t1, "x", LockMode.READ)
        assert locks.holds(t1, "x", LockMode.WRITE)

    def test_conflict_reports_holders(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.WRITE)
        with pytest.raises(LockConflict) as exc_info:
            locks.acquire(t2, "x", LockMode.WRITE)
        assert t1.tid in exc_info.value.holders

    def test_stats_counters(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.WRITE)
        with pytest.raises(LockConflict):
            locks.acquire(t2, "x", LockMode.READ)
        assert locks.acquisitions == 1
        assert locks.conflicts == 1


class TestReleaseAndTransfer:
    def test_release_all_frees_locks(self, locks, factory):
        t1, t2 = factory.create(), factory.create()
        locks.acquire(t1, "x", LockMode.WRITE)
        locks.acquire(t1, "y", LockMode.READ)
        assert locks.release_all(t1) == 2
        locks.acquire(t2, "x", LockMode.WRITE)

    def test_release_unknown_tx_noop(self, locks, factory):
        assert locks.release_all(factory.create()) == 0

    def test_transfer_to_parent(self, locks, factory):
        parent = factory.create()
        child = factory.create_subtransaction(parent)
        locks.acquire(child, "x", LockMode.WRITE)
        moved = locks.transfer(child, parent)
        assert moved == 1
        assert locks.holds(parent, "x", LockMode.WRITE)
        assert not locks.holds(child, "x")

    def test_transfer_upgrades_parent_read(self, locks, factory):
        parent = factory.create()
        child = factory.create_subtransaction(parent)
        locks.acquire(parent, "x", LockMode.READ)
        locks.acquire(child, "x", LockMode.WRITE)
        locks.transfer(child, parent)
        assert locks.holds(parent, "x", LockMode.WRITE)

    def test_keys_held_by(self, locks, factory):
        t1 = factory.create()
        locks.acquire(t1, "x", LockMode.READ)
        locks.acquire(t1, "y", LockMode.WRITE)
        assert locks.keys_held_by(t1) == {"x", "y"}


class TestNestedInheritance:
    def test_child_may_take_ancestor_lock(self, locks, factory):
        parent = factory.create()
        child = factory.create_subtransaction(parent)
        locks.acquire(parent, "x", LockMode.WRITE)
        locks.acquire(child, "x", LockMode.WRITE)  # retained-lock inheritance
        assert locks.holds(child, "x")

    def test_grandchild_may_take_grandparent_lock(self, locks, factory):
        top = factory.create()
        mid = factory.create_subtransaction(top)
        leaf = factory.create_subtransaction(mid)
        locks.acquire(top, "x", LockMode.WRITE)
        locks.acquire(leaf, "x", LockMode.READ)
        assert locks.holds(leaf, "x")

    def test_sibling_still_conflicts(self, locks, factory):
        parent = factory.create()
        child_a = factory.create_subtransaction(parent)
        child_b = factory.create_subtransaction(parent)
        locks.acquire(child_a, "x", LockMode.WRITE)
        with pytest.raises(LockConflict):
            locks.acquire(child_b, "x", LockMode.WRITE)

    def test_unrelated_top_level_conflicts_with_child_lock(self, locks, factory):
        parent = factory.create()
        child = factory.create_subtransaction(parent)
        other = factory.create()
        locks.acquire(child, "x", LockMode.WRITE)
        with pytest.raises(LockConflict):
            locks.acquire(other, "x", LockMode.READ)
