"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.apps import TravelScenario
from repro.core import ActivityManager
from repro.orb import Orb
from repro.ots import (
    RecoverableRegistry,
    TransactionCurrent,
    TransactionFactory,
    install_transaction_service,
)
from repro.persistence import MemoryStore, SegmentedFileStore, WriteAheadLog
from repro.util.clock import SimulatedClock
from repro.util.rng import SeededRng


@pytest.fixture
def close_segmented_stores(request, monkeypatch):
    """Close, at teardown, every ``SegmentedFileStore`` the test module's
    own code opened through its ``SegmentedFileStore`` name.

    Stores the *library* opens (a site runtime's, a wiped medium's
    replacement, a compaction's new segment) are not tracked: closing
    those is the library's job, which the CI run with
    ``-W error::ResourceWarning`` checks.
    """
    opened = []

    class TrackedStore(SegmentedFileStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(request.module, "SegmentedFileStore", TrackedStore)
    yield
    for store in opened:
        store.close()


@pytest.fixture
def shutdown_participant_pools(request, monkeypatch):
    """Release, at teardown, the worker threads of every
    ``TransactionFactory`` the test module's own code built through its
    ``TransactionFactory`` name.

    A factory that has created a transaction is cyclic garbage (its
    registry holds transactions that hold it), so its pool threads would
    otherwise live until the next full collection — into later modules,
    whose thread audits and process-wide allocation probes then see them
    exit.
    """
    built = []

    class TrackedFactory(TransactionFactory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(request.module, "TransactionFactory", TrackedFactory)
    yield
    for factory in built:
        factory.shutdown_participant_pool()


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def orb():
    return Orb(rng=SeededRng(0))


@pytest.fixture
def manager():
    return ActivityManager()


@pytest.fixture
def tx_env():
    """A complete OTS environment: factory, current, WAL, registry, store."""

    class TxEnv:
        def __init__(self):
            self.stable = MemoryStore()
            self.wal = WriteAheadLog(self.stable, "txlog")
            self.factory = TransactionFactory(wal=self.wal)
            self.current = TransactionCurrent(self.factory)
            self.registry = RecoverableRegistry()
            self.cell_store = MemoryStore()

    return TxEnv()


@pytest.fixture
def scenario(tx_env):
    return TravelScenario(
        factory=tx_env.factory,
        current=tx_env.current,
        capacity=5,
        store=tx_env.cell_store,
        registry=tx_env.registry,
    )


@pytest.fixture
def distributed():
    """An ORB with three nodes, activity + transaction services installed."""

    class Deployment:
        def __init__(self):
            self.orb = Orb(rng=SeededRng(0))
            self.node_a = self.orb.create_node("node-a")
            self.node_b = self.orb.create_node("node-b")
            self.node_c = self.orb.create_node("node-c")
            self.manager = ActivityManager(clock=self.orb.clock)
            self.manager.install(self.orb)
            self.factory = TransactionFactory(clock=self.orb.clock)
            self.tx_current = TransactionCurrent(self.factory)
            install_transaction_service(self.orb, self.tx_current)

    return Deployment()
