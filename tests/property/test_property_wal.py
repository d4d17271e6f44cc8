"""Model-based test of the write-ahead log.

Hypothesis drives a :class:`~repro.persistence.WriteAheadLog` through
random sequences of ``append_volatile`` / ``force`` / ``append`` /
``crash`` / ``truncate`` / ``reopen`` / ``apply_shipped`` and compares it,
after every step, with a model that is nothing but two Python lists (the
durable records and the volatile tail) and three integers.  The model
knows no layout, so the same test holds over ``MemoryStore`` and over
``SegmentedFileStore``, where a reopen is a genuine re-read of the
directory.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidStateError
from repro.persistence import (
    LogRecord,
    MemoryStore,
    SegmentedFileStore,
    ShippedGapError,
    WriteAheadLog,
)

small = st.integers(min_value=0, max_value=5)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("append_volatile"), small),
        st.tuples(st.just("force")),
        st.tuples(st.just("append"), small),
        st.tuples(st.just("crash")),
        # how far below (or above) the next LSN the cut falls
        st.tuples(st.just("truncate"), st.integers(min_value=-2, max_value=8)),
        st.tuples(st.just("reopen")),
        # (records in the shipment, offset of its first LSN from the expected one)
        st.tuples(
            st.just("apply_shipped"),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=-1, max_value=1),
        ),
    ),
    max_size=40,
)


class Model:
    """The log as plain lists."""

    def __init__(self):
        self.durable = []  # (lsn, kind, payload), live records only
        self.volatile = []
        self.next_lsn = 1
        self.durable_upto = 0
        self.truncated_upto = 0
        self.persisted_next_lsn = 1  # the watermark a truncate makes durable

    def land(self, records):
        self.durable.extend(records)
        self.durable_upto = records[-1][0]

    def reopen(self):
        last = self.durable[-1][0] if self.durable else 0
        self.durable_upto = last
        self.next_lsn = max(self.persisted_next_lsn, last + 1)


def check(wal, model, probe):
    assert [(r.lsn, r.kind, r.payload) for r in wal.records()] == model.durable
    assert len(wal) == len(model.durable)
    assert wal.durable_upto == model.durable_upto
    assert [r.lsn for r in wal.records(after=probe)] == [
        lsn for lsn, _, _ in model.durable if lsn > probe
    ]


def run(operations, open_store):
    wal = WriteAheadLog(open_store(), "log")
    model = Model()
    for step, op in enumerate(operations):
        name = op[0]
        if name in ("append_volatile", "append"):
            payload = {"n": op[1], "step": step}
            record = getattr(wal, name)("k%d" % op[1], **payload)
            assert record.lsn == model.next_lsn
            model.volatile.append((record.lsn, record.kind, payload))
            model.next_lsn += 1
            if name == "append":  # forces everything volatile with it
                model.land(model.volatile)
                model.volatile = []
        elif name == "force":
            wal.force()
            if model.volatile:
                model.land(model.volatile)
                model.volatile = []
        elif name == "crash":
            wal.crash()
            model.volatile = []
        elif name == "truncate":
            up_to = model.next_lsn - op[1]
            expected = [r for r in model.durable if r[0] <= up_to]
            assert wal.truncate(up_to) == len(expected)
            model.durable = model.durable[len(expected):]
            model.truncated_upto = max(
                model.truncated_upto, min(up_to, model.durable_upto)
            )
            model.persisted_next_lsn = model.next_lsn
        elif name == "reopen":
            if model.volatile:
                with pytest.raises(InvalidStateError):
                    wal.reopen()
                continue
            wal = WriteAheadLog(open_store(), "log")
            model.reopen()
        else:  # apply_shipped
            _, count, offset = op
            empty = model.durable_upto == 0 and not model.durable
            # A follower that holds nothing joins wherever the primary is.
            expected = model.next_lsn if empty else model.durable_upto + 1
            start = expected + offset
            shipment = [(start + i, "shipped", {"i": i}) for i in range(count)]
            records = [LogRecord(*r) for r in shipment]
            if model.volatile:
                with pytest.raises(InvalidStateError):
                    wal.apply_shipped(records)
            elif start < 1:
                continue
            elif (not empty and offset != 0) or start <= model.truncated_upto:
                with pytest.raises(ShippedGapError):
                    wal.apply_shipped(records)
            else:
                wal.apply_shipped(records)
                model.land(shipment)
                model.next_lsn = max(model.next_lsn, start + count)
        check(wal, model, probe=max(0, model.next_lsn - 3))
    # And everything durable is what a restart finds.
    if model.volatile:
        wal.crash()
        model.volatile = []
    model.reopen()
    check(WriteAheadLog(open_store(), "log"), model, probe=0)


class TestWriteAheadLogModel:
    @given(ops)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_memory_store(self, operations):
        store = MemoryStore()
        run(operations, lambda: store)

    @given(ops)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_segmented_file_store(self, operations):
        opened = []

        def reopen_directory():
            for store in opened:
                store.close()
            opened.append(SegmentedFileStore(root))
            return opened[-1]

        with tempfile.TemporaryDirectory() as root:
            try:
                run(operations, reopen_directory)
            finally:
                for store in opened:
                    store.close()
