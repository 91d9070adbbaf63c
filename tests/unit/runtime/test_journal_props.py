"""Property tests for the durable trace journal (DESIGN §5.6).

Three families of invariants:

* **Round-trip identity** — encode/decode is the identity over the
  journallable value domain (and degrades to :class:`Opaque` snapshots,
  never silently, outside it).
* **Ordering** — the on-disk record order preserves each producer
  thread's FIFO order and the global seqno order, across ring wraparound
  and overflow flushes.
* **Damage detection** — any truncation or byte flip is *reported*:
  either :class:`~repro.errors.JournalCorruption` is raised, or the
  recovered journal says ``clean_close=False`` with a ``tail_error``.
  There is no cut or flip that yields a silently-shorter "clean" journal.
"""

from __future__ import annotations

import io
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    EventKind,
    RuntimeEvent,
    assertion_site_event,
    call_event,
    field_assign_event,
    return_event,
)
from repro.errors import JournalCorruption, JournalError
from repro.runtime.journal import (
    JOURNAL_MAGIC,
    JournalWriter,
    Opaque,
    decode_batch,
    decode_event,
    encode_batch,
    encode_event,
    read_journal,
)
from repro.runtime.manager import TeslaRuntime

# -- value domain --------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_scalars, children, max_size=4),
    ),
    max_leaves=12,
)

_events = st.builds(
    RuntimeEvent,
    kind=st.sampled_from(
        [
            EventKind.CALL,
            EventKind.RETURN,
            EventKind.FIELD_ASSIGN,
            EventKind.ASSERTION_SITE,
        ]
    ),
    name=st.text(max_size=30),
    args=st.lists(_values, max_size=4).map(tuple),
    retval=_values,
    target=_values,
    scope=st.dictionaries(st.text(max_size=10), _values, max_size=4),
    thread_id=st.integers(min_value=-(2**62), max_value=2**62),
    stack=st.lists(st.text(max_size=10), max_size=3).map(tuple),
)


class TestRoundTrip:
    @given(seqno=st.integers(min_value=0, max_value=2**70), event=_events)
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_identity(self, seqno, event):
        body, opaques = encode_event(seqno, event)
        assert opaques == 0, "journallable domain must not degrade to Opaque"
        got_seqno, got = decode_event(body)
        assert got_seqno == seqno
        assert got == event

    @given(event=_events)
    @settings(max_examples=50, deadline=None)
    def test_writer_reader_round_trip(self, event):
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append(7, event)
        writer.close()
        journal = read_journal(buf)
        assert journal.clean_close
        assert journal.slots == [(7, event)]

    def test_negative_seqno_rejected(self):
        with pytest.raises(JournalError):
            encode_event(-1, call_event("f", ()))

    def test_unencodable_value_becomes_opaque(self):
        token = object()
        event = return_event("f", (token,), None)
        body, opaques = encode_event(3, event)
        assert opaques == 1
        _, got = decode_event(body)
        assert got.args == (Opaque(repr(token)),)
        # Re-journalling the decoded event is exact: the opaque snapshot
        # round-trips as-is and is not re-counted as a degradation.
        body2, opaques2 = encode_event(3, got)
        assert opaques2 == 0
        assert decode_event(body2)[1] == got

    def test_bool_and_int_stay_distinct(self):
        event = return_event("f", (True, 1, False, 0), None)
        _, got = decode_event(encode_event(0, event)[0])
        assert [type(v) for v in got.args] == [bool, int, bool, int]


class TestBatchCache:
    """``encode_batch`` pre-encodes repeated event shapes into blob
    caches.  The caches key on value equality, and ``1 == True == 1.0``
    hash alike — these tests pin that hash-equal but type-distinct
    payloads never share cached bytes."""

    @given(events=st.lists(_events, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_batch_round_trip_with_warm_cache(self, events):
        # Each event appears twice: the first occurrence populates the
        # blob caches, the second must round-trip identically off a hit.
        doubled = events + events
        slots = list(enumerate(doubled))
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append_batch(slots)
        writer.close()
        journal = read_journal(buf)
        assert journal.clean_close
        assert journal.slots == slots

    @staticmethod
    def _fingerprint(event):
        # == is type-blind across numerics (1 == True == 1.0), so the
        # round-trip must be checked on types, not just equality.
        # repr separates the zeros (``0.0 == -0.0``).
        return (
            [(type(a), repr(a)) for a in event.args],
            (type(event.retval), repr(event.retval)),
            [
                (type(k), repr(k), type(v), repr(v))
                for k, v in event.scope.items()
            ],
        )

    def _batch_round_trip(self, events):
        slots = list(enumerate(events))
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append_batch(slots)
        writer.close()
        journal = read_journal(buf)
        assert journal.slots == slots
        assert [self._fingerprint(e) for _, e in journal.slots] == [
            self._fingerprint(e) for e in events
        ]

    def test_numeric_aliasing_in_args_and_retval(self):
        self._batch_round_trip(
            [
                return_event("f", (1,), 0),
                return_event("f", (True,), 0),
                return_event("f", (1.0,), 0),
                return_event("f", (1,), False),
                return_event("f", (1,), 0.0),
                return_event("f", (1,), 0),
            ]
        )

    def test_numeric_aliasing_in_scope(self):
        self._batch_round_trip(
            [
                assertion_site_event("a", {"v": 1}),
                assertion_site_event("a", {"v": True}),
                assertion_site_event("a", {"v": 1.0}),
                assertion_site_event("a", {"v": 1}),
            ]
        )
        self._batch_round_trip(
            [
                assertion_site_event("a", {1: "x"}),
                assertion_site_event("a", {True: "x"}),
                assertion_site_event("a", {1: "x"}),
            ]
        )

    def test_signed_zero_in_retval(self):
        # 0.0 == -0.0 with the same type and hash: a cached 0.0 must not
        # stand in for a later -0.0 (nor the other way round).
        self._batch_round_trip(
            [return_event("f", (), 0.0), return_event("f", (), -0.0)]
        )
        self._batch_round_trip(
            [return_event("f", (), -0.0), return_event("f", (), 0.0)]
        )

    def test_signed_zero_in_args(self):
        self._batch_round_trip(
            [
                return_event("f", (0.0, "c"), None),
                return_event("f", (-0.0, "c"), None),
                return_event("f", (0, "c"), None),
                return_event("f", (-0.0, "c"), None),
            ]
        )

    def test_signed_zero_in_scope(self):
        self._batch_round_trip(
            [
                assertion_site_event("a", {"v": 0.0}),
                assertion_site_event("a", {"v": -0.0}),
            ]
        )
        self._batch_round_trip(
            [
                assertion_site_event("a", {0.0: "x"}),
                assertion_site_event("a", {-0.0: "x"}),
            ]
        )


class _Token:
    """A live object with no exact encoding: journalled as Opaque."""

    def __init__(self, n):
        self.n = n

    def __repr__(self):
        return f"<token {self.n}>"


_edge_scalars = st.one_of(
    _scalars,
    st.floats(),  # NaN and infinities included
    st.sampled_from([0.0, -0.0, float("nan"), 2**80, -(2**80), "sø∂ ✓"]),
    st.text(
        alphabet=st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)),
        max_size=8,
    ),
)

_any_values = st.recursive(
    st.one_of(_edge_scalars, st.builds(_Token, st.integers(0, 9))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_edge_scalars, children, max_size=4),
    ),
    max_leaves=12,
)

_any_events = st.builds(
    RuntimeEvent,
    kind=st.sampled_from(list(EventKind)),
    name=st.text(max_size=12),
    args=st.lists(_any_values, max_size=4).map(tuple),
    retval=_any_values,
    target=_any_values,
    scope=st.dictionaries(st.text(max_size=6), _any_values, max_size=3),
    thread_id=st.integers(min_value=-(2**62), max_value=2**62),
    stack=st.lists(st.text(max_size=6), max_size=2).map(tuple),
    timestamp=st.floats(),
)


def _uvarint(value):
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _canon(value):
    """A comparable form: floats by bit pattern (NaN, -0.0), types kept,
    live objects as the Opaque snapshot the journal keeps of them."""
    cls = type(value)
    if cls is float:
        return (float, struct.pack("<d", value))
    if cls is _Token:
        return (Opaque, repr(value))
    if cls is Opaque:
        return (Opaque, value.text)
    if cls in (tuple, list):
        return (cls, tuple(_canon(item) for item in value))
    if cls is dict:
        return (dict, tuple((_canon(k), _canon(v)) for k, v in value.items()))
    return (cls, value)


def _canon_event(event):
    return tuple(
        _canon(getattr(event, name))
        for name in (
            "kind", "name", "args", "retval", "op", "target", "scope",
            "thread_id", "stack", "timestamp",
        )
    )


def _opaque_leaves(value):
    if type(value) is _Token:
        return 1
    if type(value) in (tuple, list):
        return sum(map(_opaque_leaves, value))
    if type(value) is dict:
        return sum(_opaque_leaves(k) + _opaque_leaves(v) for k, v in value.items())
    return 0


class TestOneEncoder:
    """``E`` records and batch records share one event encoder."""

    @given(seqno=st.integers(min_value=0, max_value=2**40), event=_any_events)
    @settings(max_examples=200, deadline=None)
    def test_event_and_batch_records_carry_the_same_inner_bytes(
        self, seqno, event
    ):
        e_body, e_opaque = encode_event(seqno, event)
        seq = _uvarint(seqno)
        assert e_body[: 1 + len(seq)] == b"E" + seq
        inner, stamp = e_body[1 + len(seq) : -8], e_body[-8:]
        # The same event twice in one batch: the second occurrence may
        # come off a warm blob cache, and must not differ.
        frame, count, records, b_opaque = encode_batch(
            [(seqno, event), (seqno + 1, event)]
        )
        assert (count, records) == (2, 1)
        b_body = frame[4:-4]
        assert b_body == b"B\x02" + seq + inner + stamp + inner + stamp
        expected_opaque = (
            sum(map(_opaque_leaves, event.args))
            + _opaque_leaves(event.retval)
            + _opaque_leaves(event.target)
            + sum(_opaque_leaves(v) for v in event.scope.values())
        )
        assert e_opaque == expected_opaque
        assert b_opaque == 2 * expected_opaque
        got_seqno, from_e = decode_event(e_body)
        (s0, from_b), (s1, again) = decode_batch(b_body)
        assert (got_seqno, s0, s1) == (seqno, seqno, seqno + 1)
        want = _canon_event(event)
        assert _canon_event(from_e) == want
        assert _canon_event(from_b) == want
        assert _canon_event(again) == want


# -- ordering ------------------------------------------------------------------


def _feed(runtime: TeslaRuntime, thread_id_label: str, count: int) -> None:
    for index in range(count):
        runtime.handle_event(call_event(f"jp_{thread_id_label}", (index,)))


class TestOrdering:
    @given(
        ring_capacity=st.integers(min_value=2, max_value=8),
        count=st.integers(min_value=0, max_value=64),
        drain_every=st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_thread_file_order_is_seqno_order(
        self, ring_capacity, count, drain_every
    ):
        """Ring wraparound + interleaved manual drains + overflow flushes
        must leave the file in exactly the dispatch (seqno) order."""
        buf = io.BytesIO()
        runtime = TeslaRuntime(
            deferred="manual",
            ring_capacity=ring_capacity,
            journal=buf,
        )
        try:
            for index in range(count):
                runtime.handle_event(call_event("jp_solo", (index,)))
                if index % drain_every == 0:
                    runtime.drain.drain()
            runtime.flush_deferred()
            runtime.close_journal()
        finally:
            runtime.reset()
        journal = read_journal(buf)
        assert journal.clean_close
        seqnos = [seqno for seqno, _ in journal.slots]
        assert seqnos == sorted(seqnos)
        assert len(set(seqnos)) == len(seqnos) == count
        payloads = [event.args[0] for event in journal.events]
        assert payloads == list(range(count))

    def test_multithread_fifo_and_seqno_uniqueness(self):
        """Concurrent producers overflowing tiny rings: the journal holds
        every capture exactly once, per-thread file order is each
        producer's FIFO order, and seqnos are globally unique."""
        n_threads, per_thread = 4, 50
        buf = io.BytesIO()
        runtime = TeslaRuntime(
            deferred="manual", ring_capacity=8, journal=buf
        )
        try:
            barrier = threading.Barrier(n_threads)

            def worker(label: str) -> None:
                barrier.wait()
                _feed(runtime, label, per_thread)

            threads = [
                threading.Thread(target=worker, args=(f"t{i}",))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            runtime.flush_deferred()
            runtime.close_journal()
        finally:
            runtime.reset()
        journal = read_journal(buf)
        assert journal.clean_close
        assert len(journal.slots) == n_threads * per_thread
        seqnos = [seqno for seqno, _ in journal.slots]
        assert len(set(seqnos)) == len(seqnos)
        for i in range(n_threads):
            label = f"jp_t{i}"
            mine = [
                event.args[0]
                for _, event in journal.slots
                if event.name == label
            ]
            assert mine == list(range(per_thread)), (
                f"producer {label} lost FIFO order in the file"
            )
            mine_seqnos = [
                seqno
                for seqno, event in journal.slots
                if event.name == label
            ]
            assert mine_seqnos == sorted(mine_seqnos)


# -- damage detection ----------------------------------------------------------


def _small_journal() -> bytes:
    buf = io.BytesIO()
    writer = JournalWriter(buf)
    writer.append(0, call_event("jp_bound", ()))
    writer.append(1, return_event("jp_check", ("c", 4), 0))
    writer.append(2, assertion_site_event("jp_cls", {"v": 4}))
    writer.append(3, field_assign_event("S", "f", "obj", 9))
    writer.close()
    return buf.getvalue()


class TestDamageDetection:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_truncation_is_reported(self, data):
        full = _small_journal()
        cut = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
        truncated = full[:cut]
        header_len = len(JOURNAL_MAGIC) + 1
        if cut < header_len:
            with pytest.raises(JournalError):
                read_journal(truncated)
            return
        try:
            journal = read_journal(truncated)
        except JournalCorruption:
            return
        # Not an exception: then it must still self-report the damage —
        # the footer record is what makes even frame-aligned cuts visible.
        assert not journal.clean_close
        assert journal.tail_error is not None

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_byte_flip_is_reported(self, data):
        full = bytearray(_small_journal())
        pos = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        full[pos] ^= flip
        try:
            journal = read_journal(bytes(full))
        except JournalError:
            return  # corruption or version/magic mismatch: reported
        assert not journal.clean_close or journal.slots != read_journal(
            _small_journal()
        ).slots or journal.tail_error is not None

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tolerate_tail_recovers_prefix(self, data):
        full = _small_journal()
        reference = read_journal(full)
        header_len = len(JOURNAL_MAGIC) + 1
        cut = data.draw(
            st.integers(min_value=header_len, max_value=len(full) - 1)
        )
        journal = read_journal(full[:cut], tolerate_tail=True)
        assert not journal.clean_close
        assert journal.tail_error is not None
        assert journal.slots == reference.slots[: len(journal.slots)]

    def test_unclosed_journal_reports_interrupted_recording(self):
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append(0, call_event("jp_bound", ()))
        # no close(): a crashed run
        journal = read_journal(buf)
        assert not journal.clean_close
        assert "no closing footer" in journal.tail_error
        assert len(journal.slots) == 1

    def test_crc_flip_names_recovered_count(self):
        full = bytearray(_small_journal())
        # Flip a byte inside the *last* record's body: everything before
        # it must be attributed as recovered.
        with pytest.raises(JournalCorruption) as excinfo:
            damaged = bytearray(full)
            damaged[-6] ^= 0xFF
            read_journal(bytes(damaged))
        assert excinfo.value.recovered >= 1
        assert "recovered" in str(excinfo.value)

    def test_not_a_journal(self):
        with pytest.raises(JournalCorruption):
            read_journal(b"GARBAGE!" + b"\x00" * 16)

    def test_unsupported_version(self):
        full = bytearray(_small_journal())
        full[len(JOURNAL_MAGIC)] = 99
        with pytest.raises(JournalError) as excinfo:
            read_journal(bytes(full))
        assert "version 99" in str(excinfo.value)
