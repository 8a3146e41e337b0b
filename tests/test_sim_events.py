"""Unit tests for the array-backed calendar, and for the object event
queue (``tests/event_reference.py``) it is checked against."""

import pytest

from repro.sim.events import ArrayCalendar, EventKind

from tests.conftest import pop_earliest
from tests.event_reference import Event, EventQueue


def ev(time, kind=EventKind.ARRIVAL, job_id=1):
    return Event(time=time, kind=kind, job_id=job_id)


def sealed(*events):
    """An ArrayCalendar with *events* = (time, kind, payload) triples
    loaded into the static lane, sealed and ready to pop."""
    cal = ArrayCalendar()
    for time, kind, payload in events:
        cal.add_static(time, kind, payload)
    cal.seal()
    return cal


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        for t in [5.0, 1.0, 3.0]:
            q.push(ev(t))
        assert [q.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_completion_before_arrival_at_same_time(self):
        q = EventQueue()
        q.push(ev(2.0, EventKind.ARRIVAL, job_id=10))
        q.push(ev(2.0, EventKind.COMPLETION, job_id=20))
        first, second = q.pop(), q.pop()
        assert first.kind is EventKind.COMPLETION
        assert second.kind is EventKind.ARRIVAL

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        for job_id in (7, 8, 9):
            q.push(ev(1.0, EventKind.ARRIVAL, job_id=job_id))
        assert [q.pop().job_id for _ in range(3)] == [7, 8, 9]

    def test_same_instant_kind_order_is_pinned(self):
        """The full same-timestamp ordering contract, including the
        disruption kinds: restorations before removals, disruptions
        before arrivals. This order is part of the reproducibility
        guarantee — changing it changes every disrupted schedule."""
        q = EventQueue()
        # Push in deliberately scrambled order.
        scrambled = [
            EventKind.ARRIVAL,
            EventKind.DRAIN_START,
            EventKind.NODE_REPAIR,
            EventKind.DRAIN_ANNOUNCE,
            EventKind.COMPLETION,
            EventKind.NODE_FAILURE,
            EventKind.DRAIN_END,
        ]
        for kind in scrambled:
            q.push(ev(5.0, kind))
        popped = [q.pop().kind for _ in range(len(scrambled))]
        assert popped == [
            EventKind.COMPLETION,
            EventKind.NODE_REPAIR,
            EventKind.DRAIN_END,
            EventKind.NODE_FAILURE,
            EventKind.DRAIN_START,
            EventKind.DRAIN_ANNOUNCE,
            EventKind.ARRIVAL,
        ]

    def test_failure_before_arrival_at_same_time(self):
        """A job arriving the instant a node dies must queue against
        the shrunken cluster: NODE_FAILURE fires first."""
        q = EventQueue()
        q.push(ev(3.0, EventKind.ARRIVAL, job_id=1))
        q.push(ev(3.0, EventKind.NODE_FAILURE, job_id=0))
        assert q.pop().kind is EventKind.NODE_FAILURE
        assert q.pop().kind is EventKind.ARRIVAL

    def test_repair_before_failure_at_same_time(self):
        """Capacity returning and capacity leaving at the same instant:
        the repair lands first, so back-to-back failure cascades on a
        full cluster always see the freshly-repaired node."""
        q = EventQueue()
        q.push(ev(3.0, EventKind.NODE_FAILURE, job_id=1))
        q.push(ev(3.0, EventKind.NODE_REPAIR, job_id=0))
        assert q.pop().kind is EventKind.NODE_REPAIR

    def test_disruption_ties_break_by_insertion(self):
        q = EventQueue()
        for idx in (2, 0, 1):
            q.push(ev(4.0, EventKind.NODE_FAILURE, job_id=idx))
        assert [q.pop().job_id for _ in range(3)] == [2, 0, 1]

    def test_legacy_kind_values_are_stable(self):
        """COMPLETION keeps priority 0 and every disruption kind sorts
        before ARRIVAL; zero-disruption replays are unaffected by the
        enum growing."""
        assert int(EventKind.COMPLETION) == 0
        assert all(
            int(kind) < int(EventKind.ARRIVAL)
            for kind in EventKind
            if kind is not EventKind.ARRIVAL
        )


class TestQueueOperations:
    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(ev(1.0))
        assert q.peek() is not None
        assert len(q) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None
        assert EventQueue().peek_time() is None

    def test_peek_time(self):
        q = EventQueue()
        q.push(ev(3.5))
        assert q.peek_time() == 3.5

    def test_pop_until_inclusive(self):
        q = EventQueue()
        for t in [1.0, 2.0, 3.0, 4.0]:
            q.push(ev(t))
        popped = q.pop_until(3.0)
        assert [e.time for e in popped] == [1.0, 2.0, 3.0]
        assert len(q) == 1

    def test_pop_until_empty_result(self):
        q = EventQueue()
        q.push(ev(10.0))
        assert q.pop_until(5.0) == []

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(ev(1.0))
        assert q and len(q) == 1


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(ev(-1.0))

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(ev(float("nan")))


class TestArrayCalendarOrdering:
    """The ArrayCalendar must replay EventQueue's (time, kind, seq)
    contract exactly — including across its two lanes."""

    def test_pops_in_time_order(self):
        cal = sealed(
            (5.0, EventKind.ARRIVAL, 1),
            (1.0, EventKind.ARRIVAL, 2),
            (3.0, EventKind.ARRIVAL, 3),
        )
        assert [pop_earliest(cal)[0] for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_same_instant_kind_order_is_pinned(self):
        """The full same-timestamp kind ordering, pushed scrambled —
        the exact contract TestOrdering pins for EventQueue."""
        scrambled = [
            EventKind.ARRIVAL,
            EventKind.DRAIN_START,
            EventKind.NODE_REPAIR,
            EventKind.DRAIN_ANNOUNCE,
            EventKind.COMPLETION,
            EventKind.NODE_FAILURE,
            EventKind.DRAIN_END,
        ]
        cal = sealed(*[(5.0, kind, i) for i, kind in enumerate(scrambled)])
        popped = [pop_earliest(cal)[1] for _ in range(len(scrambled))]
        assert popped == [
            int(EventKind.COMPLETION),
            int(EventKind.NODE_REPAIR),
            int(EventKind.DRAIN_END),
            int(EventKind.NODE_FAILURE),
            int(EventKind.DRAIN_START),
            int(EventKind.DRAIN_ANNOUNCE),
            int(EventKind.ARRIVAL),
        ]

    def test_full_ties_break_by_insertion_order(self):
        cal = sealed(
            *[(1.0, EventKind.ARRIVAL, payload) for payload in (7, 8, 9)]
        )
        assert [pop_earliest(cal)[2] for _ in range(3)] == [7, 8, 9]

    def test_dynamic_lane_merges_by_time_and_kind(self):
        """A mid-run completion pushed *after* sealing still pops
        before a same-instant static arrival (kind order), and before
        any later static event (time order)."""
        cal = sealed(
            (2.0, EventKind.ARRIVAL, 1),
            (4.0, EventKind.ARRIVAL, 2),
        )
        assert pop_earliest(cal)[2] == 1
        cal.push(4.0, EventKind.COMPLETION, 99)
        assert [pop_earliest(cal)[1:] for _ in range(2)] == [
            (int(EventKind.COMPLETION), 99),
            (int(EventKind.ARRIVAL), 2),
        ]

    def test_dynamic_seqs_continue_after_static(self):
        """Cross-lane full ties (same time *and* kind) replay global
        insertion order: static first, then pushes in push order."""
        cal = sealed((3.0, EventKind.COMPLETION, 1))
        cal.push(3.0, EventKind.COMPLETION, 2)
        cal.push(3.0, EventKind.COMPLETION, 3)
        assert [pop_earliest(cal)[2] for _ in range(3)] == [1, 2, 3]

    def test_matches_event_queue_on_scrambled_schedule(self):
        """Differential check: an arbitrary static schedule pops in
        exactly the order EventQueue pops the same pushes."""
        events = [
            (4.0, EventKind.ARRIVAL, 1),
            (2.0, EventKind.NODE_FAILURE, 0),
            (2.0, EventKind.ARRIVAL, 2),
            (2.0, EventKind.NODE_REPAIR, 0),
            (0.0, EventKind.ARRIVAL, 3),
            (4.0, EventKind.COMPLETION, 1),
            (2.0, EventKind.ARRIVAL, 4),
        ]
        q = EventQueue()
        for time, kind, payload in events:
            q.push(Event(time=time, kind=kind, job_id=payload))
        cal = sealed(*events)
        expected = [
            (e.time, int(e.kind), e.job_id)
            for e in (q.pop() for _ in range(len(events)))
        ]
        assert [pop_earliest(cal) for _ in range(len(events))] == expected


class TestArrayCalendarOperations:
    def test_peek_time_does_not_remove(self):
        cal = sealed((3.5, EventKind.ARRIVAL, 1))
        assert cal.peek_time() == 3.5
        assert len(cal) == 1

    def test_empty_calendar(self):
        cal = sealed()
        assert len(cal) == 0
        assert cal.peek_time() is None
        assert pop_earliest(cal) is None

    def test_pop_due_inclusive(self):
        cal = sealed(
            *[(t, EventKind.ARRIVAL, i) for i, t in enumerate([1.0, 2.0, 3.0, 4.0])]
        )
        popped = []
        while (event := cal.pop_due(3.0)) is not None:
            popped.append(event)
        assert [time for time, _, _ in popped] == [1.0, 2.0, 3.0]
        assert len(cal) == 1

    def test_pop_due_empty_result(self):
        cal = sealed((10.0, EventKind.ARRIVAL, 1))
        assert cal.pop_due(5.0) is None
        assert len(cal) == 1

    def test_pop_due_merges_lanes_under_the_horizon(self):
        """A due dynamic event pops before a later static one, and
        neither pops past the horizon."""
        cal = sealed((1.0, EventKind.ARRIVAL, 1), (6.0, EventKind.ARRIVAL, 2))
        cal.push(3.0, EventKind.COMPLETION, 9)
        assert cal.pop_due(2.0) == (1.0, int(EventKind.ARRIVAL), 1)
        assert cal.pop_due(2.0) is None  # the dynamic head is not due
        assert cal.pop_due(3.5) == (3.0, int(EventKind.COMPLETION), 9)
        assert cal.pop_due(3.5) is None  # the static head is not due
        assert cal.peek_time() == 6.0 and len(cal) == 1

    def test_len_spans_both_lanes(self):
        cal = sealed((1.0, EventKind.ARRIVAL, 1))
        cal.push(2.0, EventKind.COMPLETION, 1)
        assert len(cal) == 2
        pop_earliest(cal), pop_earliest(cal)
        assert len(cal) == 0


class TestArrayCalendarLifecycle:
    def test_add_static_after_seal_rejected(self):
        cal = sealed()
        with pytest.raises(RuntimeError):
            cal.add_static(1.0, EventKind.ARRIVAL, 1)

    def test_push_before_seal_rejected(self):
        cal = ArrayCalendar()
        with pytest.raises(RuntimeError):
            cal.push(1.0, EventKind.COMPLETION, 1)

    def test_double_seal_rejected(self):
        cal = sealed()
        with pytest.raises(RuntimeError):
            cal.seal()

    def test_negative_time_rejected(self):
        cal = ArrayCalendar()
        with pytest.raises(ValueError):
            cal.add_static(-1.0, EventKind.ARRIVAL, 1)
        cal.seal()
        with pytest.raises(ValueError):
            cal.push(-1.0, EventKind.COMPLETION, 1)

    def test_nan_time_rejected(self):
        cal = ArrayCalendar()
        with pytest.raises(ValueError):
            cal.add_static(float("nan"), EventKind.ARRIVAL, 1)
        cal.seal()
        with pytest.raises(ValueError):
            cal.push(float("nan"), EventKind.COMPLETION, 1)
