"""Streaming-append and fork semantics of ``ArrayCalendar`` (PR 8).

The service's session engine grows one sealed calendar per session via
:meth:`~repro.sim.events.ArrayCalendar.extend_static` and replays each
query over a :meth:`~repro.sim.events.ArrayCalendar.fork`. Everything
the service promises about byte-identity reduces to two properties
pinned here:

1. A calendar grown by any sequence of extends pops the identical
   ``(time, kind, payload)`` stream as one built in a single pre-seal
   batch — including cross-batch ties at equal ``(time, kind)``.
2. A fork is fully independent: consuming it never moves the original.
"""

import pytest

from repro.sim.events import ArrayCalendar, EventKind

from tests.conftest import pop_earliest


def drain(cal: ArrayCalendar) -> list[tuple[float, int, int]]:
    out = []
    while (event := pop_earliest(cal)) is not None:
        out.append(event)
    return out


def batch_built(events) -> ArrayCalendar:
    cal = ArrayCalendar()
    for t, k, p in events:
        cal.add_static(t, k, p)
    cal.seal()
    return cal


class TestExtendStatic:
    def test_chunked_extends_equal_single_batch_build(self):
        # Ties at equal (time, kind) across chunk boundaries are the
        # interesting case: seq must continue globally so existing
        # events keep winning the tie.
        events = [
            (0.0, EventKind.ARRIVAL, 0),
            (5.0, EventKind.ARRIVAL, 1),
            (5.0, EventKind.ARRIVAL, 2),
            (5.0, EventKind.NODE_FAILURE, 3),
            (9.0, EventKind.ARRIVAL, 4),
            (9.0, EventKind.ARRIVAL, 5),
            (12.0, EventKind.ARRIVAL, 6),
        ]
        reference = drain(batch_built(events))
        for chunk in (1, 2, 3):
            grown = batch_built(events[:chunk])
            for i in range(chunk, len(events), chunk):
                grown.extend_static(events[i:i + chunk])
            assert drain(grown) == reference

    def test_extend_from_empty_sealed_calendar(self):
        # The session path: seal an empty lane, then only ever extend.
        events = [(float(i), EventKind.ARRIVAL, i) for i in range(6)]
        cal = ArrayCalendar()
        cal.seal()
        cal.extend_static(events[:3])
        cal.extend_static(events[3:])
        assert drain(cal) == drain(batch_built(events))

    def test_extend_interleaves_with_unconsumed_tail(self):
        cal = batch_built(
            [(t, EventKind.ARRIVAL, i) for i, t in enumerate((0.0, 4.0, 8.0))]
        )
        assert pop_earliest(cal)[0] == 0.0
        # New events straddle the remaining static tail.
        cal.extend_static(
            [(2.0, EventKind.ARRIVAL, 10), (6.0, EventKind.ARRIVAL, 11)]
        )
        assert [p for _, _, p in drain(cal)] == [10, 1, 11, 2]

    def test_extend_into_consumed_past_raises(self):
        cal = batch_built([(10.0, EventKind.ARRIVAL, 0)])
        pop_earliest(cal)
        with pytest.raises(ValueError, match="consumed past"):
            cal.extend_static([(3.0, EventKind.ARRIVAL, 1)])
        # Same time but a smaller kind also sorts before the popped
        # event, so it is equally rejected.
        with pytest.raises(ValueError, match="consumed past"):
            cal.extend_static([(10.0, EventKind.COMPLETION, 1)])
        # At-or-after the floor is fine.
        cal.extend_static([(10.0, EventKind.ARRIVAL, 2)])
        assert drain(cal) == [(10.0, int(EventKind.ARRIVAL), 2)]

    def test_rejected_batch_is_atomic(self):
        # A batch whose *second* event violates the floor must not
        # leak its first event into the lane.
        cal = batch_built([(10.0, EventKind.ARRIVAL, 0)])
        pop_earliest(cal)
        with pytest.raises(ValueError):
            cal.extend_static(
                [(11.0, EventKind.ARRIVAL, 1), (1.0, EventKind.ARRIVAL, 2)]
            )
        assert len(cal) == 0

    def test_extend_requires_sealed(self):
        cal = ArrayCalendar()
        with pytest.raises(RuntimeError, match="seal"):
            cal.extend_static([(1.0, EventKind.ARRIVAL, 0)])

    def test_extend_validates_times(self):
        cal = ArrayCalendar()
        cal.seal()
        with pytest.raises(ValueError):
            cal.extend_static([(-1.0, EventKind.ARRIVAL, 0)])
        with pytest.raises(ValueError):
            cal.extend_static([(float("nan"), EventKind.ARRIVAL, 0)])

    def test_empty_extend_is_a_noop(self):
        cal = batch_built([(1.0, EventKind.ARRIVAL, 0)])
        cal.extend_static([])
        assert len(cal) == 1

    def test_len_counts_static_tail_and_heap(self):
        cal = batch_built([(1.0, EventKind.ARRIVAL, 0)])
        cal.push(2.0, EventKind.COMPLETION, 7)
        assert len(cal) == 2
        cal.extend_static([(3.0, EventKind.ARRIVAL, 1)])
        assert len(cal) == 3
        pop_earliest(cal)
        assert len(cal) == 2


class TestFork:
    def test_fork_requires_sealed(self):
        with pytest.raises(RuntimeError, match="seal"):
            ArrayCalendar().fork()

    def test_fork_is_independent(self):
        events = [(float(i), EventKind.ARRIVAL, i) for i in range(5)]
        cal = batch_built(events)
        pop_earliest(cal)
        fork = cal.fork()
        # Consuming and growing the fork never moves the original.
        fork.extend_static([(9.0, EventKind.ARRIVAL, 99)])
        drained = drain(fork)
        assert [p for _, _, p in drained] == [1, 2, 3, 4, 99]
        assert len(cal) == 4
        assert [p for _, _, p in drain(cal)] == [1, 2, 3, 4]

    def test_fork_copies_dynamic_lane(self):
        cal = batch_built([(1.0, EventKind.ARRIVAL, 0)])
        cal.push(0.5, EventKind.COMPLETION, 42)
        fork = cal.fork()
        assert drain(fork) == drain(cal)

    def test_fork_inherits_floor(self):
        # The consumed-past guard survives the fork: a fork of a
        # partially-consumed calendar refuses the same extends.
        cal = batch_built([(10.0, EventKind.ARRIVAL, 0)])
        pop_earliest(cal)
        fork = cal.fork()
        with pytest.raises(ValueError, match="consumed past"):
            fork.extend_static([(1.0, EventKind.ARRIVAL, 1)])

    def test_repeated_forks_replay_identically(self):
        events = [(float(i % 3), EventKind.ARRIVAL, i) for i in range(8)]
        cal = batch_built(sorted(events))
        first = drain(cal.fork())
        second = drain(cal.fork())
        assert first == second == drain(cal)
