"""Tests for the deterministic discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(10, lambda: order.append("b"))
        sim.at(5, lambda: order.append("a"))
        sim.at(20, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20

    def test_same_cycle_fires_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in range(8):
            sim.at(7, lambda t=tag: order.append(t))
        sim.run()
        assert order == list(range(8))

    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(10, lambda: sim.after(5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_rejected_schedule_burns_no_sequence_number(self):
        """Validation precedes the tie-break counter: a past-time at()
        that raises must not shift the FIFO order of later same-cycle
        events (a caller catching and retrying would otherwise perturb
        bit-for-bit reproducibility)."""
        sim = Simulator()
        order = []
        sim.at(10, lambda: None)
        sim.run()
        seq_before = sim._owner_seq.get(sim.current_owner, 0)
        sim.at(20, lambda: order.append("a"))
        with pytest.raises(SimulationError):
            sim.at(5, lambda: order.append("never"))
        assert sim._owner_seq[sim.current_owner] == seq_before + 1
        sim.at(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]


class TestOwnerKeys:
    def test_same_cycle_orders_by_owner_then_sequence(self):
        sim = Simulator()
        order = []
        sim.at(7, lambda: order.append("b0"), owner=2)
        sim.at(7, lambda: order.append("a0"), owner=1)
        sim.at(7, lambda: order.append("b1"), owner=2)
        sim.at(7, lambda: order.append("a1"), owner=1)
        sim.run()
        assert order == ["a0", "a1", "b0", "b1"]

    def test_events_inherit_current_owner(self):
        sim = Simulator()
        owners = []

        def record():
            owners.append(sim.current_owner)
            if len(owners) == 1:
                # scheduled without an owner: inherits ours (3)
                sim.after(1, record)

        sim.at(0, record, owner=3)
        sim.run()
        assert owners == [3, 3]


class TestRunControl:
    def test_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda: fired.append(5))
        sim.at(50, lambda: fired.append(50))
        sim.run(until=10)
        assert fired == [5]
        assert sim.pending_events == 1
        sim.run()
        assert fired == [5, 50]

    def test_stop(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(1)
            sim.stop()

        sim.at(1, first)
        sim.at(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.after(1, reschedule)

        sim.at(0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_idle_check_called_on_drain(self):
        sim = Simulator()
        called = []
        sim.at(1, lambda: None)
        sim.run(idle_check=lambda: called.append(True))
        assert called == [True]

    def test_idle_check_not_called_when_stopped(self):
        sim = Simulator()
        called = []
        sim.at(1, sim.stop)
        sim.at(2, lambda: None)
        sim.run(idle_check=lambda: called.append(True))
        assert called == []

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.at(1, nested)
        sim.run()
        assert len(errors) == 1


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=60))
    def test_arbitrary_schedules_are_deterministic(self, times):
        def trace(schedule):
            sim = Simulator()
            out = []
            for i, t in enumerate(schedule):
                sim.at(t, lambda i=i: out.append((sim.now, i)))
            sim.run()
            return out

        assert trace(times) == trace(times)

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=40))
    def test_time_never_decreases(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.at(t, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
