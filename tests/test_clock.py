"""SimClock and the discrete-event Simulator."""

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.clock import SimClock, Simulator, Ticker


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_returns_new_time(self):
        assert SimClock().advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(5.0)
        clock.advance_to(1.0)
        assert clock.now == 5.0


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(1.0, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]
        assert sim.now == 4.0

    def test_cancellation(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule(1.0, lambda: ran.append(1))
        handle.cancel()
        sim.run()
        assert ran == []
        assert handle.cancelled

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.clock.advance(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(3.0, lambda: None)

    def test_event_can_schedule_more_events(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, lambda: ran.append(1))
        sim.schedule(5.0, lambda: ran.append(5))
        sim.run_until(2.0)
        assert ran == [1]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_run_until_runs_boundary_event(self):
        sim = Simulator()
        ran = []
        sim.schedule(2.0, lambda: ran.append(2))
        sim.run_until(2.0)
        assert ran == [2]

    def test_runaway_loop_detected(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed == 3

    def test_cancelled_nondaemon_event_does_not_keep_run_alive(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(0.5, tick, daemon=True)

        sim.schedule(0.5, tick, daemon=True)
        handle = sim.schedule(100.0, lambda: None)
        handle.cancel()
        handle.cancel()                     # idempotent
        assert sim.run() == 0
        assert ticks == [] and sim.now == 0.0

    def test_cancel_after_the_event_ran_is_a_noop(self):
        sim = Simulator()
        ran = []
        first = sim.schedule(1.0, lambda: ran.append("first"))
        sim.schedule(2.0, lambda: ran.append("second"))
        sim.step()
        first.cancel()                      # too late: must not release again
        assert not first.cancelled
        sim.run()
        assert ran == ["first", "second"]


@dataclass(order=True)
class _Event:
    """The simulator's queued event when it was ordered by its own
    generated ``__lt__``, kept as the reference for the tuple heap."""

    time: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class ReferenceHeap:
    """A heap of :class:`_Event`s driven like the simulator."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = itertools.count()

    def schedule(self, delay, callback):
        event = _Event(self.now + delay, next(self.seq), callback)
        heapq.heappush(self.queue, event)
        return event

    def step(self):
        while self.queue:
            event = heapq.heappop(self.queue)
            if not event.cancelled:
                self.now = max(self.now, event.time)
                event.callback()
                return

    def run_until(self, t):
        while self.queue:
            if self.queue[0].cancelled:
                heapq.heappop(self.queue)
            elif self.queue[0].time <= t:
                self.step()
            else:
                break
        self.now = max(self.now, t)


#: (op, delay index or event number, follow-up delay index or None)
HEAP_OPS = st.lists(st.tuples(
    st.sampled_from(["schedule", "schedule", "cancel", "run", "step"]),
    st.integers(0, 40), st.one_of(st.none(), st.integers(0, 4))),
    max_size=60)
DELAYS = (0.0, 0.5, 1.0, 1.0, 2.5)


class TestHeapOrder:
    @settings(max_examples=200, deadline=None)
    @given(ops=HEAP_OPS)
    def test_callbacks_fire_in_the_reference_heap_order(self, ops):
        """Schedules (tied times, zero delays, callbacks that schedule a
        follow-up), cancels and ``run_until`` / ``step`` in any order fire
        callbacks in the order of a heap of ordered events."""
        sim, ref = Simulator(), ReferenceHeap()
        fired = {"sim": [], "ref": []}
        handles, events = [], []

        def callback(world, label, follow):
            def run():
                fired[world].append(label)
                if follow is not None:
                    again = callback(world, label + "'", None)
                    if world == "sim":
                        sim.schedule(DELAYS[follow], again)
                    else:
                        ref.schedule(DELAYS[follow], again)
            return run

        for n, (op, arg, follow) in enumerate(ops):
            if op == "schedule":
                delay = DELAYS[arg % len(DELAYS)]
                handles.append(sim.schedule(
                    delay, callback("sim", str(n), follow)))
                events.append(ref.schedule(
                    delay, callback("ref", str(n), follow)))
            elif op == "cancel" and handles:
                handles[arg % len(handles)].cancel()
                event = events[arg % len(events)]
                # a fired event stays uncancelled, as a handle's does
                event.cancelled = event.cancelled or event in ref.queue
            elif op == "run":
                sim.run_until(sim.now + DELAYS[arg % len(DELAYS)])
                ref.run_until(ref.now + DELAYS[arg % len(DELAYS)])
            elif op == "step":
                sim.step()
                ref.step()
            assert fired["sim"] == fired["ref"]
            assert sim.now == ref.now
            assert len(sim._queue) == len(ref.queue)
            assert sim.pending == sum(not e.cancelled for e in ref.queue)
        sim.run_until(sim.now + 100.0)
        ref.run_until(ref.now + 100.0)
        assert fired["sim"] == fired["ref"]


def _work(sim, seconds, result=None):
    """An activity that costs ``seconds`` on whatever clock is installed."""
    def activity():
        sim.clock.advance(seconds)
        return result
    return activity


class TestBranch:
    def test_elapsed_is_exact_and_parent_does_not_move(self):
        sim = Simulator(SimClock(0.1))
        parent = sim.clock
        with sim.branch() as branch:
            assert sim.clock is not parent
            assert sim.now == branch.start == 0.1
            sim.clock.advance(0.2)
            sim.clock.advance(0.7)
        assert sim.clock is parent and parent.now == 0.1
        # child.now - start, in that float order
        assert branch.elapsed == ((0.1 + 0.2) + 0.7) - 0.1

    def test_offset_starts_the_child_later(self):
        sim = Simulator(SimClock(3.0))
        with sim.branch(1.25) as branch:
            assert sim.now == 4.25
            sim.clock.advance(0.5)
        assert branch.elapsed == 0.5 and sim.now == 3.0

    def test_restores_on_exception(self):
        sim = Simulator(SimClock(2.0))
        parent = sim.clock
        with pytest.raises(KeyError):
            with sim.branch():
                sim.clock.advance(5.0)
                raise KeyError("boom")
        assert sim.clock is parent and parent.now == 2.0

    def test_nests(self):
        sim = Simulator(SimClock(1.0))
        parent = sim.clock
        with sim.branch() as outer:
            outer_clock = sim.clock
            sim.clock.advance(1.0)
            with sim.branch() as inner:
                assert inner.start == 2.0
                sim.clock.advance(4.0)
            assert sim.clock is outer_clock and sim.now == 2.0
            sim.clock.advance(inner.elapsed)
        assert sim.clock is parent and parent.now == 1.0
        assert inner.elapsed == 4.0 and outer.elapsed == 5.0

    def test_events_scheduled_inside_are_stamped_with_branch_time(self):
        sim = Simulator(SimClock(10.0))
        with sim.branch() as branch:
            sim.clock.advance(2.0)
            handle = sim.schedule(1.0, lambda: None)
        assert handle.time == 13.0
        assert sim.now == 10.0 and branch.elapsed == 2.0
        sim.run()
        assert sim.now == 13.0


class TestForkJoin:
    COSTS = [0.3, 0.1, 0.4, 0.2, 0.5]

    @pytest.mark.parametrize("width, expected", [
        (None, 0.5),                        # one batch: the slowest member
        (1, (((0.3 + 0.1) + 0.4) + 0.2) + 0.5),
        (2, (0.3 + 0.4) + 0.5),
        (5, 0.5),
        (9, 0.5),                           # wider than the list
    ])
    def test_charges_each_batch_its_slowest_member(self, width, expected):
        sim = Simulator()
        results = sim.fork_join(
            [_work(sim, c, result=i) for i, c in enumerate(self.COSTS)],
            width=width)
        assert results == [0, 1, 2, 3, 4]
        assert sim.now == expected

    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_empty_list(self, width):
        sim = Simulator(SimClock(7.0))
        assert sim.fork_join([], width=width) == []
        assert sim.now == 7.0

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError):
            Simulator().fork_join([lambda: None], width=0)

    def test_later_batches_start_after_earlier_ones(self):
        sim = Simulator(SimClock(1.0))
        starts = []

        def activity():
            starts.append(sim.now)
            sim.clock.advance(2.0)

        sim.fork_join([activity] * 3, width=2)
        assert starts == [1.0, 1.0, 3.0]
        assert sim.now == 5.0

    def test_raising_activity_restores_and_does_not_advance(self):
        sim = Simulator(SimClock(4.0))
        parent = sim.clock

        def boom():
            sim.clock.advance(1.0)
            raise RuntimeError("shard down")

        with pytest.raises(RuntimeError):
            sim.fork_join([_work(sim, 3.0), boom, _work(sim, 9.0)])
        assert sim.clock is parent and parent.now == 4.0

    def test_nested_fork_join_charges_the_enclosing_branch(self):
        sim = Simulator()
        inner = lambda: sim.fork_join([_work(sim, 1.0), _work(sim, 2.0)])
        sim.fork_join([inner, _work(sim, 0.5)])
        assert sim.now == 2.0

    @settings(max_examples=60, deadline=None)
    @given(costs=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                    allow_nan=False), max_size=12),
           width=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
           start=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_parent_pays_sum_of_batch_maxima_in_input_order(
            self, costs, width, start):
        sim = Simulator(SimClock(start))
        results = sim.fork_join(
            [_work(sim, c, result=i) for i, c in enumerate(costs)],
            width=width)
        assert results == list(range(len(costs)))
        step = width or max(1, len(costs))
        total = 0.0
        for first in range(0, len(costs), step):
            offset = start + total
            total += max((offset + c) - offset
                         for c in costs[first:first + step])
        assert sim.now == start + total


class ReferenceLoop:
    """The monitor's and the autoscaler's hand-written daemon loop, kept
    as the reference for :class:`Ticker`, with one fix: each ``start()``
    opens a generation and a tick of an older one fires as a no-op, so a
    restart inside one period no longer leaves the parked loop running."""

    def __init__(self, sim, period, callback):
        self.sim, self.period, self.callback = sim, period, callback
        self._running = False
        self._generation = 0

    def start(self):
        if self._running:
            return
        self._running = True
        self._generation += 1
        self._schedule_tick(self._generation)

    def stop(self):
        self._running = False

    def _schedule_tick(self, generation):
        self.sim.schedule(self.period, lambda: self._tick(generation),
                          daemon=True)

    def _tick(self, generation):
        if not self._running or generation != self._generation:
            return
        self.callback()
        self._schedule_tick(generation)


PERIODS = (0.25, 0.5, 1.0, 1.5)
#: what a loop's callback does on one of its runs
ACTIONS = ("none", "none", "advance", "stop", "restart", "start",
           "stop-other", "start-other")
#: (op, loop, delay index, action index)
TICKER_OPS = st.lists(st.tuples(
    st.sampled_from(["start", "stop", "run", "run", "event"]),
    st.integers(0, 1), st.integers(0, 4), st.integers(0, 7)), max_size=40)


class TestTicker:
    def test_a_nonpositive_period_is_refused(self):
        for period in (0.0, -1.0):
            with pytest.raises(ValueError):
                Ticker(Simulator(), period, lambda: None)

    def test_start_and_stop_are_idempotent(self):
        sim = Simulator()
        fired = []
        ticker = Ticker(sim, 1.0, lambda: fired.append(sim.now))
        ticker.start()
        sim.run_until(0.5)
        ticker.start()
        sim.run_until(3.0)
        assert fired == [1.0, 2.0, 3.0]
        ticker.stop()
        ticker.stop()
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0] and not ticker.running
        assert sim.pending == 0            # the stopped run was cancelled

    def test_a_restart_inside_one_period_runs_one_loop(self):
        sim = Simulator()
        fired = []
        ticker = Ticker(sim, 1.0, lambda: fired.append(sim.now))
        ticker.start()
        sim.run_until(0.5)
        ticker.stop()
        ticker.start()
        sim.run_until(10.0)
        assert fired == [1.5 + k for k in range(9)]

    def test_each_run_rearms_from_the_clock_the_callback_left(self):
        sim = Simulator()
        fired = []

        def slow():
            fired.append(sim.now)
            sim.clock.advance(0.25)

        Ticker(sim, 1.0, slow).start()
        sim.run_until(4.0)
        assert fired == [1.0, 2.25, 3.5]

    @settings(max_examples=300, deadline=None)
    @given(periods=st.tuples(st.sampled_from(PERIODS),
                             st.sampled_from(PERIODS)),
           scripts=st.tuples(
               st.lists(st.integers(0, 7), min_size=1, max_size=6),
               st.lists(st.integers(0, 7), min_size=1, max_size=6)),
           ops=TICKER_OPS)
    def test_fires_like_the_reference_loop(self, periods, scripts, ops):
        """Two loops per simulator, started and stopped from outside and
        from inside their callbacks (a callback may also advance the
        clock), between ``run_until`` calls and other events: a Ticker
        fires the same callbacks at the same times as the reference loop.
        (Not ``step``: a stopped reference loop leaves its tick queued,
        and a step that pops it runs nothing.)"""
        worlds = {}
        for world, make in (("ticker", Ticker), ("ref", ReferenceLoop)):
            sim = Simulator()
            fired = []
            loops = []

            def act(action, k, sim=sim, loops=loops):
                other = loops[1 - k]
                if action == "advance":
                    sim.clock.advance(0.125)
                elif action == "stop":
                    loops[k].stop()
                elif action == "restart":
                    loops[k].stop()
                    loops[k].start()
                elif action == "start":
                    loops[k].start()
                elif action == "stop-other":
                    other.stop()
                elif action == "start-other":
                    other.start()

            def callback(k, sim=sim, fired=fired, runs=[0, 0], act=act):
                fired.append((k, sim.now))
                script = scripts[k]
                act(ACTIONS[script[runs[k] % len(script)]], k)
                runs[k] += 1

            for k in (0, 1):
                loops.append(make(sim, periods[k],
                                  lambda k=k, cb=callback: cb(k)))
            worlds[world] = (sim, fired, loops, act)

        def running(world):
            _, _, loops, _ = worlds[world]
            if world == "ticker":
                return [loop.running for loop in loops]
            return [loop._running for loop in loops]

        for op, k, delay, action in ops:
            for world, (sim, fired, loops, act) in worlds.items():
                if op == "start":
                    loops[k].start()
                elif op == "stop":
                    loops[k].stop()
                elif op == "run":
                    sim.run_until(sim.now + (0.0, 0.5, 1.0, 2.5, 6.0)[delay])
                else:
                    def event(fired=fired, sim=sim, act=act, k=k,
                              action=ACTIONS[action]):
                        fired.append(("event", sim.now))
                        act(action, k)
                    sim.schedule((0.0, 0.25, 1.0, 1.5, 3.0)[delay], event)
            assert worlds["ticker"][1] == worlds["ref"][1]
            assert worlds["ticker"][0].now == worlds["ref"][0].now
            assert running("ticker") == running("ref")
        for sim, *_ in worlds.values():
            sim.run_until(sim.now + 20.0)
        assert worlds["ticker"][1] == worlds["ref"][1]
