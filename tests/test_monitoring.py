"""The grid monitoring plane, end to end.

Coverage for the monitor service (``services/monitor.py``) and the
scrapeable telemetry it federates (``obs/telemetry.py``):

- per-service telemetry payloads, their binary framing, and the
  flatten/federate views the rule engines evaluate;
- the monitor's scrape loop paying real simulated transfer cost;
- the closed loop the issue demands: a slowdown observed only through
  scraped telemetry raises a sustained alert, the alert drives
  ``WorkloadMigrator.plan(session, alerts=...)``, the SLO report records
  the violation and its recovery — and the whole story is deterministic;
- the no-monitor testbed stays monitoring-free (no scrape traffic);
- the event cursor: a scrape ships only the events the monitor has not
  acknowledged, whatever is dropped, overlapped or restarted in between;
- the rates the monitor derives from scraped counters;
- one unparseable target does not end monitoring for the others;
- the scrape caches: any interleaving of updates, events, scrapes and
  ticks leaves every frame, snapshot and monitor view equal to a rebuild,
  and an unwatched service leaves every view.
"""

import json
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.core.grid import SessionGridManager
from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.errors import ServiceError
from repro.network.faults import FaultInjector
from repro.network.simnet import Network
from repro.obs.dashboard import render_dashboard
from repro.obs.quantiles import format_le
from repro.obs.rules import RuleEngine
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    ServiceTelemetry,
    federate,
    flatten_metrics,
)
from repro.render.camera import Camera
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.container import ServiceContainer
from repro.services.data_service import DataService
from repro.services.monitor import (
    GRID_SERVICE,
    MONITOR_SNAPSHOT_FORMAT,
    MonitorService,
)
from repro.services.protocol import (
    FLAG_TELEMETRY,
    frame_message,
    frame_telemetry,
    unframe_telemetry,
)
from repro.testbed import build_testbed

MONITOR_HOST = "registry-host"


def monitored_testbed(**kwargs):
    return build_testbed(monitor_host=MONITOR_HOST, **kwargs)


def pump(tb, seconds: float, step: float = 1.0) -> None:
    """Advance the simulation so the monitor's daemon tick fires."""
    deadline = tb.clock.now + seconds
    while tb.clock.now < deadline:
        tb.network.sim.run_until(min(deadline, tb.clock.now + step))


# -- telemetry payloads -------------------------------------------------------------


class TestServiceTelemetry:
    def make(self) -> ServiceTelemetry:
        t = ServiceTelemetry("rs-demo", "onyx", "render")
        t.registry.gauge("rave_rs_fps").set(12.5)
        t.registry.counter("rave_rs_frames_total").inc(3)
        t.event("render-session-created", time=1.0, detail="sess-1")
        return t

    def test_scrape_payload_contents(self):
        payload = self.make().scrape(now=2.0)
        assert payload["format"] == TELEMETRY_FORMAT
        assert payload["service"] == "rs-demo"
        assert payload["host"] == "onyx"
        assert payload["kind"] == "render"
        assert payload["time"] == 2.0
        assert payload["metrics"]["rave_rs_fps"]["series"][0]["value"] == 12.5
        assert payload["events"] == [{"time": 1.0,
                                      "kind": "render-session-created",
                                      "detail": "sess-1"}]
        assert payload["events_seen"] == 1
        assert payload["registry"]["families"] == 2

    def test_scrape_frame_roundtrips_and_has_wire_size(self):
        telemetry = self.make()
        frame = telemetry.scrape_frame(now=3.0)
        assert isinstance(frame, bytes) and len(frame) > 0
        payload = unframe_telemetry(frame)
        assert payload["service"] == "rs-demo"
        assert payload["time"] == 3.0
        # the framing is stable: same dict frames to the same bytes
        assert frame_telemetry(payload) == frame_telemetry(payload)

    def test_collectors_refresh_at_scrape_time(self):
        telemetry = ServiceTelemetry("rs-x", "onyx", "render")
        state = {"fps": 5.0}
        telemetry.add_collector("rave_rs_fps", lambda: state["fps"])
        assert flatten_metrics(
            telemetry.scrape()["metrics"])["rave_rs_fps"] == 5.0
        state["fps"] = 9.0
        assert flatten_metrics(
            telemetry.scrape()["metrics"])["rave_rs_fps"] == 9.0

    def test_a_scrape_changes_no_story(self):
        """Two back-to-back scrapes of each of the five owners leave its
        event count and the flight recorder as they were, a farm past
        its starvation threshold included (its scrape used to note the
        onset)."""
        from repro.farm import RenderJob

        tb = build_testbed(farm={"starvation_after": 5.0})
        grid = tb.session_grid(recruit=False)
        tb.farm_queue.submit(RenderJob(job_id="waiting", session_id="s",
                                       start_frame=1, end_frame=3))
        tb.clock.advance(6.0)           # past the threshold; no event runs
        owners = [*tb.render_services.values(), tb.data_service,
                  tb.registry, grid, tb.farm_queue]
        with obs.observed(clock=tb.clock) as bundle:
            for owner in owners:
                telemetry = owner.telemetry
                before = (telemetry.events_seen, bundle.recorder.seen)
                first, second = (
                    unframe_telemetry(telemetry.scrape_frame(tb.clock.now))
                    for _ in range(2))
                assert (telemetry.events_seen,
                        bundle.recorder.seen) == before
                assert first["metrics"] == second["metrics"]
        assert tb.farm_queue.starved_jobs() == ["waiting"]

    def test_event_ring_bounded_but_counts_everything(self):
        telemetry = ServiceTelemetry("rs-x", "onyx", "render",
                                     event_capacity=4)
        for i in range(10):
            telemetry.event("e", time=float(i))
        assert len(telemetry.events()) == 4
        assert telemetry.events_seen == 10
        payload = telemetry.scrape()
        assert len(payload["events"]) == 4
        assert payload["events_seen"] == 10

    def test_flatten_skips_labelled_series_and_expands_histograms(self):
        telemetry = ServiceTelemetry("rs-x", "onyx", "render")
        reg = telemetry.registry
        reg.gauge("rave_rs_fps").set(7.0)
        reg.counter("rave_uddi_queries_total", op="find").inc()
        reg.counter("rave_uddi_queries_total", op="scan").inc(2)
        reg.histogram("rave_rs_frame_seconds",
                      buckets=(0.1, 1.0)).observe(0.5)
        flat = flatten_metrics(telemetry.scrape()["metrics"])
        assert flat["rave_rs_fps"] == 7.0
        assert "rave_uddi_queries_total" not in flat   # multi-series
        assert flat["rave_rs_frame_seconds_count"] == 1.0
        assert flat["rave_rs_frame_seconds_sum"] == 0.5

    def test_federate_adds_origin_labels(self):
        a = ServiceTelemetry("rs-a", "onyx", "render")
        b = ServiceTelemetry("rs-b", "v880z", "render")
        a.registry.gauge("rave_rs_fps").set(10.0)
        b.registry.gauge("rave_rs_fps").set(20.0)
        merged = federate([a.scrape(), b.scrape()])
        series = merged["rave_rs_fps"]["series"]
        assert len(series) == 2
        labels = {tuple(sorted(s["labels"].items())) for s in series}
        assert (("host", "onyx"), ("service", "rs-a")) in labels
        assert (("host", "v880z"), ("service", "rs-b")) in labels


# -- the monitor service ------------------------------------------------------------


class TestMonitorService:
    def test_rejects_nonpositive_period(self):
        tb = monitored_testbed()
        with pytest.raises(ServiceError):
            MonitorService("m2", tb.containers[MONITOR_HOST], period=0.0)

    def test_watch_requires_telemetry(self):
        tb = monitored_testbed()
        with pytest.raises(ServiceError):
            tb.monitor.watch(object())

    def test_testbed_monitor_watches_every_service(self):
        tb = monitored_testbed()
        targets = tb.monitor.targets()
        assert "rave-data" in targets
        assert "wesc-uddi" in targets
        for host in ("onyx", "v880z", "centrino", "xeon", "athlon"):
            assert f"rs-{host}" in targets

    def test_unwatch_removes_target(self):
        tb = monitored_testbed()
        tb.monitor.unwatch("rs-onyx")
        assert "rs-onyx" not in tb.monitor.targets()

    def test_unwatch_drops_the_service_from_every_view(self):
        """An unwatched service used to stay in the grid's count, mean,
        min and max, in the snapshot, and in the alerts, still firing."""
        tb = monitored_testbed()
        for i, rs in enumerate(tb.render_services.values()):
            rs.reported_fps = 10.0 + i
        tb.render_service("onyx").reported_fps = 1.0
        monitor = tb.monitor
        pump(tb, 5.0)
        assert monitor.grid_values()["rave_grid_render_services"] == 5.0
        assert "rs-onyx" in {a.service for a in monitor.firing_alerts()}
        monitor.unwatch("rs-onyx")
        pump(tb, 3.0)
        snap = monitor.snapshot()
        assert "rs-onyx" not in snap["services"]
        assert "rs-onyx" not in snap["tail"]
        assert "rs-onyx" not in {a.service for a in monitor.firing_alerts()}
        fps = [entry["metrics"]["rave_rs_fps"]
               for entry in snap["services"].values()
               if entry["kind"] == "render"]
        grid = monitor.grid_values()
        assert grid["rave_grid_render_services"] == len(fps) == 4
        assert grid["rave_grid_min_fps"] == min(fps) > 1.0
        assert grid["rave_grid_mean_fps"] == pytest.approx(
            sum(fps) / len(fps))

    def test_an_unwatched_scrape_in_flight_is_ignored_on_arrival(self):
        """It used to put the service back in every view.  The event
        cursor outlives the unwatch: a re-watch forwards only what was
        never acknowledged."""
        monitor = two_host_monitor()
        telemetry = numbered_events(3)
        monitor.watch(SimpleNamespace(telemetry=telemetry))
        sim = monitor.network.sim
        monitor.scrape_one(telemetry)
        sim.run_until(sim.now + 1.0)
        telemetry.event("e", detail="3")
        monitor.scrape_one(telemetry)
        monitor.unwatch("rs-x")                  # while that scrape flies
        sim.run_until(sim.now + 1.0)
        assert monitor.snapshot()["services"] == {}
        assert monitor.grid_values() == {}
        with obs.observed() as bundle:
            monitor.watch(SimpleNamespace(telemetry=telemetry))
            monitor.scrape_one(telemetry)
            sim.run_until(sim.now + 1.0)
            assert [e.detail for e in bundle.recorder.events("telemetry:e")] \
                == ["rs-x: 3"]
        assert list(monitor.snapshot()["services"]) == ["rs-x"]

    def test_scrapes_pay_simulated_transfer_cost(self):
        tb = monitored_testbed()
        pump(tb, 3.0)
        monitor = tb.monitor
        assert monitor.scrapes > 0
        assert monitor.scrape_bytes > 0
        scrape_transfers = [t for t in tb.network.transfers
                            if t.dst == MONITOR_HOST]
        assert scrape_transfers, "scrapes put no transfers on the wire"
        # every watched host ships payloads to the monitor host
        assert {t.src for t in scrape_transfers} >= {"onyx", "xeon"}
        assert all(t.nbytes > 0 for t in scrape_transfers)

    def test_downed_host_counts_as_scrape_failure(self):
        tb = monitored_testbed()
        FaultInjector(tb.network, seed=3).crash_host("onyx")
        pump(tb, 3.0)
        assert tb.monitor.scrape_failures > 0
        assert "rs-onyx" not in tb.monitor.snapshot()["services"]

    def test_stop_halts_the_scrape_loop(self):
        tb = monitored_testbed()
        pump(tb, 2.0)
        tb.monitor.stop()
        pump(tb, 1.0)            # drain scrapes already in flight
        before = tb.monitor.scrapes
        pump(tb, 3.0)
        assert tb.monitor.scrapes == before

    def test_a_restart_inside_one_period_runs_one_scrape_loop(self):
        """A restart used to leave the parked loop running beside the
        new one: 134 scrapes of the 7 targets in 10 s instead of 64."""
        tb = monitored_testbed()
        sim = tb.network.sim
        sim.run_until(sim.now + 0.5)
        tb.monitor.stop()
        tb.monitor.start()
        before = tb.monitor.scrapes
        sim.run_until(sim.now + 10.0)
        assert len(tb.monitor.targets()) == 7
        assert tb.monitor.scrapes - before == 64

    def test_discover_finds_targets_through_uddi(self):
        from repro.services.container import ServiceContainer

        tb = monitored_testbed()
        fresh = MonitorService(
            "m2", ServiceContainer(MONITOR_HOST, tb.network))
        directory = {s.endpoint: s for s in tb.render_services.values()}
        directory[tb.data_service.endpoint] = tb.data_service
        added = fresh.discover(tb.uddi_client(MONITOR_HOST), directory)
        assert "rave-data" in added
        assert "rs-onyx" in added
        assert set(added) <= set(fresh.targets())

    def test_no_monitor_testbed_has_no_monitoring_plane(self):
        tb = build_testbed()
        assert tb.monitor is None
        pump(tb, 5.0)
        assert tb.network.transfers == []   # zero scrape traffic
        assert not hasattr(tb.data_service, "monitor")


# -- the event cursor ---------------------------------------------------------------


def two_host_monitor() -> MonitorService:
    """A monitor on ``mon`` with one 100 Mbit link to ``svc``."""
    network = Network()
    network.add_host("svc")
    network.add_host("mon")
    network.add_link("svc", "mon", bandwidth_bps=100e6, latency_s=1e-4)
    return MonitorService("monitor", ServiceContainer("mon", network))


def numbered_events(count: int, capacity: int = 256) -> ServiceTelemetry:
    """A service that has emitted events with details "0" .. "count-1"."""
    telemetry = ServiceTelemetry("rs-x", "svc", "render",
                                 event_capacity=capacity)
    for i in range(count):
        telemetry.event("e", time=float(i), detail=str(i))
    return telemetry


class TestEventCursor:
    def test_steady_state_frame_does_not_grow_with_history(self):
        short, long = numbered_events(10), numbered_events(10_000)
        frames = [t.scrape_frame(now=1.0, since=t.events_seen)
                  for t in (short, long)]
        payloads = [unframe_telemetry(f) for f in frames]
        assert [p["events"] for p in payloads] == [[], []]
        assert [p["events_seen"] for p in payloads] == [10, 10_000]
        # only the digits of the counter tell the two frames apart
        assert len(frames[1]) - len(frames[0]) == len("10000") - len("10")

    @pytest.mark.parametrize("since, shipped", [
        (0, [6, 7, 8, 9]),        # no cursor: the whole ring
        (-3, [6, 7, 8, 9]),
        (2, [6, 7, 8, 9]),        # cursor fell off the ring (overflow)
        (6, [6, 7, 8, 9]),
        (7, [7, 8, 9]),
        (9, [9]),
        (10, []),                 # nothing new
        (11, []),                 # past the end: still nothing new
    ])
    def test_since_ships_exactly_the_documented_slice(self, since, shipped):
        telemetry = numbered_events(10, capacity=4)
        payload = telemetry.scrape(now=0.0, since=since)
        assert [int(e["detail"]) for e in payload["events"]] == shipped
        assert payload["events_seen"] == 10
        assert payload["instance"] == telemetry.instance
        # what the receiver derives as the first shipped event's number
        if shipped:
            assert payload["events_seen"] - len(payload["events"]) \
                == shipped[0]

    @pytest.mark.parametrize("since", [0, 7, 10, 11])
    def test_a_cursor_of_another_instance_ships_the_whole_ring(self, since):
        """A restarted service is a new instance: the cursor the scraper
        kept for the old one says nothing about the new one's events,
        whatever its number."""
        earlier, telemetry = numbered_events(3), numbered_events(10, 4)
        assert len({earlier.instance, telemetry.instance}) == 2
        assert len(earlier.instance) == len(telemetry.instance) == 8
        payload = telemetry.scrape(now=0.0, since=since,
                                   instance=earlier.instance)
        assert [int(e["detail"]) for e in payload["events"]] == [6, 7, 8, 9]
        assert telemetry.scrape(now=0.0, since=since,
                                instance=telemetry.instance)["events"] \
            == telemetry.scrape(now=0.0, since=since)["events"]

    def test_scrape_without_a_cursor_is_the_full_ring(self):
        telemetry = numbered_events(5)
        assert telemetry.scrape()["events"] \
            == telemetry.scrape(since=0)["events"] \
            == [{"time": e.time, "kind": e.kind, "detail": e.detail}
                for e in telemetry.events()]

    def test_monitor_scrapes_from_its_acknowledged_cursor(self):
        monitor = two_host_monitor()
        telemetry = numbered_events(3)
        sim = monitor.network.sim
        cursor = ("rs-x", telemetry.instance)
        monitor.scrape_one(telemetry)
        sim.run_until(sim.now + 1.0)
        assert monitor._forwarded[cursor] == 3
        telemetry.event("e", detail="3")
        monitor.scrape_one(telemetry)
        sim.run_until(sim.now + 1.0)
        latest = monitor._latest["rs-x"]
        assert [e["detail"] for e in latest["events"]] == ["3"]
        assert latest["events_seen"] == monitor._forwarded[cursor] == 4

    def test_cursor_advances_with_no_recorder_installed(self):
        """Without a flight recorder the monitor still acknowledges what
        it received (it used to re-fetch and re-parse the whole ring on
        every scrape for as long as no recorder was active) — so a
        recorder switched on mid-run gets events from then on, not a
        replay of the ring."""
        monitor = two_host_monitor()
        telemetry = numbered_events(3)
        sim = monitor.network.sim
        monitor.scrape_one(telemetry)
        sim.run_until(sim.now + 1.0)
        assert monitor._forwarded["rs-x", telemetry.instance] == 3
        with obs.observed() as bundle:
            telemetry.event("e", detail="3")
            monitor.scrape_one(telemetry)
            sim.run_until(sim.now + 1.0)
            assert [e.detail for e in bundle.recorder.events("telemetry:e")] \
                == ["rs-x: 3"]


class HeldWire:
    """Replaces one network's ``send``: a transfer completes or is lost
    when the test says so, oldest first."""

    def __init__(self, network) -> None:
        self.held: deque = deque()
        network.send = self.send

    def send(self, src, dst, nbytes, on_complete=None, on_drop=None):
        record = SimpleNamespace(nbytes=nbytes)
        self.held.append((record, on_complete, on_drop))
        return record

    def deliver(self) -> None:
        record, on_complete, _ = self.held.popleft()
        on_complete(record)

    def drop(self) -> None:
        record, _, on_drop = self.held.popleft()
        on_drop(record)


class FullRing:
    """A scrape target that ignores the cursor (the pre-cursor wire)."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.service, self.host = telemetry.service, telemetry.host

    def scrape_frame(self, now=0.0, since=0, instance=None):
        return self.telemetry.scrape_frame(now)


CURSOR_OPS = st.lists(st.one_of(
    st.tuples(st.just("emit"), st.integers(1, 6)),
    st.tuples(st.sampled_from(["scrape", "deliver", "drop", "restart"]),
              st.just(0)),
), max_size=40)


def forwarded_by(ops, wrap) -> tuple[list[int], bool]:
    """Run ``ops`` against a fresh monitor; the event numbers the recorder
    received, and whether each delivery left the ring it saw forwarded."""
    monitor = two_host_monitor()
    wire = HeldWire(monitor.network)
    rings: deque = deque()          # ring contents at each held scrape
    complete, emitted = True, 0
    telemetry = ServiceTelemetry("rs-x", "svc", "render", event_capacity=4)
    with obs.observed() as bundle:
        def received() -> list[int]:
            return [int(e.detail.split(": ")[1])
                    for e in bundle.recorder.events("telemetry:e")]

        for op, count in ops:
            if op == "emit":
                for _ in range(count):
                    telemetry.event("e", detail=str(emitted))
                    emitted += 1
            elif op == "scrape":
                monitor.scrape_one(wrap(telemetry))
                rings.append([int(e.detail) for e in telemetry.events()])
            elif op == "restart":
                telemetry = ServiceTelemetry("rs-x", "svc", "render",
                                             event_capacity=4)
            elif wire.held:
                ring = rings.popleft()
                if op == "drop":
                    wire.drop()
                else:
                    wire.deliver()
                    # a restart is a new instance, so completeness holds
                    # across restarts too
                    complete &= set(ring) <= set(received())
        return received(), complete


class TestCursorProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ops=CURSOR_OPS)
    def test_any_interleaving_forwards_each_ring_event_once_in_order(
            self, ops):
        got, complete = forwarded_by(ops, wrap=lambda t: t)
        # event numbers only ever go up: nothing twice, nothing reordered
        assert got == sorted(set(got))
        assert complete, "a delivered scrape left ring events unforwarded"
        assert got == forwarded_by(ops, wrap=FullRing)[0]

    def test_a_restart_that_catches_up_to_the_cursor(self):
        """A restarted service whose event counter has caught up to the
        monitor's cursor, with a stale payload of the old instance landing
        in between: the instance id tells the two apart."""
        ops = [("emit", 4), ("scrape", 0), ("emit", 1), ("scrape", 0),
               ("deliver", 0), ("restart", 0), ("emit", 1), ("emit", 3),
               ("scrape", 0), ("deliver", 0), ("deliver", 0)]
        assert forwarded_by(ops, wrap=FullRing)[0] == list(range(9))
        assert forwarded_by(ops, wrap=lambda t: t)[0] == list(range(9))


# -- derived rates ------------------------------------------------------------------

#: the window of the rejection rate the monitor derives from the grid's
#: reject counter (its row of ``monitor.RATES``)
WINDOW = 10.0

#: a reject at one of 63 instants (in 64ths of the scrape period) after
#: the last scrape, a scrape that arrives, one that is lost, or a restart
#: of the grid.  Rejects fall strictly between scrapes: one at the instant
#: of a scrape (or of the grid's start) is counted by whichever happens
#: first, and a count over ``(t - W, t]`` cannot tell which did.
RATE_OPS = st.lists(st.one_of(
    st.tuples(st.just("count"), st.integers(1, 63)),
    st.tuples(st.sampled_from(["scrape"] * 4 + ["drop", "restart"]),
              st.just(0)),
), min_size=10, max_size=80)


def derived_rates(ops, period):
    """Run ``ops`` against a grid scraped every ``period`` seconds; per
    scrape that arrives, ``(rate in the monitor's view, rate in
    grid_values(), count(t - W, t] / W, the documented rule's rate)``
    for the grid instance then running."""
    monitor = two_host_monitor()
    wire = HeldWire(monitor.network)
    sim = monitor.network.sim
    data = DataService("data", ServiceContainer("svc", monitor.network))
    events: list[float] = []         # reject times of the running instance
    samples: list[tuple] = []        # (time, count) of its arrived scrapes
    grid, seen, k = None, [], 0
    for op, at in [("restart", 0)] + ops:
        if op == "count":
            sim.run_until(max(sim.now, (64 * k + at) * period / 64))
            grid._reject("t", "s", sim.now, "full", 1.0)
            events.append(sim.now)
        elif op == "restart":
            grid = SessionGridManager(data, name="grid")
            monitor.watch(grid)
            events, samples = [], []
        else:
            k += 1
            sim.run_until(k * period)
            monitor.scrape_one(grid.telemetry)
            if op == "drop":
                wire.drop()
                continue
            wire.deliver()
            t = sim.now
            start = [c for time, c in samples if time <= t - WINDOW]
            rule = (len(events) - (start[-1] if start else 0)) / WINDOW
            samples.append((t, len(events)))
            seen.append((
                monitor._flat["grid"]["rave_admission_rejection_rate"],
                monitor.grid_values()["rave_grid_rejection_rate"],
                sum(t - WINDOW < e <= t for e in events) / WINDOW, rule))
    return seen


class TestDerivedRate:
    """The grid exports a reject counter and the monitor derives the
    rate: ``(C(t) - C(s)) / W``, ``s`` the newest sample at or before
    ``t - W`` of the same instance, and 0 for an instance with none."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ops=RATE_OPS.map(lambda ops: [o for o in ops if o[0] != "drop"]),
           period=st.sampled_from([0.5, 1.0, 2.0, 2.5, 5.0, 10.0]))
    def test_on_a_regular_grid_it_is_the_windowed_count(self, ops, period):
        """Every scrape arrives and the period divides the window: the
        rate is bit-equal to the count in ``(t - W, t]`` over ``W``, a
        restart counts the new instance from 0, and a rate that decays
        with no new reject reaches ``grid_values()``."""
        for view, grid, windowed, _ in derived_rates(ops, period):
            assert view == grid == windowed

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ops=RATE_OPS, period=st.sampled_from([0.5, 1.0, 2.5, 3.0, 7.0]))
    def test_with_gaps_it_follows_the_documented_rule(self, ops, period):
        from repro.services.monitor import RATES

        assert ("rave_admission_rejects_total",
                "rave_admission_rejection_rate", WINDOW) in RATES
        for view, grid, _, rule in derived_rates(ops, period):
            assert view == grid == rule


# -- hostile scrape targets ---------------------------------------------------------


class TestBadFrames:
    def test_one_bad_target_does_not_end_monitoring(self):
        """A frame that fails ``unframe_telemetry`` or a payload naming
        no service used to unwind ``_tick`` before it rescheduled itself:
        one bad target ended monitoring for the whole grid."""
        monitor = two_host_monitor()
        healthy = numbered_events(2)
        truncated = SimpleNamespace(
            service="rs-truncated", host="svc",
            scrape_frame=lambda now=0.0, since=0, instance=None:
                healthy.scrape_frame(now)[:-5])
        empty = SimpleNamespace(
            service="rs-empty", host="svc",
            scrape_frame=lambda now=0.0, since=0, instance=None:
                frame_telemetry({}))
        for target in (healthy, truncated, empty):
            monitor.watch(SimpleNamespace(telemetry=target))
        sim = monitor.network.sim
        monitor.start()
        sim.run_until(sim.now + 3.5)          # three ticks
        assert monitor.scrape_failures == 6   # two bad scrapes per tick
        assert monitor.scrapes == 3           # the healthy one, every tick
        assert sorted(monitor.snapshot()["services"]) == ["rs-x"]
        sim.run_until(sim.now + 1.0)          # and the tick is still alive
        assert monitor.scrapes == 4


# -- flatten once -------------------------------------------------------------------

INF = float("inf")

#: family names the cache property draws from, by kind; each is created on
#: first use, so new families and new label sets arrive mid-run
CACHE_FAMILIES = {
    "counter": ("c_total", "d_total"),
    "gauge": ("rave_rs_fps", "rave_rs_utilisation", "rave_queue_depth"),
    "histogram": ("rave_queue_wait_seconds", "h_seconds"),
}
CACHE_LABELS = ({}, {"op": "a"}, {"op": "b"})
CACHE_SERVICES = (("rs-a", "render"), ("rs-b", "render"), ("gm", "grid"))


def cache_op(kind, names, values):
    return st.tuples(st.just(kind), st.integers(0, len(CACHE_SERVICES) - 1),
                     st.integers(0, len(names) - 1),
                     st.integers(0, len(CACHE_LABELS) - 1),
                     st.sampled_from(values))


CACHE_OPS = st.lists(st.one_of(
    cache_op("counter", CACHE_FAMILIES["counter"], [0.0, 1.0, 2.5, INF]),
    cache_op("gauge", CACHE_FAMILIES["gauge"],
             ["same", 0.0, -0.0, 1.0, 3.0, 30.0, INF, -INF, float("nan")]),
    cache_op("histogram", CACHE_FAMILIES["histogram"],
             [0.0, 4e-4, 0.3, 0.7, 7.0, INF]),
    cache_op("load", ("-",), [1.0, 30.0, 0.0, -0.0, INF, float("nan")]),
    cache_op("event", ("-",), ["-"]),
    cache_op("frame", ("-",), [-1, 0, 2, 5, 100]),
    cache_op("scrape", ("-",), ["-"]),
    cache_op("tick", ("-",), [1, 4]),
), min_size=5, max_size=50)


def canonical(value) -> str:
    """Equality that also holds for NaN (compared as its JSON token)."""
    return json.dumps(value, sort_keys=True, default=repr)


def rebuilt_snapshot(registry) -> dict:
    """``registry.snapshot()`` recomputed from the instruments, uncached."""
    out = {}
    for family in registry.families():
        series = []
        for labels, inst in sorted(family.children.items()):
            entry = {"labels": dict(labels)}
            if family.kind == "histogram":
                entry.update(count=inst.count, sum=inst.sum, mean=inst.mean,
                             buckets={format_le(le): n for le, n
                                      in inst.cumulative_buckets()})
            else:
                entry["value"] = inst.value
            series.append(entry)
        out[family.name] = {"kind": family.kind, "help": family.help,
                            "series": series}
    return out


def rebuilt_frame(telemetry, now: float, since: int) -> bytes:
    """The frame of the scrape just taken, encoded from scratch."""
    ring, seen = telemetry.events(), telemetry.events_seen
    skip = max(since - (seen - len(ring)), 0)
    metrics = rebuilt_snapshot(telemetry.registry)
    payload = {
        "format": TELEMETRY_FORMAT, "service": telemetry.service,
        "host": telemetry.host, "instance": telemetry.instance,
        "kind": telemetry.kind, "time": now,
        "metrics": metrics,
        "registry": {
            "families": len(metrics),
            "series": sum(len(f["series"]) for f in metrics.values()),
            "samples": sum(e.get("count", 1) for f in metrics.values()
                           for e in f["series"])},
        "events": [{"time": e.time, "kind": e.kind, "detail": e.detail}
                   for e in ring[skip:]],
        "events_seen": seen, "scrapes": telemetry.scrapes,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return frame_message(body.encode(), FLAG_TELEMETRY)


def recomputed_grid(monitor) -> dict:
    """``grid_values()`` of a fresh monitor holding the same payloads."""
    fresh = two_host_monitor()
    fresh._latest = dict(monitor._latest)
    fresh._flat = {name: flatten_metrics(payload["metrics"])
                   for name, payload in monitor._latest.items()}
    return fresh.grid_values()


def run_cache_ops(ops) -> None:
    """Drive ``ops`` and check each cached view against a rebuild of it."""
    monitor = two_host_monitor()
    sim = monitor.network.sim
    services = [ServiceTelemetry(name, "svc", kind, event_capacity=4)
                for name, kind in CACHE_SERVICES]
    # a collector re-sets each load gauge on every scrape, as a render
    # service's does, so a steady load is a gauge set to its own value
    load = [1.0, 30.0, 0.5]
    for i, (telemetry, gauge) in enumerate(zip(
            services, ("rave_rs_fps", "rave_rs_fps", "rave_queue_depth"))):
        telemetry.add_collector(gauge, lambda i=i: load[i])
    # the reference engine sees what the monitor ingests, flattened afresh
    reference = RuleEngine()
    ingest = monitor._ingest

    def replayed_ingest(payload, arrival):
        reference.observe(payload["service"], payload.get("time", arrival),
                          flatten_metrics(payload["metrics"]))
        ingest(payload, arrival)

    monitor._ingest = replayed_ingest
    for op, index, name, label, value in ops:
        telemetry = services[index]
        registry, labels = telemetry.registry, CACHE_LABELS[label]
        if op == "counter":
            registry.counter(CACHE_FAMILIES[op][name], **labels).inc(value)
        elif op == "gauge":
            gauge = registry.gauge(CACHE_FAMILIES[op][name], **labels)
            gauge.set(gauge.value if value == "same" else value)
        elif op == "histogram":
            registry.histogram(CACHE_FAMILIES[op][name],
                               **labels).observe(value)
        elif op == "load":
            load[index] = value
        elif op == "event":
            telemetry.event("e", time=sim.now, detail=str(sim.now))
        elif op == "frame":                       # (a) an arbitrary cursor
            frame = telemetry.scrape_frame(sim.now, value)
            assert frame == rebuilt_frame(telemetry, sim.now, value)
        elif op == "scrape":
            monitor.scrape_one(telemetry)
        else:                           # ``value`` ticks of the monitor
            for _ in range(value):
                for each in services:
                    monitor.scrape_one(each)
                sim.run_until(sim.now + 1.0)
                grid = recomputed_grid(monitor)
                if grid:
                    reference.observe(GRID_SERVICE, sim.now, grid)
                assert canonical(monitor.observe_grid(sim.now)) \
                    == canonical(grid)
        # (b) every registry's snapshot is its uncached rebuild
        for each in services:
            assert canonical(each.registry.snapshot()) \
                == canonical(rebuilt_snapshot(each.registry))
        # (c) the monitor's views are a recomputation from its payloads
        assert canonical(monitor._flat) == canonical(
            {name: flatten_metrics(payload["metrics"])
             for name, payload in monitor._latest.items()})
        assert canonical(monitor.grid_values()) \
            == canonical(recomputed_grid(monitor))
        assert repr(monitor.firing_alerts()) == repr(reference.firing())


#: values the frame property writes: NaN, +-inf and -0.0 encode apart
FRAME_VALUES = [0.0, -0.0, 1.5, 7, float("nan"), INF, -INF, 1e-300]
#: label values, help texts and event details: quotes, escapes, non-ASCII
FRAME_TEXT = ["", "plain", 'a "quoted" \\ path', "ünïcødé ✓", "tab\tnew\nline"]
FRAME_OPS = st.lists(st.one_of(
    st.tuples(st.just("counter"), st.sampled_from(["c_total", "d_total"]),
              st.sampled_from(FRAME_TEXT), st.sampled_from([0.0, 1.0, INF])),
    st.tuples(st.just("gauge"), st.sampled_from(["g", "h"]),
              st.sampled_from(FRAME_TEXT), st.sampled_from(FRAME_VALUES)),
    st.tuples(st.just("histogram"), st.sampled_from(["w_seconds"]),
              st.sampled_from(FRAME_TEXT),
              st.sampled_from([0.0, -0.0, 4e-4, 0.3, 7.0, INF, -INF])),
    st.tuples(st.just("event"), st.sampled_from(["e", "kind ✓"]),
              st.sampled_from(FRAME_TEXT), st.sampled_from(FRAME_VALUES)),
    # cursor: 0, 2 (over a ring that overflowed), 99 (past the end), or
    # 1 or 3 before events_seen (mid-ring); naming this instance, none
    # or another one
    st.tuples(st.just("scrape"), st.sampled_from([0, 1, 2, 3, 99]),
              st.sampled_from([None, "self", "other"]),
              st.sampled_from(FRAME_VALUES)),
), max_size=40)


class TestScrapeFrameTemplate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ops=FRAME_OPS, names=st.sampled_from([
        ("rs-x", "svc", "render"),
        ('rs "q" ü', "hôst\\x", "kïnd ✓")]))
    def test_frame_is_the_scrape_encoded(self, ops, names):
        """``scrape_frame(now, since, instance)`` is, byte for byte,
        ``frame_telemetry(scrape(now, since, instance))``: NaN, +-inf and
        -0.0 values, labelled series and histograms, quoted and non-ASCII
        names, help texts and details, cursors at 0, mid-ring, past the
        end, over an overflowed ring and of another instance, with
        mutations between scrapes."""
        telemetry = ServiceTelemetry(*names, event_capacity=4)
        telemetry.add_collector("collected", lambda: 2.5, help="ü")
        registry = telemetry.registry
        for op, name, text, value in ops:
            if op == "counter":
                registry.counter(name, text, op=text).inc(value)
            elif op == "gauge":
                registry.gauge(name, text, **({"l": text} if text else {})
                               ).set(value)
            elif op == "histogram":
                registry.histogram(name, text).observe(value)
            elif op == "event":
                telemetry.event(name, time=value, detail=text)
            else:
                since = (name if name in (0, 2, 99)
                         else telemetry.events_seen - name)
                instance = {"self": telemetry.instance,
                            "other": "ffffffff"}.get(text)
                frame = telemetry.scrape_frame(value, since, instance)
                telemetry.scrapes -= 1          # the same scrape, again
                assert frame == frame_telemetry(
                    telemetry.scrape(value, since, instance))


class TestFlattenOnce:
    """``grid_values`` and ``snapshot`` read the flattened view kept at
    ingest; it must always be the flattening of the *latest* payload."""

    def assert_views_match_latest_payloads(self, monitor):
        flats = {name: flatten_metrics(payload["metrics"])
                 for name, payload in monitor._latest.items()}
        snap = monitor.snapshot()
        assert {name: entry["metrics"]
                for name, entry in snap["services"].items()} == flats
        grid = monitor.grid_values()
        assert grid == snap["grid"]
        fps = [flat["rave_rs_fps"] for name, flat in flats.items()
               if monitor._latest[name]["kind"] == "render"]
        assert grid["rave_grid_render_services"] == len(fps)
        assert grid["rave_grid_mean_fps"] == pytest.approx(
            sum(fps) / len(fps))
        assert grid["rave_grid_min_fps"] == min(fps)

    def test_views_equal_flatten_of_each_latest_payload(self):
        tb = monitored_testbed()
        assert len(tb.monitor.targets()) >= 5
        for i, rs in enumerate(tb.render_services.values()):
            rs.reported_fps = 10.0 + i
        pump(tb, 2.0)
        assert len(tb.monitor._latest) == len(tb.monitor.targets())
        self.assert_views_match_latest_payloads(tb.monitor)
        before = tb.monitor.grid_values()
        # a later scrape replaces a service's payload: the view follows
        tb.render_service("onyx").reported_fps = 1.0
        pump(tb, 2.0)
        snap = tb.monitor.snapshot()
        assert snap["services"]["rs-onyx"]["metrics"]["rave_rs_fps"] == 1.0
        assert tb.monitor.grid_values() != before
        self.assert_views_match_latest_payloads(tb.monitor)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ops=CACHE_OPS)
    # -0.0 equals 0.0 but encodes unlike it
    @example(ops=[("load", 0, 0, 0, 0.0), ("tick", 0, 0, 0, 1),
                  ("load", 0, 0, 0, -0.0), ("frame", 0, 0, 0, 0)])
    def test_any_interleaving_keeps_every_cached_view_fresh(self, ops):
        """Updates (``inc(0)``, a gauge set to its own value, +-inf, NaN
        gauges, new label sets and families), events, scrapes at any
        cursor and deliveries, in any order: (a) each scrape frame is the
        payload encoded from scratch, (b) each registry snapshot is an
        uncached rebuild, and (c) the monitor's flattened views, grid
        aggregates and alerts are a recomputation from its payloads."""
        run_cache_ops(ops)


#: federated histogram families (and a gauge) on two grids and a farm
TAIL_SERVICES = (("gm-a", "grid"), ("gm-b", "grid"), ("farm", "farm"))
TAIL_OPS = st.lists(st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 2),
              st.sampled_from(["rave_queue_wait_seconds",
                               "rave_farm_render_seconds"]),
              st.sampled_from([{}, {}, {"job": "j"}]),
              st.sampled_from([0.0, 4e-4, 0.3, 0.7, 3.0, INF])),
    st.tuples(st.just("gauge"), st.integers(0, 2), st.just("-"),
              st.just({}), st.sampled_from([0.0, 1.0, 3.0])),
    st.tuples(st.sampled_from(["scrape", "scrape", "tick", "unwatch",
                               "watch", "restart"]),
              st.integers(0, 2), st.just("-"), st.just({}), st.just(0.0)),
), min_size=5, max_size=50)


class TestFederatedTailCache:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ops=TAIL_OPS)
    # an unwatched service, and a restart that no longer exports the
    # family, each take its buckets out of the merged distribution
    @example(ops=[("observe", 0, "rave_queue_wait_seconds", {}, 0.3),
                  ("observe", 1, "rave_queue_wait_seconds", {}, 3.0),
                  ("scrape", 0, "-", {}, 0.0), ("scrape", 1, "-", {}, 0.0),
                  ("tick", 0, "-", {}, 0.0), ("unwatch", 1, "-", {}, 0.0)])
    @example(ops=[("observe", 0, "rave_queue_wait_seconds", {}, 0.3),
                  ("observe", 1, "rave_queue_wait_seconds", {}, 3.0),
                  ("scrape", 0, "-", {}, 0.0), ("scrape", 1, "-", {}, 0.0),
                  ("tick", 0, "-", {}, 0.0), ("restart", 1, "-", {}, 0.0),
                  ("scrape", 1, "-", {}, 0.0), ("tick", 0, "-", {}, 0.0)])
    def test_grid_values_equal_a_recomputation_after_each_ingest(self, ops):
        """Histogram observations (labelled too), gauge moves, scrapes,
        deliveries, unwatch / re-watch and restarts in any order: after
        every ingest and unwatch, ``grid_values()`` equals the
        aggregation of a monitor holding the same views and no cache."""
        monitor = two_host_monitor()
        sim = monitor.network.sim
        services = [ServiceTelemetry(name, "svc", kind)
                    for name, kind in TAIL_SERVICES]

        def check():
            fresh = two_host_monitor()
            fresh._latest, fresh._flat = (dict(monitor._latest),
                                          dict(monitor._flat))
            assert canonical(monitor.grid_values()) \
                == canonical(fresh.grid_values())

        ingest = monitor._ingest

        def checked_ingest(payload, arrival):
            ingest(payload, arrival)
            check()

        monitor._ingest = checked_ingest
        for telemetry in services:
            monitor.watch(SimpleNamespace(telemetry=telemetry))
        for op, index, family, labels, value in ops:
            telemetry = services[index]
            if op == "observe":
                telemetry.registry.histogram(family, **labels).observe(value)
            elif op == "gauge":
                telemetry.registry.gauge("rave_queue_depth").set(value)
            elif op == "scrape":
                monitor.scrape_one(telemetry)
            elif op == "tick":
                sim.run_until(sim.now + 1.0)
            elif op == "unwatch":
                monitor.unwatch(telemetry.service)
                check()
            else:                   # a re-watch, or a restarted instance
                if op == "restart":
                    telemetry = services[index] = ServiceTelemetry(
                        telemetry.service, "svc", telemetry.kind)
                monitor.watch(SimpleNamespace(telemetry=telemetry))


# -- the closed loop ----------------------------------------------------------------


def run_closed_loop(tb):
    """The acceptance scenario; returns everything the assertions need."""
    bundle = obs.install(clock=tb.clock)
    try:
        tree = SceneTree("visible-man")
        tree.add(MeshNode(skeleton(60_000).normalized(), name="skeleton"))
        tb.publish_tree("visible-man", tree)
        cs = CollaborativeSession(tb.data_service, "visible-man",
                                  target_fps=600,
                                  recruiter=tb.recruiter())
        cs.place_dataset()
        cam = Camera.looking_at((1.0, 1.6, 0.3), (0, 0, 0))
        for _ in range(4):                       # healthy baseline
            cs.render_composite(cam, 64, 64)
            pump(tb, 1.0)
        baseline_alerts = tb.monitor.firing_alerts()

        victim = max((s for s in cs.render_services if cs.share_of(s)),
                     key=lambda s: s.committed_polygons())
        for _ in range(6):                       # sustained slowdown
            victim.reported_fps = 2.0
            pump(tb, 1.0)
        alerts = tb.monitor.firing_alerts()

        unalerted = cs.rebalance([])             # no alert, no move
        actions = cs.rebalance(alerts=alerts)    # the monitor drives it

        for _ in range(4):                       # load gone; fps recovers
            cs.render_composite(cam, 64, 64)
            pump(tb, 1.0)
        return {
            "baseline_alerts": baseline_alerts,
            "victim": victim,
            "alerts": alerts,
            "unalerted": unalerted,
            "actions": actions,
            "after_alerts": tb.monitor.firing_alerts(),
            "snapshot": tb.monitor.snapshot(),
            "recorder": bundle.recorder,
        }
    finally:
        obs.uninstall()


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def loop(self):
        return run_closed_loop(monitored_testbed())

    def test_healthy_baseline_raises_no_overload(self, loop):
        # idle pool members legitimately warn about underload; the
        # critical interactivity alert must stay silent while healthy
        assert [a for a in loop["baseline_alerts"]
                if a.kind == "overload"] == []

    def test_sustained_slowdown_fires_overload_alert(self, loop):
        overloads = [a for a in loop["alerts"] if a.kind == "overload"]
        assert overloads, "no overload alert after 6 s below threshold"
        alert = next(a for a in overloads
                     if a.service == loop["victim"].name)
        assert alert.rule == "render-overload"
        assert alert.value == 2.0
        assert alert.last_time - alert.since >= 3.0

    def test_alertless_rebalance_is_a_noop(self, loop):
        # the migrator keeps no load history, so the slowdown is
        # invisible without the monitor's alerts
        assert loop["unalerted"] == []

    def test_alerts_drive_migration_off_the_victim(self, loop):
        actions = loop["actions"]
        assert actions, "alert did not produce a migration"
        assert any(a.source == loop["victim"].name
                   and a.reason == "overload" for a in actions)
        assert all(a.polygons > 0 for a in actions)

    def test_alert_clears_after_recovery(self, loop):
        assert all(a.service != loop["victim"].name
                   for a in loop["after_alerts"]
                   if a.kind == "overload")

    def test_slo_report_records_violation_and_recovery(self, loop):
        slo = loop["snapshot"]["slo"]
        entry = slo["interactive-fps"]["services"][loop["victim"].name]
        assert entry["attainment"] < 1.0
        windows = entry["violations"]
        assert windows, "violation window missing from the SLO report"
        assert any(w["recovered"] for w in windows), \
            "the recovery never closed the violation window"
        assert min(w["worst"] for w in windows) == 2.0

    def test_scrapes_rode_the_simulated_network(self, loop):
        scrapes = loop["snapshot"]["scrapes"]
        assert scrapes["count"] > 0
        assert scrapes["bytes"] > 0
        # a scrape ships only the events past the monitor's cursor, so
        # its size must not grow with a service's history: 684 B here
        # (105 scrapes, 71 779 B)
        per_scrape = scrapes["bytes"] / scrapes["count"]
        assert per_scrape < 800, f"{per_scrape:.0f} B per scrape"

    def test_migration_and_telemetry_land_in_flight_recorder(self, loop):
        recorder = loop["recorder"]
        assert recorder.events("placement")
        assert recorder.events("migration")
        kinds = {e.kind for e in recorder.events()}
        assert any(k.startswith("telemetry:") for k in kinds), \
            "scraped remote events never reached the recorder"

    def test_whole_story_is_deterministic(self, loop):
        replay = run_closed_loop(monitored_testbed())
        assert json.dumps(replay["snapshot"], sort_keys=True) \
            == json.dumps(loop["snapshot"], sort_keys=True)


# -- snapshot + dashboard -----------------------------------------------------------


class TestSnapshotAndDashboard:
    def make_snapshot(self):
        tb = monitored_testbed(render_hosts=("onyx", "centrino"))
        rs = tb.render_service("onyx")
        rs.reported_fps = 24.0
        pump(tb, 2.0)
        return tb.monitor.snapshot()

    def test_snapshot_shape(self):
        snap = self.make_snapshot()
        assert snap["format"] == MONITOR_SNAPSHOT_FORMAT
        assert snap["period"] == 1.0
        entry = snap["services"]["rs-onyx"]
        assert entry["host"] == "onyx"
        assert entry["kind"] == "render"
        assert entry["metrics"]["rave_rs_fps"] == 24.0
        # the federated view carries origin labels
        series = snap["metrics"]["rave_rs_fps"]["series"]
        assert {"service": "rs-onyx", "host": "onyx"} in \
            [s["labels"] for s in series]
        assert snap["scrapes"]["count"] > 0
        assert snap["slo"], "SLO attainment report is empty"
        for name, section in snap["slo"].items():
            assert "objective" in section, f"SLO {name} has no objective"

    def test_snapshot_is_json_serialisable(self):
        json.dumps(self.make_snapshot())

    def test_dashboard_renders_every_section(self):
        text = render_dashboard(self.make_snapshot())
        assert "RAVE grid monitor" in text
        assert "rs-onyx" in text
        assert "alerts" in text
        assert "SLOs" in text

    def test_dashboard_accepts_embedded_monitor_section(self):
        snap = self.make_snapshot()
        assert render_dashboard({"monitor": snap}) \
            == render_dashboard(snap)

    def test_dashboard_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            render_dashboard({"format": "something-else"})

    def test_cli_dashboard_renders_a_snapshot_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "snap.json"
        path.write_text(json.dumps(self.make_snapshot()))
        assert main(["dashboard", "--snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "RAVE grid monitor" in out
        assert "rs-onyx" in out
