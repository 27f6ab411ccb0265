"""Alert-driven recruitment autoscaling, end to end.

Coverage for the observe→scale loop (``core/autoscale.py``) and the
plumbing it rides on:

- the grid-wide aggregate rules and the monitor's pooled view they
  evaluate (``rave_grid_*`` series under the ``_grid`` pseudo-service);
- the autoscaler's decision procedure driven by synthetic alerts:
  grow on grid-wide overload, drain-and-release on grid-wide underload,
  cooldown/hysteresis, the min/max pool bounds, and the absorb guard;
- the recruiter's live service directory (a service registered after
  the recruiter was built is still recruitable) and the recruitment
  edge cases: empty UDDI scans, everybody excluded, a partition between
  the data host and a candidate;
- the acceptance scenario: sustained monitor alerts — not manual calls —
  recruit through UDDI until the overload clears, then drain-and-release
  idle members once underload sustains, with the released services
  recruitable again, every decision on the simulated clock, and no
  grow↔release flapping inside the cooldown window.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.autoscale import RecruitmentAutoscaler, ScaleEvent
from repro.core.migration import SPLIT_FLOOR
from repro.core.recruitment import (
    RAVE_BUSINESS,
    RENDER_TMODEL,
    Recruiter,
)
from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.errors import ServiceError
from repro.network.faults import FaultInjector
from repro.obs.dashboard import render_dashboard
from repro.obs.rules import (
    GRID_OVERLOAD_KIND,
    GRID_UNDERLOAD_KIND,
    Alert,
    default_rules,
    grid_rules,
)
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.monitor import GRID_SERVICE
from repro.services.uddi import UddiClient, UddiRegistry
from repro.services.wsdl import RENDER_SERVICE_WSDL
from repro.testbed import RENDER_HOSTS, build_testbed

MONITOR_HOST = "registry-host"


def monitored_testbed(**kwargs):
    return build_testbed(monitor_host=MONITOR_HOST, autoscale=True,
                         **kwargs)


def pump(tb, seconds: float, step: float = 1.0) -> None:
    """Advance the simulation so the daemon ticks fire."""
    deadline = tb.clock.now + seconds
    while tb.clock.now < deadline:
        tb.network.sim.run_until(min(deadline, tb.clock.now + step))


def small_session(tb, hosts=("centrino", "athlon"), polygons=30_000,
                  session_id="scaled", target_fps=600):
    """A session on a subset of the pool, scene sized to nearly fill it."""
    tree = SceneTree(session_id)
    tree.add(MeshNode(skeleton(polygons).normalized(), name="skel"))
    tb.publish_tree(session_id, tree)
    cs = CollaborativeSession(tb.data_service, session_id,
                              target_fps=target_fps,
                              recruiter=tb.recruiter())
    for host in hosts:
        cs.connect(tb.render_service(host))
    cs.place_dataset()
    return cs


def galert(kind, service=GRID_SERVICE, value=2.0, now=0.0, rule=None):
    """A synthetic sustained alert, as the rule engine would emit it."""
    return Alert(rule=rule or kind, kind=kind, service=service,
                 since=now - 5.0, last_time=now, value=value,
                 severity="critical")


# -- grid-wide rules and aggregation ------------------------------------------------


class TestGridRules:
    def test_default_rules_include_the_grid_pair(self):
        kinds = {r.kind for r in default_rules()}
        assert GRID_OVERLOAD_KIND in kinds
        assert GRID_UNDERLOAD_KIND in kinds

    def test_grid_rules_watch_the_aggregate_series(self):
        by_kind = {r.kind: r for r in grid_rules()}
        assert by_kind[GRID_OVERLOAD_KIND].metric == "rave_grid_mean_fps"
        assert by_kind[GRID_UNDERLOAD_KIND].metric \
            == "rave_grid_mean_utilisation"

    def test_grid_values_aggregate_scraped_render_payloads(self):
        tb = monitored_testbed()
        tb.render_service("onyx").reported_fps = 12.0
        tb.render_service("centrino").reported_fps = 4.0
        pump(tb, 3.0)
        values = tb.monitor.grid_values()
        assert values["rave_grid_render_services"] == 5.0
        # services that never rendered export no fps gauge and must not
        # drag the mean down
        assert values["rave_grid_mean_fps"] == pytest.approx(8.0)
        assert values["rave_grid_min_fps"] == 4.0
        assert values["rave_grid_overloaded_fraction"] == pytest.approx(0.5)
        assert 0.0 <= values["rave_grid_mean_utilisation"] <= 1.0

    def test_no_render_payloads_mean_no_grid_series(self):
        tb = build_testbed(monitor_host=MONITOR_HOST)
        assert tb.monitor.grid_values() == {}
        assert tb.monitor.observe_grid(0.0) == {}

    def test_sustained_grid_overload_fires_under_the_pseudo_service(self):
        tb = monitored_testbed()
        for host in tb.render_services:
            tb.render_service(host).reported_fps = 2.0
        pump(tb, 7.0)
        firing = {(a.service, a.kind) for a in tb.monitor.firing_alerts()}
        assert (GRID_SERVICE, GRID_OVERLOAD_KIND) in firing

    def test_grid_alerts_do_not_drive_the_migrator(self):
        # grid-wide kinds are the autoscaler's signal; the per-service
        # migration policy must not mistake them for member overload
        tb = monitored_testbed()
        cs = small_session(tb)
        assert cs.rebalance(alerts=[galert(GRID_OVERLOAD_KIND),
                                    galert(GRID_UNDERLOAD_KIND)]) == []

    def test_snapshot_carries_the_grid_section(self):
        tb = monitored_testbed()
        tb.render_service("onyx").reported_fps = 20.0
        pump(tb, 2.0)
        snap = tb.monitor.snapshot()
        assert "rave_grid_mean_fps" in snap["grid"]
        json.dumps(snap)                       # stays serialisable


# -- construction and wiring --------------------------------------------------------


class TestAutoscalerWiring:
    def test_needs_a_monitor(self):
        tb = monitored_testbed()
        cs = small_session(tb)
        with pytest.raises(ServiceError):
            RecruitmentAutoscaler(cs, None)

    def test_rejects_bad_period_and_cooldown(self):
        tb = monitored_testbed()
        cs = small_session(tb)
        with pytest.raises(ServiceError):
            RecruitmentAutoscaler(cs, tb.monitor, period=0.0)
        with pytest.raises(ServiceError):
            RecruitmentAutoscaler(cs, tb.monitor, cooldown_seconds=-1.0)

    def test_autoscale_flag_requires_the_monitoring_plane(self):
        with pytest.raises(ServiceError):
            build_testbed(autoscale=True)

    def test_autoscale_session_requires_the_monitoring_plane(self):
        tb = build_testbed()
        with pytest.raises(ServiceError):
            tb.autoscale(object())

    def test_testbed_config_flows_into_the_autoscaler(self):
        tb = build_testbed(monitor_host=MONITOR_HOST,
                           autoscale={"cooldown_seconds": 2.5,
                                      "max_services": 4})
        cs = small_session(tb)
        scaler = tb.autoscale(cs, max_services=3)
        scaler.stop()
        assert scaler.cooldown_seconds == 2.5   # from build_testbed
        assert scaler.max_services == 3         # per-call override wins

    def test_snapshot_and_dashboard_carry_the_pool_section(self):
        tb = monitored_testbed()
        cs = small_session(tb)
        scaler = tb.autoscale(cs)
        scaler.stop()
        snap = tb.monitor.snapshot()
        assert snap["autoscale"]["pool_size"] == 2
        assert snap["autoscale"]["pool"][0]["size"] == 2
        json.dumps(snap)
        text = render_dashboard(snap)
        assert "render pool (autoscale)" in text
        assert "(no scale events)" in text

    def test_a_restart_inside_one_period_runs_one_loop(self):
        """A restart used to leave the parked tick running beside the
        new one: 20 evaluations in 10 s instead of 10."""
        tb = monitored_testbed()
        scaler = RecruitmentAutoscaler(small_session(tb), tb.monitor,
                                       period=1.0)
        evaluations = []
        scaler.evaluate = lambda alerts: evaluations.append(tb.clock.now)
        sim = tb.network.sim
        scaler.start()
        sim.run_until(sim.now + 0.5)
        scaler.stop()
        scaler.start()
        sim.run_until(sim.now + 10.0)
        assert len(evaluations) == 10

    def test_period_defaults_to_the_monitor_scrape_period(self):
        tb = build_testbed(monitor_host=MONITOR_HOST, autoscale=True,
                           monitor_period=0.5)
        cs = small_session(tb)
        scaler = tb.autoscale(cs)
        scaler.stop()
        assert scaler.period == 0.5


# -- the decision procedure, driven by synthetic alerts -----------------------------


class TestAutoscalerDecisions:
    def build(self, **kwargs):
        tb = monitored_testbed()
        cs = small_session(tb)
        kwargs.setdefault("cooldown_seconds", 4.0)
        return tb, cs, RecruitmentAutoscaler(cs, tb.monitor, **kwargs)

    def test_grid_overload_grows_through_uddi(self):
        tb, cs, scaler = self.build()
        events = scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=10.0)
        assert [e.kind for e in events] == ["grow"]
        assert events[0].pool_before == 2
        assert events[0].pool_after == 5
        assert events[0].reason == GRID_OVERLOAD_KIND
        assert {s.name for s in cs.render_services} \
            == {"rs-centrino", "rs-athlon", "rs-onyx", "rs-v880z",
                "rs-xeon"}

    def test_recruits_join_idle(self):
        # a recruit must not commit the whole scene on attach — it joins
        # with an empty share until migration hands it work
        tb, cs, scaler = self.build()
        scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=10.0)
        for name in ("rs-onyx", "rs-v880z", "rs-xeon"):
            recruit = next(s for s in cs.render_services
                           if s.name == name)
            assert cs.share_of(recruit) == set()
            assert recruit.committed_polygons() == 0

    def test_cooldown_defers_the_next_decision(self):
        tb, cs, scaler = self.build()
        scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=10.0)
        assert scaler.evaluate([galert(GRID_UNDERLOAD_KIND)],
                               now=11.0) == []          # still cooling
        later = scaler.evaluate([galert(GRID_UNDERLOAD_KIND)], now=20.0)
        assert [e.kind for e in later] == ["release"]

    def test_release_drains_the_least_utilised_member(self):
        tb, cs, scaler = self.build()
        scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=10.0)
        before = {s.name for s in cs.render_services}
        events = scaler.evaluate([galert(GRID_UNDERLOAD_KIND)], now=20.0)
        released = events[0].services[0]
        assert released in before
        assert released not in {s.name for s in cs.render_services}
        # a drained release is not a failure: the service stays
        # recruitable
        assert released not in cs.failed_services

    def test_released_service_is_recruited_back(self):
        # the full round trip: grow → release → grow again through UDDI
        tb, cs, scaler = self.build()
        scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=10.0)
        released = scaler.evaluate([galert(GRID_UNDERLOAD_KIND)],
                                   now=20.0)[0].services[0]
        regrow = scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=30.0)
        assert [e.kind for e in regrow] == ["grow"]
        assert released in regrow[0].services

    def test_min_services_floor_blocks_release(self):
        tb, cs, scaler = self.build(min_services=2)
        scaler._last_scale_time = None
        assert scaler.evaluate([galert(GRID_UNDERLOAD_KIND)],
                               now=50.0) == []
        assert len(cs.render_services) == 2

    def test_max_services_cap_blocks_growth(self):
        tb, cs, scaler = self.build(max_services=2)
        assert scaler.evaluate([galert(GRID_OVERLOAD_KIND)],
                               now=10.0) == []
        assert len(cs.render_services) == 2

    def test_release_refused_when_peers_cannot_absorb(self):
        # both members nearly full: draining either would overload the
        # survivor and re-trigger a grow — the other half of the flap
        # guard
        tb, cs, scaler = self.build(min_services=1)
        assert scaler.evaluate([galert(GRID_UNDERLOAD_KIND)],
                               now=10.0) == []
        assert len(cs.render_services) == 2

    def test_member_overload_with_pool_headroom_migrates_not_grows(self):
        # one slow member while peers have room: in-pool migration can
        # still relieve it, so the autoscaler must not recruit
        tb = monitored_testbed()
        cs = small_session(tb, hosts=("centrino", "xeon"),
                           polygons=12_000)
        scaler = RecruitmentAutoscaler(cs, tb.monitor)
        alerts = [galert(GRID_OVERLOAD_KIND),
                  galert("overload", service="rs-centrino")]
        assert scaler.evaluate(alerts, now=10.0) == []
        assert len(cs.render_services) == 2

    def test_no_alerts_no_actions(self):
        tb, cs, scaler = self.build()
        assert scaler.evaluate([], now=10.0) == []
        assert scaler.events == []

    def test_pool_history_records_every_size_change(self):
        tb, cs, scaler = self.build()
        scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=10.0)
        scaler.evaluate([galert(GRID_UNDERLOAD_KIND)], now=20.0)
        sizes = [size for _, size in scaler.pool_history]
        assert sizes == [2, 5, 4]

    def test_describe_is_json_serialisable(self):
        tb, cs, scaler = self.build()
        scaler.evaluate([galert(GRID_OVERLOAD_KIND)], now=10.0)
        described = json.loads(json.dumps(scaler.describe()))
        assert described["pool_size"] == 5
        assert described["events"][0]["kind"] == "grow"


# -- the recruiter's directory stays live -------------------------------------------


class TestRecruiterLiveDirectory:
    def test_services_added_after_construction_are_recruitable(self):
        # the recruiter must re-resolve access points against the
        # caller's directory at scan time, not against a snapshot taken
        # when it was built — a render service that came online later
        # would otherwise never be recruitable
        tb = build_testbed()
        directory = {}
        recruiter = Recruiter(tb.uddi_client("xeon"), directory)
        rs = tb.render_service("onyx")
        directory[rs.endpoint] = rs            # caller updates its dict
        result = recruiter.recruit()
        assert rs in result.services

    def test_register_helper_still_works(self):
        tb = build_testbed()
        recruiter = Recruiter(tb.uddi_client("xeon"), {})
        rs = tb.render_service("v880z")
        recruiter.register(rs.endpoint, rs)
        assert rs in recruiter.recruit().services


# -- recruitment edge cases ---------------------------------------------------------


class TestRecruitmentEdgeCases:
    def test_empty_uddi_scan_is_a_clean_noop(self):
        tb = build_testbed()
        registry = UddiRegistry("barren")
        registry.register_business(RAVE_BUSINESS, "RAVE")
        registry.register_tmodel(RENDER_TMODEL, RENDER_SERVICE_WSDL)
        client = UddiClient(registry, tb.network, "xeon", MONITOR_HOST)
        recruiter = Recruiter(client, {
            s.endpoint: s for s in tb.render_services.values()})
        result = recruiter.recruit()
        assert not result.found
        assert result.services == []
        cs = CollaborativeSession(tb.data_service, "empty",
                                  recruiter=recruiter)
        tb.publish_tree("empty", SceneTree("empty"))
        assert cs.recruit_more() == []

    def test_everyone_already_attached_recruits_nobody(self):
        tb = build_testbed()
        cs = small_session(tb, hosts=tuple(tb.render_services))
        assert cs.recruit_more() == []

    def test_failed_services_are_never_rerecruited(self):
        tb = build_testbed()
        cs = small_session(tb)
        cs.failed_services.add("rs-onyx")
        attached = {s.name for s in cs.recruit_more()}
        assert attached == {"rs-v880z", "rs-xeon"}

    def test_recruitment_across_a_partition_skips_unreachable_hosts(self):
        tb = build_testbed()
        cs = small_session(tb)
        injector = FaultInjector(tb.network)
        injector.partition({"v880z"})
        attached = {s.name for s in cs.recruit_more()}
        assert attached == {"rs-onyx", "rs-xeon"}
        assert "rs-v880z" not in {s.name for s in cs.render_services}
        # the partitioned host is not dead — once healed, it recruits
        injector.heal()
        assert {s.name for s in cs.recruit_more()} == {"rs-v880z"}


# -- the acceptance scenario --------------------------------------------------------


def run_autoscaled_loop(tb):
    """Closed loop: alerts (never manual calls) scale the pool, both ways.

    The load model reports a collapsed frame rate from every member while
    the scene exceeds 80% of the *pool's* budget, and a healthy rate
    otherwise — so in-pool shuffling can't clear the overload (the ratio
    is invariant under migration) but recruitment can, and the release
    guard's floor keeps the drained pool below the heavy threshold.
    """
    bundle = obs.install(clock=tb.clock)
    try:
        cs = small_session(tb)
        placed = len(list(cs.master_tree.geometry_nodes()))
        scaler = tb.autoscale(cs, cooldown_seconds=5.0,
                              min_services=3)

        def drive():
            pool = cs.render_services
            budget = sum(s.capacity().polygon_budget(cs.target_fps)
                         for s in pool)
            committed = sum(s.committed_polygons() for s in pool)
            heavy = committed > 0.8 * budget
            for service in pool:
                service.reported_fps = 2.0 if heavy else 30.0

        for _ in range(40):
            drive()
            pump(tb, 1.0)
        scaler.stop()
        reattached = cs.recruit_more()
        return {
            "session": cs,
            "scaler": scaler,
            "events": list(scaler.events),
            "final_alert_kinds": {a.kind
                                  for a in tb.monitor.firing_alerts()},
            "snapshot": tb.monitor.snapshot(),
            "recorder": bundle.recorder,
            "reattached": sorted(s.name for s in reattached),
            "placed": placed,
            "split_floor": min(
                math.ceil(SPLIT_FLOOR * tb.render_service(host).capacity()
                          .polygon_budget(cs.target_fps))
                for host in RENDER_HOSTS),
        }
    finally:
        obs.uninstall()


class TestClosedLoopAutoscaling:
    @pytest.fixture(scope="class")
    def loop(self):
        return run_autoscaled_loop(monitored_testbed())

    def test_sustained_overload_grew_the_pool_through_uddi(self, loop):
        grows = [e for e in loop["events"] if e.kind == "grow"]
        assert grows, "overload alerts never triggered recruitment"
        first = loop["events"][0]
        assert first.kind == "grow"
        assert first.reason == GRID_OVERLOAD_KIND
        assert first.pool_before == 2
        assert first.pool_after == 5

    def test_growth_cleared_the_overload_alert(self, loop):
        assert "overload" not in loop["final_alert_kinds"]
        assert GRID_OVERLOAD_KIND not in loop["final_alert_kinds"]

    def test_sustained_underload_drained_and_released(self, loop):
        releases = [e for e in loop["events"] if e.kind == "release"]
        assert releases, "underload alerts never released a service"
        assert all(e.reason == GRID_UNDERLOAD_KIND for e in releases)
        # the pool shrank back to the configured floor and every node is
        # still owned by a live member
        cs = loop["session"]
        scaler = loop["scaler"]
        sizes = [size for _, size in scaler.pool_history]
        assert min(sizes) == 2 and max(sizes) == 5
        assert sizes[-1] == scaler.min_services
        total = sum(len(cs.share_of(s)) for s in cs.render_services)
        assert total == len(list(cs.master_tree.geometry_nodes()))

    def test_released_services_are_recruitable_again(self, loop):
        released = {name for e in loop["events"] if e.kind == "release"
                    for name in e.services}
        assert released
        assert released & set(loop["reattached"]) == released
        assert not released & loop["session"].failed_services

    def test_no_flapping_inside_the_cooldown_window(self, loop):
        events = loop["events"]
        cooldown = loop["scaler"].cooldown_seconds
        for earlier, later in zip(events, events[1:]):
            assert later.time - earlier.time >= cooldown, \
                f"{earlier.kind}@{earlier.time:.1f} then " \
                f"{later.kind}@{later.time:.1f} inside the cooldown"

    def test_scale_events_land_in_the_flight_recorder(self, loop):
        recorder = loop["recorder"]
        assert recorder.events("scale:grow")
        assert recorder.events("scale:release")
        dump = json.dumps(recorder.dump("autoscale-test"))
        assert "scale:grow" in dump and "scale:release" in dump

    def test_snapshot_publishes_the_whole_story(self, loop):
        section = loop["snapshot"]["autoscale"]
        kinds = [e["kind"] for e in section["events"]]
        assert "grow" in kinds and "release" in kinds
        text = render_dashboard(loop["snapshot"])
        assert "render pool (autoscale)" in text
        assert "grow" in text and "release" in text

    def test_migration_splits_keep_the_tree_small(self, loop):
        """Every split piece holds at least the split floor of some
        member's budget, so the tree never outgrows placed nodes plus
        total polygons / that floor."""
        geometry = list(loop["session"].master_tree.geometry_nodes())
        total = sum(n.n_polygons for n in geometry)
        assert len(geometry) <= loop["placed"] + total // loop["split_floor"]

    def test_the_whole_story_is_deterministic(self, loop):
        replay = run_autoscaled_loop(monitored_testbed())
        assert json.dumps(replay["snapshot"], sort_keys=True) \
            == json.dumps(loop["snapshot"], sort_keys=True)
