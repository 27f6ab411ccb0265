"""The tail-latency plane end to end: federated quantiles drive alerts.

The acceptance scenario for the observability tentpole: two session
grids are driven into admission-queue waits, the monitor scrapes both
over the simulated network, federates their ``rave_queue_wait_seconds``
bucket counts by summing per-``le``, and the quantile-targeting
``grid-queue-wait-p95`` rule fires from the *merged* distribution — a
value no average of per-service p95 estimates reproduces.  The whole
story is deterministic: a same-seed replay produces a byte-identical
monitor snapshot.
"""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.core.grid import TenantQuota
from repro.data.generators import uv_sphere
from repro.obs.quantiles import estimate_quantile
from repro.obs.rules import TAIL_QUEUE_WAIT_SECONDS, AlertRule, SloTarget
from repro.obs.telemetry import federate
from repro.obs.vocab import (
    EVENT_ALERT_PREFIX,
    EVENT_QUEUE,
    GRID_QUEUE_WAIT,
    TAIL_LATENCY_KIND,
)
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.monitor import GRID_SERVICE
from repro.testbed import build_testbed

MONITOR_HOST = "registry-host"
#: saturating per-session rate (one ~1100-polygon sphere ≈ 3.3 Mpps)
FPS = 3000.0


def scene(label):
    tree = SceneTree(name=f"scene-{label}")
    tree.add(MeshNode(uv_sphere(nu=24, nv=24)))
    return tree


TENANTS = ("acme", "beta")


def open_tenants(grid):
    # two tenants so the per-tenant share cap never fires before the
    # pool fills: saturation reaches the *queue*, not a quota reject
    for i, name in enumerate(TENANTS):
        grid.register_tenant(TenantQuota(tenant=name, priority=i,
                                         max_sessions=8, max_share=1.0,
                                         guaranteed_share=0.0))


def fill_and_queue(grid, prefix, n_queued, limit=16):
    """Admit until full, then queue ``n_queued`` more requests.

    Returns (admitted session ids, queued session ids).
    """
    admitted, queued = [], []
    for i in range(limit):
        sid = f"{prefix}{i}"
        decision = grid.request_session(TENANTS[i % 2], sid, scene(sid))
        if decision.outcome == EVENT_QUEUE:
            queued.append(sid)
            if len(queued) >= n_queued:
                return admitted, queued
        else:
            admitted.append(sid)
    raise AssertionError(f"grid never queued {n_queued} requests")


def run_for(tb, dt):
    # relative, not absolute: synchronous admission work (dataset
    # placement) advances the simulated clock directly, so absolute
    # targets can silently land in the past
    sim = tb.network.sim
    sim.run_until(sim.now + dt)


def breach_scenario():
    """Drive two grids into different queue-wait distributions.

    grid-a's queued request waits ~0.7 s; grid-b's waits ~8 s — so the
    federated p95 (dominated by grid-b's slow tail) is far from the
    average of the two per-grid estimates.  Returns the testbed and both
    grids, with the monitor having watched ≥ 5 s of sustained breach.
    """
    tb = build_testbed(monitor_host=MONITOR_HOST)
    grid_a = tb.session_grid(member_hosts=("centrino",), name="grid-a",
                             recruit=False, target_fps=FPS)
    grid_b = tb.session_grid(member_hosts=("athlon",), name="grid-b",
                             recruit=False, target_fps=FPS)
    open_tenants(grid_a)
    open_tenants(grid_b)
    a_admitted, _ = fill_and_queue(grid_a, "a", 1)
    run_for(tb, 0.7)
    grid_a.release_session(a_admitted[0])        # admits a's head: ~0.7s wait
    b_admitted, _ = fill_and_queue(grid_b, "b", 1)
    run_for(tb, 8.0)
    grid_b.release_session(b_admitted[0])        # admits b's head: ~8s wait
    # cumulative buckets never decay: every scrape from here on sees the
    # breached p95, so the 5 s sustain window fills as the monitor ticks
    run_for(tb, 7.0)
    return tb, grid_a, grid_b


class TestQuantileKeys:
    def test_metric_key_is_computed_once_per_rule(self):
        """Both keys were rebuilt (an f-string and ``quantile_suffix``)
        for every rule on every observed sample."""
        rule = AlertRule(name="wait-p95", metric="rave_queue_wait_seconds",
                         kind=TAIL_LATENCY_KIND, above=0.5, quantile=0.95)
        target = SloTarget(name="wait-p95", metric="rave_queue_wait_seconds",
                           objective=0.5, op="le", quantile=0.95)
        for each in (rule, target):
            assert each.metric_key == "rave_queue_wait_seconds_p95"
            assert each.metric_key is each.metric_key
        # the cached key is not a field: equality and hashing ignore it
        assert rule == replace(rule) and hash(rule) == hash(replace(rule))


class TestFederatedTailAlert:
    def test_quantile_rule_fires_from_merged_buckets(self):
        tb, grid_a, grid_b = breach_scenario()
        snap = tb.monitor.snapshot()

        federated_p95 = snap["grid"][f"{GRID_QUEUE_WAIT}_p95"]
        assert federated_p95 > TAIL_QUEUE_WAIT_SECONDS

        # the published value is the estimate over the per-le sums of
        # both grids' scraped buckets...
        merged = tb.monitor.federated_buckets("rave_queue_wait_seconds")
        assert federated_p95 == pytest.approx(
            estimate_quantile(merged, 0.95))
        # ...and is NOT the average of per-service estimates: grid-b's
        # slow tail dominates the merged distribution
        per_grid = [
            snap["services"][name]["metrics"]["rave_queue_wait_seconds_p95"]
            for name in ("grid-a", "grid-b")
        ]
        averaged = sum(per_grid) / len(per_grid)
        assert abs(federated_p95 - averaged) > 0.5

        firing = {(a["rule"], a["service"]): a for a in snap["alerts"]}
        grid_alert = firing[("grid-queue-wait-p95", GRID_SERVICE)]
        assert grid_alert["kind"] == TAIL_LATENCY_KIND
        assert grid_alert["value"] == pytest.approx(federated_p95)
        assert grid_alert["last_time"] - grid_alert["since"] >= 5.0
        # the per-service twin fires on each breached grid too
        assert ("queue-wait-p95", "grid-a") in firing
        assert ("queue-wait-p95", "grid-b") in firing

    def test_breach_lands_in_slo_report_and_tail_history(self):
        tb, _, _ = breach_scenario()
        snap = tb.monitor.snapshot()

        section = snap["slo"]["queue-wait-p95"]
        assert section["quantile"] == 0.95
        assert section["metric"] == "rave_queue_wait_seconds_p95"
        for name in ("grid-a", "grid-b"):
            score = section["services"][name]
            assert score["attainment"] < 1.0
            assert any(not w["recovered"] for w in score["violations"])

        # the sparkline feed: per-service and grid-wide p95 histories
        assert snap["tail"]["grid-a"]["rave_queue_wait_seconds_p95"]
        grid_tail = snap["tail"][GRID_SERVICE][f"{GRID_QUEUE_WAIT}_p95"]
        assert grid_tail[-1][1] > TAIL_QUEUE_WAIT_SECONDS

    def test_alert_event_reaches_the_flight_recorder(self):
        with obs.observed() as bundle:
            breach_scenario()
            kinds = {e.kind for e in bundle.recorder.events()}
            assert EVENT_ALERT_PREFIX + TAIL_LATENCY_KIND in kinds
            dump = bundle.recorder.dump("tail-breach", time=11.0)
        tail_events = [e for e in dump["events"]
                       if e["kind"] == EVENT_ALERT_PREFIX + TAIL_LATENCY_KIND]
        notes = [e["detail"] for e in tail_events
                 if "grid-queue-wait-p95" in e["detail"]]
        assert notes
        # each firing (unique since=) is noted once, not re-noted every
        # tick it stays up — the final breach sustains ≥ 5 scrapes but
        # lands in the recorder exactly once
        assert len(notes) == len(set(notes))

    def test_same_seed_replay_is_byte_identical(self):
        first = json.dumps(breach_scenario()[0].monitor.snapshot(),
                           sort_keys=True)
        second = json.dumps(breach_scenario()[0].monitor.snapshot(),
                            sort_keys=True)
        assert first == second


class TestFederateCollisions:
    def test_same_origin_payloads_collide_and_are_counted(self):
        payload = {
            "service": "rs-demo", "host": "onyx",
            "metrics": {"rave_rs_fps": {
                "kind": "gauge", "help": "",
                "series": [{"labels": {}, "value": 5.0}],
            }},
        }
        later = {
            "service": "rs-demo", "host": "onyx",
            "metrics": {"rave_rs_fps": {
                "kind": "gauge", "help": "",
                "series": [{"labels": {}, "value": 9.0}],
            }},
        }
        stats: dict = {}
        merged = federate([payload, later], stats=stats)
        assert stats["federate_collisions"] == 1
        series = merged["rave_rs_fps"]["series"]
        # last writer wins, exactly once — the earlier series is gone
        assert len(series) == 1
        assert series[0]["value"] == 9.0

    def test_distinct_origins_do_not_collide(self):
        payloads = [
            {"service": "rs-a", "host": "onyx", "metrics": {}},
            {"service": "rs-b", "host": "onyx", "metrics": {}},
            {"service": "rs-a", "host": "athlon", "metrics": {}},
        ]
        stats: dict = {}
        federate(payloads, stats=stats)
        assert stats["federate_collisions"] == 0

    def test_monitor_snapshot_exposes_the_stat(self):
        tb, _, _ = breach_scenario()
        snap = tb.monitor.snapshot()
        # healthy fleet: distinct service names, so zero — the point is
        # the stat is published, not buried
        assert snap["scrapes"]["federate_collisions"] == 0
        assert tb.monitor.federate_collisions == 0
