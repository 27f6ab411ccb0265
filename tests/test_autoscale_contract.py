"""One autoscaler contract, held by every kind of pool it drives.

A session's render pool, a multi-tenant session grid and a render farm
are all scaled by :class:`~repro.core.autoscale.RecruitmentAutoscaler`.
Whatever the pool, the same four promises hold:

- a second decision inside the cooldown window is deferred;
- ``max_services`` caps growth, however many recruits a scan finds;
- ``min_services`` stops releases at the floor;
- every decision lands in ``events``, ``pool_history``, the
  ``rave_autoscale_events_total`` counter and the flight recorder.

Each pool is driven by synthetic alerts of the kind its monitor rules
raise: ``grid-overload`` / ``grid-underload`` for a session,
``grid-saturated`` / ``grid-underload`` for a grid, and
``farm-backlog`` (calm is its absence) for a farm.
"""

from dataclasses import dataclass

import pytest

from repro import obs
from repro.core.autoscale import RecruitmentAutoscaler
from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.obs.rules import GRID_OVERLOAD_KIND, GRID_UNDERLOAD_KIND, Alert
from repro.obs.vocab import (
    ALERT_OVERLOAD,
    FARM_BACKLOG_KIND,
    GRID_SATURATED_KIND,
)
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.monitor import GRID_SERVICE
from repro.testbed import build_testbed

MONITOR_HOST = "registry-host"
MEMBERS = ("centrino", "athlon")


def galert(kind, service=GRID_SERVICE):
    return Alert(rule=kind, kind=kind, service=service, since=5.0,
                 last_time=10.0, value=2.0, severity="critical")


def full_session(tb):
    """Two members, scene sized to nearly fill them (no migration room)."""
    tree = SceneTree("scaled")
    tree.add(MeshNode(skeleton(30_000).normalized(), name="skel"))
    tb.publish_tree("scaled", tree)
    cs = CollaborativeSession(tb.data_service, "scaled", target_fps=600,
                              recruiter=tb.recruiter())
    for host in MEMBERS:
        cs.connect(tb.render_service(host))
    cs.place_dataset()
    return cs


@dataclass
class Pool:
    tb: object
    target: object
    pressure: list
    calm: list

    def scaler(self, **kwargs):
        kwargs.setdefault("cooldown_seconds", 5.0)
        return RecruitmentAutoscaler(self.target, self.tb.monitor,
                                     **kwargs)


def session_pool():
    tb = build_testbed(monitor_host=MONITOR_HOST)
    return Pool(tb, full_session(tb), [galert(GRID_OVERLOAD_KIND)],
                [galert(GRID_UNDERLOAD_KIND)])


def grid_pool():
    tb = build_testbed(monitor_host=MONITOR_HOST)
    return Pool(tb, tb.session_grid(member_hosts=MEMBERS),
                [galert(GRID_SATURATED_KIND)],
                [galert(GRID_UNDERLOAD_KIND)])


def farm_pool():
    tb = build_testbed(monitor_host=MONITOR_HOST, farm=True)
    return Pool(tb, tb.render_farm(worker_hosts=MEMBERS),
                [galert(FARM_BACKLOG_KIND)], [])


POOLS = {"session": session_pool, "grid": grid_pool, "farm": farm_pool}


@pytest.fixture(params=sorted(POOLS))
def pool(request):
    return POOLS[request.param]()


class TestPoolContract:
    def test_second_decision_inside_the_cooldown_is_deferred(self, pool):
        scaler = pool.scaler()
        assert [e.kind for e in scaler.evaluate(pool.pressure, now=10.0)] \
            == ["grow"]
        size = scaler.pool_size()
        assert scaler.evaluate(pool.pressure, now=12.0) == []
        assert scaler.evaluate(pool.calm, now=12.0) == []
        assert scaler.pool_size() == size
        later = scaler.evaluate(pool.calm, now=20.0)
        assert [e.kind for e in later] == ["release"]

    def test_max_services_caps_growth(self, pool):
        scaler = pool.scaler(max_services=len(MEMBERS) + 1)
        events = scaler.evaluate(pool.pressure, now=10.0)
        assert [e.kind for e in events] == ["grow"]
        assert events[0].pool_after == len(MEMBERS) + 1
        # at the cap: a later pass (cooldown over) grows nothing
        assert scaler.evaluate(pool.pressure, now=30.0) == []
        assert scaler.pool_size() == len(MEMBERS) + 1

    def test_min_services_stops_releases_at_the_floor(self, pool):
        scaler = pool.scaler(min_services=len(MEMBERS))
        scaler.evaluate(pool.pressure, now=10.0)
        assert scaler.pool_size() > len(MEMBERS)
        sizes = []
        for i in range(6):
            scaler.evaluate(pool.calm, now=20.0 + 10.0 * i)
            sizes.append(scaler.pool_size())
        assert min(sizes) == len(MEMBERS)
        assert sizes[-1] == len(MEMBERS)
        assert all(e.pool_after >= len(MEMBERS) for e in scaler.events)

    def test_every_decision_is_recorded(self, pool):
        with obs.observed(clock=pool.tb.clock) as bundle:
            scaler = pool.scaler()
            grown = scaler.evaluate(pool.pressure, now=10.0)
            released = scaler.evaluate(pool.calm, now=20.0)
            decisions = grown + released
            assert [e.kind for e in decisions] == ["grow", "release"]
            assert scaler.events == decisions
            assert [size for _, size in scaler.pool_history] \
                == [len(MEMBERS)] + [e.pool_after for e in decisions]
            for kind in ("grow", "release"):
                assert bundle.metrics.value("rave_autoscale_events_total",
                                            kind=kind) == 1.0
                noted = bundle.recorder.events(f"scale:{kind}")
                assert len(noted) == 1
                event = next(e for e in decisions if e.kind == kind)
                assert noted[0].time == event.time
                assert all(name in noted[0].detail
                           for name in event.services)


class TestSessionGrowthCap:
    def test_the_migrators_recruit_fallback_respects_max_services(self):
        # every member alerted overloaded and none has headroom — a
        # stand-alone 600 fps viewer on each takes the rate the session
        # left — so the migration pass falls back to recruiting, and
        # that recruit is growth like any other — capped at max_services
        tb = build_testbed(monitor_host=MONITOR_HOST)
        cs = full_session(tb)
        for service in cs.render_services:
            service.create_render_session(tb.data_service, "scaled",
                                          fps=600)
            assert service.headroom(600) == 0
        scaler = RecruitmentAutoscaler(cs, tb.monitor, max_services=3)
        alerts = [galert(ALERT_OVERLOAD, service=s.name)
                  for s in cs.render_services]
        events = scaler.evaluate(alerts, now=10.0)
        assert [e.kind for e in events] == ["grow"]
        assert events[0].pool_after == 3
        assert len(cs.render_services) == 3
