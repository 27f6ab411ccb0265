"""The multi-tenant session grid: admission, quotas, queueing, shedding.

The admission contract has exactly three outcomes — admit, queue,
reject — and each is exercised here in isolation before
``test_multitenant_chaos.py`` runs them under fire.  The capacity unit
throughout is polygons·per·second: a session admitted for ``D``
polygons at ``F`` fps holds ``D × F`` pps of the pool until it parks
or releases.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.core.capacity import DEFAULT_TARGET_FPS, interrogate
from repro.core.grid import (
    REASON_DUPLICATE,
    REASON_QUEUE_TIMEOUT,
    REASON_SATURATED,
    SessionGridManager,
    TenantQuota,
)
from repro.core.session import CollaborativeSession
from repro.data.generators import uv_sphere
from repro.errors import (
    InsufficientResources,
    ServiceError,
    SessionError,
    TooManyRequestsError,
)
from repro.obs.vocab import (
    EVENT_ADMIT,
    EVENT_QUEUE,
    EVENT_REJECT,
)
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.protocol import frame_reject, unframe_reject
from repro.testbed import build_testbed

# at 3000 fps one ~1100-polygon sphere costs ~3.3 Mpps, so the
# centrino's 8.4 Mpps pool holds two sessions and the third must wait —
# a saturating workload without megabyte meshes
FPS = 3000.0


def scene(label, nu=24):
    tree = SceneTree(name=f"scene-{label}")
    tree.add(MeshNode(uv_sphere(nu=nu, nv=nu)))
    return tree


def small_grid(tb, **kwargs):
    kwargs.setdefault("member_hosts", ("centrino",))
    kwargs.setdefault("queue_capacity", 2)
    kwargs.setdefault("queue_timeout", 60.0)
    kwargs.setdefault("target_fps", FPS)
    return tb.session_grid(**kwargs)


def open_tenants(grid, *names, **overrides):
    for i, name in enumerate(names):
        params = dict(priority=i, max_sessions=8, max_share=1.0,
                      guaranteed_share=0.0)
        params.update(overrides)
        grid.register_tenant(TenantQuota(tenant=name, **params))


class TestAdmissionOutcomes:
    def test_admit_while_the_pool_has_spare(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        decision = grid.request_session("acme", "s0", scene(0))
        assert decision.outcome == EVENT_ADMIT
        assert decision.grid_session is not None
        assert grid.session("s0").session.render_services
        assert grid.utilisation() > 0

    def test_full_pool_queues_with_position_feedback(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        assert grid.request_session("acme", "s0", scene(0)).outcome \
            == EVENT_ADMIT
        assert grid.request_session("beta", "s1", scene(1)).outcome \
            == EVENT_ADMIT
        d2 = grid.request_session("acme", "s2", scene(2))
        d3 = grid.request_session("beta", "s3", scene(3))
        assert (d2.outcome, d2.queue_position) == (EVENT_QUEUE, 1)
        assert (d3.outcome, d3.queue_position) == (EVENT_QUEUE, 2)
        assert grid.queue_depth() == 2
        assert grid.queue_position("s3") == 2
        assert grid.queue_position("nope") is None

    def test_full_queue_rejects_with_retry_after(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        d = grid.request_session("beta", "s3", scene(3))
        assert d.outcome == EVENT_REJECT
        assert d.reason == REASON_SATURATED
        assert d.retry_after == grid.queue_timeout
        assert d.reject_frame is not None
        assert grid.rejections == 1

    def test_duplicate_session_id_is_a_caller_error(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        grid.request_session("acme", "s0", scene(0))
        with pytest.raises(SessionError):
            grid.request_session("acme", "s0", scene(1))

    def test_zero_capacity_queue_goes_straight_to_reject(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        d = grid.request_session("acme", "s2", scene(2))
        assert d.outcome == EVENT_REJECT


class TestTenantQuotas:
    def test_max_sessions_rejects_immediately(self):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("onyx", "centrino"))
        grid.register_tenant(TenantQuota(tenant="acme", max_sessions=1,
                                         max_share=1.0))
        grid.request_session("acme", "s0", scene(0))
        d = grid.request_session("acme", "s1", scene(1))
        assert d.outcome == EVENT_REJECT
        assert "1/1 sessions" in d.reason
        assert d.retry_after == 0.0     # not a capacity problem: no point waiting

    def test_max_share_caps_a_greedy_tenant(self):
        tb = build_testbed()
        grid = small_grid(tb)
        grid.register_tenant(TenantQuota(tenant="greedy", max_sessions=8,
                                         max_share=0.5))
        grid.request_session("greedy", "s0", scene(0))
        d = grid.request_session("greedy", "s1", scene(1))
        assert d.outcome == EVENT_REJECT
        assert "pool share" in d.reason

    def test_unknown_tenant_gets_the_default_quota(self):
        tb = build_testbed()
        grid = small_grid(
            tb, default_quota=TenantQuota(tenant="*", max_sessions=1))
        grid.request_session("walkin", "s0", scene(0))
        assert grid.quota("walkin").max_sessions == 1
        assert "walkin" in grid.tenants()

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", max_sessions=0)
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", max_share=1.5)
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", max_share=0.5, guaranteed_share=0.6)
        with pytest.raises(ValueError):
            TenantQuota(tenant="t", fps_floor_fraction=0.0)


class TestQueueLifecycle:
    def test_release_pumps_the_queue_in_fifo_order(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        admitted = []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2),
                             on_admit=lambda d: admitted.append(d))
        resolved = grid.release_session("s0")
        assert [d.session_id for d in resolved] == ["s2"]
        assert resolved[0].outcome == EVENT_ADMIT
        assert admitted and admitted[0].session_id == "s2"
        assert grid.queue_depth() == 0
        with pytest.raises(SessionError):
            grid.session("s0")

    def test_deadline_expiry_becomes_an_explicit_reject(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        rejected = []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2),
                             on_reject=lambda d: rejected.append(d))
        # the deadline tick fires the reject during run_until — no
        # manual pump needed any more
        tb.network.sim.run_until(tb.clock.now + 6.0)
        assert rejected and rejected[0].session_id == "s2"
        assert rejected[0].outcome == EVENT_REJECT
        assert rejected[0].reason == REASON_QUEUE_TIMEOUT
        assert grid.queue_timeouts == 1
        # and a later explicit pump has nothing left to resolve
        assert grid.pump() == []

    def test_head_of_line_blocks_fifo_strictly(self):
        """A small request never skips past a big head-of-line request."""
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=4)
        open_tenants(grid, "acme", "beta", "gamma", "delta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("gamma", "big", scene("big", nu=32))
        grid.request_session("delta", "tiny", scene("tiny", nu=8))
        # freeing one slot covers "tiny" but not "big": nobody admits
        grid.release_session("s1")
        assert grid.queue_position("big") == 1
        # the tiny request is still waiting behind the big one
        assert grid.queue_position("tiny") == 2

    def test_pump_rechecks_quota_at_the_head(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=4)
        grid.register_tenant(TenantQuota(tenant="acme", max_sessions=2,
                                         max_share=1.0))
        grid.register_tenant(TenantQuota(tenant="beta", max_sessions=8,
                                         max_share=1.0,
                                         guaranteed_share=0.0))
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2))
        grid.request_session("acme", "s3", scene(3))
        resolved = grid.release_session("s1")
        # s2 admits (acme back at 2/2), s3 now violates max_sessions
        outcomes = {d.session_id: d.outcome for d in resolved}
        assert outcomes["s2"] == EVENT_ADMIT
        assert outcomes["s3"] == EVENT_REJECT


class TestReleaseClosesItsDataSession:
    """A released session used to leave behind the data session its
    admission created, with its scene tree and audit trail: a grid held
    one per admission it ever made."""

    def test_release_closes_the_data_session_admission_made(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        ds = tb.data_service

        def held():
            return (len(ds.sessions()), len(ds.container.instances("data")),
                    ds.telemetry.registry.value("rave_ds_sessions"))

        before = held()
        assert grid.request_session("acme", "s0", scene(0)).outcome \
            == EVENT_ADMIT
        assert held() == (before[0] + 1, before[1] + 1, before[2] + 1)
        grid.release_session("s0")
        assert held() == before

    def test_a_data_session_from_before_admission_survives_release(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        tb.data_service.create_session("shared", scene(0))
        assert grid.request_session("acme", "shared", scene(0)).outcome \
            == EVENT_ADMIT
        grid.release_session("shared")
        assert tb.data_service.session("shared").session_id == "shared"

    def test_closing_a_data_session_charges_no_time(self):
        tb = build_testbed()
        tb.data_service.create_session("s", scene(0))
        now = tb.clock.now
        tb.data_service.close_session("s")
        assert tb.clock.now == now
        assert "s" not in {s.session_id for s in tb.data_service.sessions()}


class TestRejectWireContract:
    def test_reject_frame_round_trips_the_429(self):
        frame = frame_reject("grid full", 12.5, tenant="acme",
                             session_id="s9", queue_depth=3)
        info = unframe_reject(frame)
        assert info.status == 429
        assert info.reason == "grid full"
        assert info.retry_after == 12.5
        assert info.tenant == "acme"
        assert info.session_id == "s9"
        assert info.queue_depth == 3

    def test_grid_rejects_carry_a_ready_frame(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        d = grid.request_session("acme", "s2", scene(2))
        info = unframe_reject(d.reject_frame)
        assert info.status == 429
        assert info.tenant == "acme"
        assert info.session_id == "s2"

    def test_thin_client_surfaces_the_429(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        d = client.open_grid_session(grid, "acme", "s0", scene(0))
        assert d.outcome == EVENT_ADMIT
        assert client.attached
        client.open_grid_session(grid, "beta", "s1", scene(1))
        with pytest.raises(TooManyRequestsError) as err:
            client.open_grid_session(grid, "acme", "s2", scene(2))
        assert err.value.status == 429
        assert err.value.tenant == "acme"
        assert err.value.retry_after == grid.queue_timeout


class TestShedAndRestore:
    def saturated_grid(self, tb):
        grid = small_grid(tb)
        grid.register_tenant(TenantQuota(
            tenant="gold", priority=2, max_sessions=8, max_share=1.0,
            guaranteed_share=0.1))
        grid.register_tenant(TenantQuota(
            tenant="bronze", priority=0, max_sessions=8, max_share=1.0,
            guaranteed_share=0.0))
        grid.request_session("gold", "g0", scene("g0"))
        grid.request_session("bronze", "b0", scene("b0"))
        return grid

    def test_shed_degrades_the_lowest_priority_tenant_first(self):
        grid = self.saturated_grid(build_testbed())
        action = grid.shed()
        assert action.action == "degrade"
        assert action.tenant == "bronze"
        bronze = grid.session("b0")
        assert bronze.fps_budget < bronze.requested_fps
        assert bronze.degraded
        gold = grid.session("g0")
        assert gold.fps_budget == gold.requested_fps

    def test_degrade_clamps_at_the_session_fps_floor(self):
        grid = self.saturated_grid(build_testbed())
        for _ in range(10):
            grid.shed()
        bronze = grid.session("b0")
        if not bronze.parked:
            assert bronze.fps_budget >= bronze.fps_floor
        # the floor is a quarter of the requested rate by default
        assert bronze.fps_floor == pytest.approx(bronze.requested_fps * 0.25)

    def test_parking_releases_capacity_back_to_the_pool(self):
        grid = self.saturated_grid(build_testbed())
        before = grid.spare_pps()
        actions = []
        for _ in range(10):
            a = grid.shed()
            if a is None:
                break
            actions.append(a)
        assert "park" in [a.action for a in actions]
        bronze = grid.session("b0")
        assert bronze.parked
        assert bronze.pps == 0.0
        assert grid.spare_pps() > before
        # the parked session's shares really left the members
        assert not any(bronze.session.share_of(s)
                       for s in bronze.session.render_services)

    def test_shed_never_breaches_the_guaranteed_floor(self):
        tb = build_testbed()
        grid = small_grid(tb)
        # gold's guaranteed share covers its whole session: unparkable
        grid.register_tenant(TenantQuota(
            tenant="gold", priority=2, max_sessions=8, max_share=1.0,
            guaranteed_share=0.5))
        grid.request_session("gold", "g0", scene("g0"))
        before = grid.tenant_pps("gold")
        assert before <= grid._tenant_floor_pps("gold")
        for _ in range(10):
            if grid.shed() is None:
                break
        # already at/below its guaranteed floor: shed must not touch it
        gold = grid.session("g0")
        assert not gold.parked
        assert not gold.degraded
        assert grid.tenant_pps("gold") == before

    def test_park_then_pump_admits_the_waiting_request(self):
        tb = build_testbed()
        grid = self.saturated_grid(tb)
        d = grid.request_session("gold", "g1", scene("g1"))
        assert d.outcome == EVENT_QUEUE
        for _ in range(10):
            if grid.shed() is None:
                break
        resolved = grid.pump()
        assert [(r.session_id, r.outcome) for r in resolved] \
            == [("g1", EVENT_ADMIT)]

    def test_restore_unparks_and_raises_budgets_once_pressure_clears(self):
        tb = build_testbed()
        grid = self.saturated_grid(tb)
        for _ in range(10):
            if grid.shed() is None:
                break
        assert grid.session("b0").parked
        grid.grow()                     # capacity arrives
        for _ in range(10):
            if grid.restore() is None:
                break
        bronze = grid.session("b0")
        assert not bronze.parked
        assert bronze.fps_budget == bronze.requested_fps
        assert not bronze.degraded

    def test_shed_to_fit_reacts_to_a_shrunken_pool(self):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "athlon"))
        open_tenants(grid, "gold", "bronze")
        grid.request_session("gold", "g0", scene("g0"))
        grid.request_session("bronze", "b0", scene("b0"))
        grid.request_session("gold", "g1", scene("g1"))
        grid.handle_member_failure("rs-athlon")
        assert grid.committed_pps() > grid.pool_pps()
        actions = grid.shed_to_fit()
        assert actions
        assert grid.committed_pps() <= grid.pool_pps()

    def test_a_dead_members_tenants_still_count_until_recovered(self):
        """The shares a failed member held stay owed to its tenants: no
        new session and no unpark may take that rate from the survivors
        before the tenants recover onto them."""
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "athlon"),
                          queue_capacity=4)
        open_tenants(grid, "gold", "bronze")
        for tenant, sid in (("gold", "g0"), ("bronze", "b0"),
                            ("gold", "g1")):
            grid.request_session(tenant, sid, scene(sid))
        grid.handle_member_failure("rs-athlon")
        assert grid.spare_pps() <= grid.pool_pps() - grid.committed_pps() < 0
        decision = grid.request_session("gold", "late", scene("late", nu=8))
        assert decision.outcome == EVENT_QUEUE
        assert grid.shed_to_fit()
        assert any(gs.parked for gs in grid.sessions())
        restored = grid.restore()
        assert restored is None or restored.action != "unpark"
        grid.pump()
        assert grid.committed_pps() <= grid.pool_pps()


class TestPoolScaling:
    def test_grow_recruits_via_uddi_and_pump_drains(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=4)
        open_tenants(grid, "acme", "beta")
        queued = []
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            d = grid.request_session(tenant, f"s{i}", scene(i))
            if d.outcome == EVENT_QUEUE:
                queued.append(f"s{i}")
        assert queued
        grown = grid.grow()
        assert grown and grown[0].name not in ("rs-centrino",)
        resolved = grid.pump()
        assert {d.session_id for d in resolved} == set(queued)
        assert all(d.outcome == EVENT_ADMIT for d in resolved)
        assert grid.queue_depth() == 0

    def test_release_idle_keeps_members_carrying_shares(self):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "onyx"))
        open_tenants(grid, "acme")
        grid.request_session("acme", "s0", scene(0))
        released = grid.release_idle(min_members=1)
        assert len(grid.members) >= 1
        for name in released:
            assert all(name not in {s.name for s in gs.session.render_services}
                       for gs in grid.sessions())

    def test_rejection_rate_decays_with_the_window(self):
        """The monitor derives the rate from the grid's reject counter;
        with no new reject it decays to 0 within its 10 s window."""
        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, queue_capacity=0)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2))
        tb.network.sim.run_until(tb.clock.now + 1.5)
        assert tb.monitor.grid_values()["rave_grid_rejection_rate"] > 0
        tb.network.sim.run_until(tb.clock.now + 30.0)
        assert tb.monitor.grid_values()["rave_grid_rejection_rate"] == 0.0


class TestGridObservability:
    def test_every_decision_reaches_the_flight_recorder(self):
        tb = build_testbed()
        with obs.observed(clock=tb.clock) as bundle:
            grid = small_grid(tb, queue_capacity=1)
            open_tenants(grid, "acme", "beta")
            for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
                grid.request_session(tenant, f"s{i}", scene(i))
            for _ in range(10):
                if grid.shed() is None:
                    break
            grid.pump()
            kinds = [e.kind for e in bundle.recorder.events()]
        assert EVENT_ADMIT in kinds
        assert EVENT_QUEUE in kinds
        assert EVENT_REJECT in kinds
        assert "shed" in kinds

    def test_grid_telemetry_exports_admission_gauges(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        from repro.obs.telemetry import flatten_metrics

        payload = grid.telemetry.scrape(now=grid.now)
        assert payload["kind"] == "grid"
        flat = flatten_metrics(payload["metrics"])
        assert flat["rave_queue_depth"] == 1
        assert flat["rave_admission_rejects_total"] > 0
        assert flat["rave_admission_sessions"] == 2
        assert 0 < flat["rave_admission_pool_utilisation"] <= 1.0
        assert flat["rave_queue_wait_seconds_count"] >= 2
        tenants = {s["labels"]["tenant"]: s["value"] for s in
                   payload["metrics"]["rave_tenant_sessions"]["series"]}
        assert tenants == {"acme": 1.0, "beta": 1.0}

    def test_tenant_gauge_returns_to_zero_after_the_last_release(self):
        """A tenant whose last session ended used to keep its old count
        for good: the gauge was only set for tenants holding a session."""
        from repro.obs.telemetry import flatten_metrics

        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        # "walk-in" has no registered quota: it runs on the default one
        for tenant in ("acme", "walk-in"):
            grid.request_session(tenant, f"s-{tenant}", scene(0, nu=8))

        def tenant_gauges():
            payload = grid.telemetry.scrape(now=grid.now)
            return ({s["labels"]["tenant"]: s["value"] for s in
                     payload["metrics"]["rave_tenant_sessions"]["series"]},
                    flatten_metrics(payload["metrics"]))

        assert tenant_gauges()[0] == {"acme": 1.0, "walk-in": 1.0}
        grid.release_session("s-acme")
        assert tenant_gauges()[0] == {"acme": 0.0, "walk-in": 1.0}
        grid.release_session("s-walk-in")
        gauges, flat = tenant_gauges()
        assert gauges == {"acme": 0.0, "walk-in": 0.0}
        assert flat["rave_admission_sessions"] == sum(gauges.values()) == 0

    def test_monitor_scrapes_the_grid_like_any_service(self):
        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        tb.network.sim.run_until(tb.clock.now + 3.0)
        values = tb.monitor.grid_values()
        assert values["rave_grid_queue_depth"] == 1.0
        assert values["rave_grid_rejection_rate"] > 0

    def test_sustained_saturation_fires_the_grid_saturated_alert(self):
        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, queue_capacity=1, queue_timeout=600.0)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        tb.network.sim.run_until(tb.clock.now + 30.0)
        names = {a.rule for a in tb.monitor.firing_alerts()}
        assert "grid-saturated" in names

    def test_dashboard_renders_the_admission_section(self):
        from repro.obs.dashboard import render_dashboard

        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, queue_capacity=1)
        open_tenants(grid, "acme", "beta")
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            grid.request_session(tenant, f"s{i}", scene(i))
        tb.network.sim.run_until(tb.clock.now + 3.0)
        text = render_dashboard(tb.monitor.snapshot())
        assert "admission (rave-grid)" in text
        assert "queue depth" in text
        assert "acme" in text and "beta" in text


class TestAutoscalerGridMode:
    def test_sustained_rejections_grow_the_pool_and_drain_the_queue(self):
        tb = build_testbed(monitor_host="registry-host", autoscale=True)
        grid = small_grid(tb, queue_capacity=4, queue_timeout=600.0)
        open_tenants(grid, "acme", "beta")
        auto = tb.autoscale(grid, cooldown_seconds=5.0, period=1.0)
        queued = []
        for i, tenant in enumerate(["acme", "beta", "acme", "beta"]):
            d = grid.request_session(tenant, f"s{i}", scene(i))
            if d.outcome == EVENT_QUEUE:
                queued.append(f"s{i}")
        assert queued
        sim = tb.network.sim
        for _ in range(60):
            sim.run_until(sim.now + 1.0)
            if grid.queue_depth() == 0 and len(grid.members) > 1:
                break
        assert len(grid.members) > 1
        assert grid.queue_depth() == 0
        assert len(grid.sessions()) == 4
        assert any(e.kind == "grow" for e in auto.events)

    def test_quiet_grid_releases_idle_members(self):
        tb = build_testbed(monitor_host="registry-host", autoscale=True)
        grid = small_grid(tb, member_hosts=("centrino", "onyx"))
        open_tenants(grid, "acme")
        tb.autoscale(grid, cooldown_seconds=5.0, period=1.0,
                     min_services=1)
        sim = tb.network.sim
        for _ in range(120):
            sim.run_until(sim.now + 1.0)
            if len(grid.members) == 1:
                break
        assert len(grid.members) == 1


class TestPumpReentrancy:
    """Satellite regression: a callback pumping mid-pump is safe.

    ``pump()`` snapshots the expired entries before resolving them; an
    ``on_reject`` callback that synchronously pumps again (a thin client
    retrying on 429) used to drain the remaining expired entries inside
    the recursive call, so the outer pass's ``remove()`` hit an entry
    that was already gone and raised ``ValueError`` out of admission.
    """

    def test_on_reject_pumping_again_does_not_corrupt_the_pass(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        rejected = []

        def retry_now(decision):
            rejected.append(decision.session_id)
            grid.pump()             # reentrant: must be a quiet no-op

        grid.request_session("acme", "s0", scene(0))    # these two fill
        grid.request_session("beta", "s1", scene(1))    # the grid
        grid.request_session("acme", "s2", scene(2), on_reject=retry_now)
        grid.request_session("beta", "s3", scene(3), on_reject=retry_now)
        assert grid.queue_depth() == 2
        tb.network.sim.clock.advance(6.0)   # both deadlines pass together
        resolved = grid.pump()
        assert rejected == ["s2", "s3"]
        assert {d.session_id for d in resolved} == {"s2", "s3"}
        assert grid.queue_timeouts == 2
        assert grid.queue_depth() == 0


class TestDeadlineDrivenByTheClock:
    """Satellite regression: queue deadlines fire from the simulated clock.

    Before the fix, ``pump()`` ran only from ``release_session()`` and
    the autoscaler tick — a queued request whose deadline passed on a
    quiet grid sat in limbo forever and its ``on_reject`` never fired.
    """

    def test_expiry_fires_without_any_pump_or_release(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        rejected = []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2),
                             on_reject=lambda d: rejected.append(d))
        deadline = grid._queue[0].deadline
        # nobody releases, nobody pumps: only the clock advances
        tb.network.sim.run_until(deadline + 30.0)
        assert [d.session_id for d in rejected] == ["s2"]
        assert rejected[0].reason == REASON_QUEUE_TIMEOUT
        # and the 429 happened *at* the deadline, not half a minute late
        assert rejected[0].time == pytest.approx(deadline)
        assert grid.queue_timeouts == 1
        assert grid.queue_depth() == 0

    def test_resolved_entries_make_the_tick_a_no_op(self):
        """An admitted entry's stale deadline tick must not re-reject it."""
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme", "beta")
        admitted, rejected = [], []
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("beta", "s2", scene(2),
                             on_admit=lambda d: admitted.append(d),
                             on_reject=lambda d: rejected.append(d))
        grid.release_session("s0")      # admits s2 well before its deadline
        assert [d.session_id for d in admitted] == ["s2"]
        tb.network.sim.run_until(tb.clock.now + 60.0)
        assert rejected == []
        assert grid.queue_timeouts == 0


class TestDuplicateAdmission:
    """Satellite regression: double-submitting a session id is refused.

    Before the fix, re-requesting an id that was already *queued* charged
    the queue twice and could admit the same session id twice, the second
    admit silently overwriting the first ``GridSession`` and leaking its
    capacity shares.
    """

    def test_duplicate_of_a_queued_id_is_rejected_not_requeued(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        first = grid.request_session("acme", "s2", scene(2))
        assert first.outcome == EVENT_QUEUE
        dup = grid.request_session("acme", "s2", scene(2))
        assert dup.outcome == EVENT_REJECT
        assert dup.reason == REASON_DUPLICATE
        # the dup carries a decodable 429 like every other reject
        info = unframe_reject(dup.reject_frame)
        assert info.status == 429
        assert info.reason == REASON_DUPLICATE
        # the original request is untouched: one entry, same position
        assert grid.queue_depth() == 1
        assert grid.queue_position("s2") == 1

    def test_duplicate_never_admits_the_same_id_twice(self):
        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme", "beta")
        grid.request_session("acme", "s0", scene(0))
        grid.request_session("beta", "s1", scene(1))
        grid.request_session("acme", "s2", scene(2))
        grid.request_session("acme", "s2", scene(2))     # the double-submit
        resolved = grid.release_session("s0")
        admits = [d for d in resolved if d.outcome == EVENT_ADMIT]
        assert [d.session_id for d in admits] == ["s2"]
        assert grid.queue_depth() == 0
        assert len(grid.tenant_sessions("acme")) == 1

    def test_pump_never_readmits_an_already_admitted_head(self):
        """Defence in depth at the head of the line.

        Even if a queued entry's id somehow becomes admitted while it
        waits (the pre-fix double-submit window), pump resolves it as an
        explicit duplicate reject instead of overwriting the live
        session.
        """
        from repro.core.grid import QueuedRequest

        tb = build_testbed()
        grid = small_grid(tb)
        open_tenants(grid, "acme")
        grid.request_session("acme", "s0", scene(0))
        live = grid.session("s0")
        rejected = []
        grid._queue.append(QueuedRequest(
            tenant="acme", session_id="s0", tree=scene(0),
            target_fps=FPS, demand_polygons=1, enqueued_at=grid.now,
            deadline=grid.now + 60.0,
            on_reject=lambda d: rejected.append(d)))
        resolved = grid.pump()
        assert [d.outcome for d in resolved] == [EVENT_REJECT]
        assert resolved[0].reason == REASON_DUPLICATE
        assert rejected and rejected[0].session_id == "s0"
        assert grid.session("s0") is live


class TestClientHonoursRetryAfter:
    """Satellite regression: the 429's retry_after is an actionable hint.

    Before the fix, ``ThinClient.open_grid_session`` could only raise on
    a reject; callers wanting to come back later had to hand-roll the
    sleep.  Now ``retries=`` waits out the server-supplied
    ``retry_after`` on the simulated clock — during which queued events
    (like a release freeing capacity) actually run.
    """

    def test_retry_after_round_trips_the_wire(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0, queue_timeout=12.5)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        client.open_grid_session(grid, "acme", "s0", scene(0))
        client.open_grid_session(grid, "beta", "s1", scene(1))
        with pytest.raises(TooManyRequestsError) as err:
            client.open_grid_session(grid, "acme", "s2", scene(2))
        # the value the client raises is the one the frame carried
        assert err.value.retry_after == 12.5

    def test_client_sleeps_retry_after_then_succeeds(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0, queue_timeout=10.0)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        client.open_grid_session(grid, "acme", "s0", scene(0))
        client.open_grid_session(grid, "beta", "s1", scene(1))
        sim = tb.network.sim
        # capacity frees while the client sleeps off the retry_after
        sim.schedule(4.0, lambda: grid.release_session("s0"))
        t0 = sim.now
        decision = client.open_grid_session(grid, "acme", "s2", scene(2),
                                            retries=1)
        assert decision.outcome == EVENT_ADMIT
        assert client.admission_retries == 1
        # the wait really ran on the simulated clock
        assert sim.now - t0 >= 10.0
        assert client.attached

    def test_exhausted_retries_still_raise_the_429(self):
        tb = build_testbed()
        grid = small_grid(tb, queue_capacity=0, queue_timeout=3.0)
        open_tenants(grid, "acme", "beta")
        client = tb.thin_client("pda")
        client.open_grid_session(grid, "acme", "s0", scene(0))
        client.open_grid_session(grid, "beta", "s1", scene(1))
        with pytest.raises(TooManyRequestsError) as err:
            client.open_grid_session(grid, "acme", "s2", scene(2),
                                     retries=2)
        assert err.value.retry_after == 3.0
        assert client.admission_retries == 2


class TripwireTree(SceneTree):
    """A scene tree that may no longer be walked."""

    def __iter__(self):
        raise AssertionError(f"{self.name}: a policy query walked the tree")


def arm(tree: SceneTree) -> None:
    """From now on any walk of ``tree`` or of a subtree in it raises."""
    def walked():
        raise AssertionError(f"{tree.name}: a policy query walked a subtree")

    for node in list(tree.root.iter_subtree()):
        node.iter_subtree = walked
    tree.__class__ = TripwireTree


class TestPolicyQueriesReadKeptCounts:
    """Admission asks every member how many polygons it has committed,
    at every request, pump and scrape.  The answers are counts the scene
    keeps where it changes, so a session already admitted is never walked
    again: its trees are armed to raise on any walk, and the grid goes on
    admitting, pumping, releasing, interrogating and scraping around it.
    """

    def test_an_armed_session_survives_the_grid_around_it(self):
        tb = build_testbed(monitor_host="registry-host")
        grid = small_grid(tb, member_hosts=("centrino", "athlon"),
                          queue_capacity=2)
        open_tenants(grid, "acme", "beta")
        assert grid.request_session("acme", "armed", scene("armed")
                                    ).outcome == EVENT_ADMIT
        committed = {s.name: s.committed_pps() for s in grid.members}
        copies = [rs.tree for s in grid.members
                  for rs in s.render_sessions() if rs.session_id == "armed"]
        assert copies
        for tree in [tb.data_service.session("armed").tree, *copies]:
            arm(tree)

        outcomes = [grid.request_session(tenant, f"s{i}", scene(i)).outcome
                    for i, tenant in enumerate(["beta", "acme"] * 3)]
        assert EVENT_ADMIT in outcomes and EVENT_QUEUE in outcomes
        grid.pump()
        tb.monitor.scrape_all()
        tb.monitor.observe_grid(tb.clock.now)
        tb.network.sim.run_until(tb.clock.now + 1.0)
        reports = {s.name: interrogate(s, tb.data_service.host)
                   for s in grid.members}
        for name, pps in committed.items():
            assert reports[name].committed_pps >= pps
        admitted = [gs.session_id for gs in grid.sessions()
                    if gs.session_id != "armed"]
        grid.release_session(admitted[0])
        grid.release_session("armed")
        tb.monitor.scrape_all()
        tb.network.sim.run_until(tb.clock.now + 1.0)
        assert "armed" not in {gs.session_id for gs in grid.sessions()}


class RollbackSpy:
    """Counts admission attempts that connected members and then let go.

    Wraps the grid's ``_try_admit`` and every session's ``disconnect``:
    an attempt that disconnects anything bootstrapped services it could
    not place.
    """

    def __init__(self, grid, monkeypatch):
        self.attempts = 0
        self.rolled_back = 0
        self._disconnects = 0
        real_disconnect = CollaborativeSession.disconnect
        real_try_admit = grid._try_admit

        def disconnect(session, service):
            self._disconnects += 1
            return real_disconnect(session, service)

        def try_admit(*args, **kwargs):
            before = self._disconnects
            decision = real_try_admit(*args, **kwargs)
            self.attempts += 1
            self.rolled_back += self._disconnects > before
            return decision

        monkeypatch.setattr(CollaborativeSession, "disconnect", disconnect)
        monkeypatch.setattr(grid, "_try_admit", try_admit)


def member_use(grid):
    """Each live member's committed polygon rate over its capacity."""
    return {m.name: m.utilisation() for m in grid.live_members()}


class TestOneCapacityModel:
    """Admission, placement, migration and the utilisation gauge read one
    figure: a member's committed polygon rate, with every render session
    on it, grid tenant or stand-alone, charged at its own frame rate.

    Placement used to re-check each member's raw polygon count at the
    *newcomer's* rate, and the grid charged a stand-alone co-tenant at
    the grid's base rate.  Tenants at different frame rates on the athlon
    (11 Mpps) and the centrino (8.4 Mpps) show how the models disagreed.
    """

    RATES = (10.0, 60.0, 600.0, 1346.0, 3000.0)

    @given(steps=st.lists(
        st.tuples(st.booleans(), st.sampled_from(RATES),
                  st.sampled_from((8, 24, 40)),
                  st.sampled_from(("centrino", "athlon"))),
        min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_every_reader_charges_each_session_at_its_own_rate(self, steps):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "athlon"),
                          target_fps=DEFAULT_TARGET_FPS)
        open_tenants(grid, "acme", "beta")
        fps_of = {}
        for k, (pooled, fps, nu, host) in enumerate(steps):
            sid = f"s{k}"
            fps_of[sid] = fps
            if pooled:
                grid.request_session(("acme", "beta")[k % 2], sid,
                                     scene(sid, nu=nu), target_fps=fps)
            else:
                tb.publish_tree(sid, scene(sid, nu=nu))
                alone = CollaborativeSession(tb.data_service, sid,
                                             target_fps=fps)
                service = tb.render_service(host)
                alone.connect(service)
                try:
                    alone.place_dataset()
                except InsufficientResources:
                    alone.disconnect(service)
            spare = 0.0
            for member in grid.live_members():
                rate = member.capacity().polygons_per_second
                committed = sum(rs.assigned_polygons() * fps_of[rs.session_id]
                                for rs in member.render_sessions())
                assert committed <= rate * (1 + 1e-9), member.name
                spare += rate - committed
                # the scheduler's interrogation, at any newcomer's rate
                report = interrogate(member, tb.data_service.host)
                for rate_asked in self.RATES:
                    assert report.headroom(rate_asked) == max(
                        0.0, rate / rate_asked - committed / rate_asked)
                # the scraped gauge the monitor's rules fire on, and so
                # the migrator and the autoscaler act on
                member.telemetry.collect()
                assert member.telemetry.registry.value(
                    "rave_rs_utilisation") == committed / rate
            assert grid.spare_pps() == spare

    def test_a_stand_alone_co_tenant_is_charged_at_its_own_rate(self):
        """Half the centrino held by a stand-alone 1 346 fps session used
        to read 99.6 % spare to a 10 fps grid, which then admitted a
        request for 0.9 of the member's rate and left it at 1.40x."""
        tb = build_testbed()
        grid = small_grid(tb, target_fps=DEFAULT_TARGET_FPS)
        open_tenants(grid, "acme")
        centrino = tb.render_service("centrino")
        rate = centrino.capacity().polygons_per_second
        tb.publish_tree("alone", scene("alone", nu=40))
        alone = CollaborativeSession(tb.data_service, "alone",
                                     target_fps=1346.0)
        alone.connect(centrino)
        alone.place_dataset()
        request = scene("grid")
        decision = grid.request_session(
            "acme", "grid", request,
            target_fps=0.9 * rate / request.total_polygons())
        assert decision.outcome in (EVENT_QUEUE, EVENT_REJECT)
        assert centrino.utilisation() == pytest.approx(0.5, rel=1e-3)

    def two_member_grid(self, tb):
        grid = small_grid(tb, member_hosts=("centrino", "athlon"),
                          queue_capacity=4)
        open_tenants(grid, "slow", "fast")
        return grid

    def test_a_high_fps_request_the_ledger_holds_bootstraps_once(
            self, monkeypatch):
        tb = build_testbed()
        grid = self.two_member_grid(tb)
        # 1 104 polygons at 1 000 fps: 1.1 Mpps, single on the athlon
        assert grid.request_session("slow", "slow", scene("slow"),
                                    target_fps=1000.0).outcome == EVENT_ADMIT
        spy = RollbackSpy(grid, monkeypatch)
        # 112 polygons at 15 Mpps needs both members; charged at this
        # rate, the slow tenant's raw 1 104 polygons filled the athlon
        fast = grid.request_session("fast", "fast", scene("fast", nu=8),
                                    target_fps=15e6 / 112)
        assert fast.outcome == EVENT_ADMIT
        assert (spy.attempts, spy.rolled_back) == (1, 0)
        assert not grid.rollbacks
        assert max(member_use(grid).values()) <= 1.0

    def test_a_low_fps_request_is_never_placed_past_a_member(self):
        tb = build_testbed()
        grid = self.two_member_grid(tb)
        # 112 polygons at 60 000 fps: 6.7 of the athlon's 11 Mpps
        assert grid.request_session("fast", "fast", scene("fast", nu=8),
                                    target_fps=60000.0).outcome \
            == EVENT_ADMIT
        # 1 104 polygons at 10 000 fps fits the pool's 12.7 Mpps spare;
        # charged at 10 000 fps, the fast tenant's 112 polygons looked
        # like 1.1 Mpps and the athlon took ~990 polygons (16.6 Mpps)
        slow = grid.request_session("slow", "slow", scene("slow"),
                                    target_fps=10000.0)
        assert slow.outcome == EVENT_ADMIT
        use = member_use(grid)
        assert max(use.values()) <= 1.0, use
        assert not grid.rollbacks

    def test_a_request_short_of_whole_polygons_connects_nothing(
            self, monkeypatch):
        tb = build_testbed()
        grid = self.two_member_grid(tb)
        spy = RollbackSpy(grid, monkeypatch)
        # exactly the pool's rate: the ledger holds it, but its two
        # fractional headrooms floor to 111 whole polygons, not 112
        decision = grid.request_session(
            "fast", "fast", scene("fast", nu=8),
            target_fps=grid.pool_pps() / 112)
        assert decision.outcome == EVENT_QUEUE
        assert spy.rolled_back == 0
        assert not grid.rollbacks

    def test_a_rollback_is_counted_by_cause_and_still_queues(
            self, monkeypatch):
        """A placement that fails after connecting (here: a bootstrap
        that outlasts the queue timeout, then a fault) is rolled back,
        named, and queued with its deadline counted from the rollback."""
        tb = build_testbed()
        grid = small_grid(tb, queue_timeout=5.0)
        open_tenants(grid, "acme")

        def failing_place(session):
            tb.network.sim.run_until(tb.clock.now + 30.0)
            raise ServiceError("render service fault mid-placement")

        monkeypatch.setattr(CollaborativeSession, "place_dataset",
                            failing_place)
        spy = RollbackSpy(grid, monkeypatch)
        decision = grid.request_session("acme", "s0", scene(0))
        assert decision.outcome == EVENT_QUEUE
        assert spy.rolled_back == 1
        assert grid.rollbacks == {"ServiceError": 1}
        assert grid._queue[0].deadline == pytest.approx(grid.now + 5.0)


class TestLedgerProperty:
    """Any mixed-fps request/release sequence keeps every member within
    its polygon rate, and every admission that connects and then lets go
    is counted with a named cause."""

    SHARES = (0.05, 0.12, 0.2, 0.3, 0.45)

    @given(steps=st.lists(
        st.tuples(st.one_of(st.none(), st.floats(0.0, 0.999)),
                  st.integers(0, 3), st.sampled_from(SHARES),
                  st.sampled_from((8, 12, 24))),
        min_size=1, max_size=16))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_admission_never_overcommits_a_member(self, monkeypatch, steps):
        tb = build_testbed()
        grid = small_grid(tb, member_hosts=("centrino", "athlon"),
                          queue_capacity=4, queue_timeout=20.0)
        open_tenants(grid, *(f"t{i}" for i in range(4)), max_sessions=2)
        with monkeypatch.context() as patch:
            spy = RollbackSpy(grid, patch)
            sim = tb.network.sim
            for k, (release, tenant, share, nu) in enumerate(steps):
                admitted = grid.sessions()
                if release is not None and admitted:
                    grid.release_session(
                        admitted[int(release * len(admitted))].session_id)
                tree = scene(k, nu=nu)
                fps = share * grid.pool_pps() / tree.total_polygons()
                grid.request_session(f"t{tenant}", f"s{k}", tree,
                                     target_fps=fps)
                grid.pump()
                use = member_use(grid)
                assert max(use.values()) <= 1.0 + 1e-9, use
                sim.run_until(sim.now + 1.0)
            assert spy.rolled_back == sum(grid.rollbacks.values())
            assert "InsufficientResources" not in grid.rollbacks
