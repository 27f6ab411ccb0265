"""Multi-tenant grid under fire: overload + member crashes, seeded.

Eight tenants fight over a two-member pool while the fault injector
kills a member mid-run.  One scripted scenario, one seed, and three
invariants that must hold at *every* step:

- admitted, unparked sessions never starve — their fps budget stays at
  or above the per-session floor, and tenants at their guaranteed
  quota floor are never shed further;
- every reject carries an explicit, decodable 429 frame (nobody is
  silently dropped);
- the flight recorder tells the whole story — every admission decision
  and every shed action lands in it, and the same seed replays the
  same story byte for byte.
"""

import pytest

from repro import obs
from repro.core.grid import TenantQuota
from repro.data.generators import uv_sphere
from repro.network.faults import FaultInjector
from repro.obs.vocab import (
    EVENT_ADMIT,
    EVENT_QUEUE,
    EVENT_REJECT,
    EVENT_SHED,
)
from repro.sanitizer import RaveSanitizer
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.protocol import unframe_reject
from repro.testbed import build_testbed

FPS = 3000.0
POOL = ("centrino", "athlon")
TENANTS = tuple(f"t{i}" for i in range(8))


def scene(label, nu=24):
    tree = SceneTree(name=f"scene-{label}")
    tree.add(MeshNode(uv_sphere(nu=nu, nv=nu)))
    return tree


def run_scenario(seed):
    """The scripted overload-plus-crash story; returns the evidence."""
    tb = build_testbed()
    floors_held = []

    with obs.observed(clock=tb.clock) as bundle:
        inj = FaultInjector(tb.network, seed=seed)
        grid = tb.session_grid(member_hosts=POOL, queue_capacity=3,
                               queue_timeout=20.0, target_fps=FPS)
        san = RaveSanitizer(tb.network.sim).attach()
        san.watch_grid(grid)
        san.watch_scene(grid.data_service, *grid.members)
        # t0/t1 are gold (shed last, 10% guaranteed); the rest best-effort
        for i, tenant in enumerate(TENANTS):
            grid.register_tenant(TenantQuota(
                tenant=tenant, priority=(2 if i < 2 else 0),
                max_sessions=2, max_share=0.9,
                guaranteed_share=(0.10 if i < 2 else 0.0)))

        def check_floors():
            ok = all(gs.parked or gs.fps_budget >= gs.fps_floor
                     for gs in grid.sessions())
            floors_held.append(ok)

        sim = tb.network.sim
        # phase 1: every tenant asks at once — ~2.4x oversubscription
        for i, tenant in enumerate(TENANTS):
            grid.request_session(tenant, f"{tenant}-a", scene(i))
            check_floors()
        # phase 2: sustained pressure — shed the best-effort tenants
        for _ in range(6):
            sim.run_until(sim.now + 1.0)
            if grid.shed(sim.now) is None:
                break
            grid.pump(sim.now)
            check_floors()
        # phase 3: a member dies under full load
        inj.crash_host("athlon")
        grid.handle_member_failure("rs-athlon")
        for gs in grid.sessions():
            if any(s.name == "rs-athlon"
                   for s in gs.session.render_services):
                gs.session.handle_service_failure("rs-athlon")
        grid.shed_to_fit(sim.now)
        check_floors()
        # phase 4: the deadline passes for anyone still queued — the
        # deadline tick rejects them during run_until, no pump needed
        sim.run_until(sim.now + 25.0)
        grid.pump(sim.now)
        check_floors()
        # phase 5: the member comes back; restore walks the ladder up
        inj.restart_host("athlon")
        grid.failed_members.discard("rs-athlon")
        for _ in range(12):
            if grid.restore(sim.now) is None:
                break
            check_floors()
        grid.pump(sim.now)

        story = [(e.kind, e.detail) for e in bundle.recorder.events()]
    # the sanitizer rode along: no session double-charged, no share
    # node rendered by two members, no kept polygon count off from a
    # recount, the clock never jumped backwards
    assert san.ok, san.violations
    assert san.events_checked > 0
    # the grid's own log is the complete decision record — deadline
    # rejects resolve inside run_until, not in a pump() return value
    return grid, list(grid.decisions), floors_held, story


class TestMultiTenantChaos:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_scenario(seed=7)

    def test_the_pool_is_genuinely_oversubscribed(self, scenario):
        grid, decisions, _, _ = scenario
        outcomes = [d.outcome for d in decisions]
        assert outcomes.count(EVENT_ADMIT) >= 2
        assert EVENT_QUEUE in outcomes
        assert EVENT_REJECT in outcomes

    def test_admitted_sessions_never_starve(self, scenario):
        grid, _, floors_held, _ = scenario
        assert floors_held and all(floors_held)
        # and the gold tenants survived the crash un-shed
        for tenant in ("t0", "t1"):
            for gs in grid.tenant_sessions(tenant):
                assert not gs.parked

    def test_every_reject_carries_a_decodable_429(self, scenario):
        _, decisions, _, _ = scenario
        rejects = [d for d in decisions if d.outcome == EVENT_REJECT]
        assert rejects
        for d in rejects:
            info = unframe_reject(d.reject_frame)
            assert info.status == 429
            assert info.session_id == d.session_id
            assert info.reason == d.reason

    def test_flight_recorder_captured_every_decision(self, scenario):
        grid, decisions, _, story = scenario
        kinds = [k for k, _ in story]
        for outcome in (EVENT_ADMIT, EVENT_QUEUE, EVENT_REJECT):
            assert kinds.count(outcome) \
                == len([d for d in decisions if d.outcome == outcome])
        assert kinds.count(EVENT_SHED) == len(
            [a for a in grid.shed_actions
             if a.action in ("degrade", "park")])
        assert "fault:crash" in kinds
        # each decision's tenant/session pair is named in the story
        details = " | ".join(detail for _, detail in story)
        for d in decisions:
            assert f"{d.tenant}/{d.session_id}" in details

    def test_quota_floors_survive_the_crash(self, scenario):
        grid, _, _, _ = scenario
        for tenant in ("t0", "t1"):
            if grid.tenant_pps(tenant) > 0:
                assert grid.tenant_pps(tenant) \
                    >= grid._tenant_floor_pps(tenant) \
                    or not any(gs.degraded
                               for gs in grid.tenant_sessions(tenant))

    def test_same_seed_same_story(self):
        _, first_decisions, _, first_story = run_scenario(seed=23)
        _, replay_decisions, _, replay_story = run_scenario(seed=23)
        assert first_story == replay_story
        assert [(d.outcome, d.session_id, d.time)
                for d in first_decisions] \
            == [(d.outcome, d.session_id, d.time)
                for d in replay_decisions]
