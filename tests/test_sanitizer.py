"""RaveSanitizer: the dynamic half of the correctness tooling.

Unit tests drive each detector through a hand-built violation — a
scratch clock left installed, a nested event-loop entry mutating a
registered ledger, a hand-corrupted farm frame ledger — and the chaos
ride-along (already asserted inside the chaos suites' ``run_scenario``)
is repeated here on its own seed so ``pytest tests/test_sanitizer.py``
alone proves the tree runs clean under the sanitizer.
"""

import pytest

from repro import obs
from repro.data.generators import uv_sphere
from repro.errors import ServiceError
from repro.farm import RenderJob
from repro.network.clock import SimClock, Simulator
from repro.obs.recorder import FlightRecorder
from repro.sanitizer import RaveSanitizer
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.testbed import build_testbed

from tests.test_farm_chaos import run_scenario as run_farm_chaos
from tests.test_multitenant_chaos import run_scenario as run_grid_chaos


class TestAttachDetach:
    def test_attach_shadows_step_and_detach_restores(self):
        sim = Simulator()
        san = RaveSanitizer(sim).attach()
        assert sim.step.__func__ is RaveSanitizer._step
        ran = []
        sim.schedule(1.0, lambda: ran.append(sim.now))
        sim.run()
        assert ran == [1.0]
        assert san.events_checked == 1
        san.detach()
        assert sim.step.__func__ is Simulator.step
        with pytest.raises(ServiceError):
            RaveSanitizer(sim).attach().attach()

    def test_run_until_paths_are_also_instrumented(self):
        sim = Simulator()
        san = RaveSanitizer(sim).attach()
        sim.schedule(1.0, lambda: None, daemon=True)
        sim.run_until(2.0)
        assert san.events_checked == 1


class TestClockChecks:
    def test_forgotten_scratch_clock_is_a_violation(self):
        sim = Simulator()
        san = RaveSanitizer(sim).attach()

        def forgets_to_restore():
            sim.clock = SimClock(sim.clock.now)     # scratch, never undone

        sim.schedule(1.0, forgets_to_restore)
        sim.run()
        assert not san.ok
        assert san.violations[0].kind == "clock-swap"

    def test_restored_scratch_clock_is_clean(self):
        sim = Simulator()
        san = RaveSanitizer(sim).attach()

        def restores():
            real = sim.clock
            sim.clock = SimClock(real.now)
            try:
                sim.clock.advance(99.0)             # bootstrap on scratch
            finally:
                sim.clock = real

        sim.schedule(1.0, restores)
        sim.run()
        assert san.ok

    def test_strict_mode_raises_at_the_violation(self):
        sim = Simulator()
        RaveSanitizer(sim, strict=True).attach()
        sim.schedule(1.0, lambda: setattr(sim, "clock", SimClock()))
        with pytest.raises(ServiceError, match="clock-swap"):
            sim.run()


class TestReentrantMutation:
    def queue_and_sanitizer(self):
        sim = Simulator()
        san = RaveSanitizer(sim).attach()
        ledger = {"spent": 0}
        san.register_shared("ledger", ledger)
        return sim, san, ledger

    def test_nested_run_mutating_shared_state_is_a_violation(self):
        sim, san, ledger = self.queue_and_sanitizer()

        def outer():
            # re-enter the event loop with a mutation pending: exactly
            # the interleaving the daemon-race lint rule forbids
            sim.schedule(0.5, lambda: ledger.update(spent=1))
            sim.run_until(sim.now + 1.0)

        sim.schedule(1.0, outer)
        sim.run()
        assert not san.ok
        assert san.violations[0].kind == "reentrant"
        assert "ledger" in san.violations[0].detail

    def test_nested_run_leaving_shared_state_alone_is_clean(self):
        sim, san, ledger = self.queue_and_sanitizer()
        passed = []

        def outer():
            sim.schedule(0.5, lambda: passed.append(True))
            sim.run_until(sim.now + 1.0)

        sim.schedule(1.0, outer)
        sim.run()
        assert passed == [True]
        assert san.ok

    def test_top_level_mutation_is_not_reentrant(self):
        sim, san, ledger = self.queue_and_sanitizer()
        sim.schedule(1.0, lambda: ledger.update(spent=1))
        sim.run()
        assert san.ok


class TestConservation:
    def farm(self):
        tb = build_testbed(farm=True)
        queue = tb.farm_queue
        queue.submit(RenderJob(job_id="j", session_id="s",
                               start_frame=1, end_frame=3))
        san = RaveSanitizer(tb.network.sim).attach()
        san.watch_farm_queue(queue)
        return tb, queue, san

    def test_intact_ledger_checks_clean(self):
        tb, queue, san = self.farm()
        queue.lease("w0")
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert san.ok and san.events_checked == 1

    def test_corrupted_pending_deque_is_caught(self):
        tb, queue, san = self.farm()
        # simulate the double-requeue bug the lifecycle guards now
        # prevent: the same frame queued as pending twice
        queue._job_pending["j"].appendleft(queue._job_pending["j"][0])
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert not san.ok
        assert san.violations[0].kind == "conservation"
        assert "duplicate frame indexes" in san.violations[0].detail

    def test_exactly_once_drift_is_caught(self):
        tb, queue, san = self.farm()
        queue.frames_completed += 1         # a completion nobody rendered
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert not san.ok
        assert "exactly-once" in san.violations[0].detail

    def test_drifted_counter_and_lease_index_are_each_named(self):
        # the queue keeps state_counts and the lease index at its three
        # transitions; the invariant recounts both from the records
        tb, queue, san = self.farm()
        queue.lease("w0")
        job = queue.job("j")
        job.state_counts["done"] += 1       # a frame nobody completed
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert "state_counts says 1 done" in san.violations[-1].detail
        job.state_counts["done"] -= 1
        record = queue._leased.pop(("j", 1))    # a lease forgotten
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert len(san.violations) == 2
        assert "lease index holds []" in san.violations[-1].detail
        queue._leased["j", 2] = record          # and one misfiled
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert "lease index holds [('j', 2)]" in san.violations[-1].detail
        assert {v.kind for v in san.violations} == {"conservation"}

    def test_drifted_scene_count_is_caught(self):
        tb = build_testbed(render_hosts=("centrino",))
        tree = SceneTree(name="kept")
        mesh = tree.add(MeshNode(uv_sphere(nu=8, nv=8)))
        tb.data_service.create_session("kept", tree)
        service = tb.render_service("centrino")
        service.create_render_session(tb.data_service, "kept")
        san = RaveSanitizer(tb.network.sim).attach()
        san.watch_scene(tb.data_service, service)
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert san.ok and san.events_checked == 1
        tree.root.subtree_polygons += 1     # a count kept past a change
        tb.network.sim.schedule(1.0, lambda: None)
        tb.network.sim.run()
        assert not san.ok
        assert san.violations[0].kind == "conservation"
        assert (f"tree 'kept' node 0 keeps {mesh.n_polygons + 1} subtree "
                f"polygons but a walk counts {mesh.n_polygons}"
                in san.violations[0].detail)

    def test_violations_land_in_the_flight_recorder(self):
        recorder = FlightRecorder()
        sim = Simulator()
        san = RaveSanitizer(sim, recorder=recorder).attach()
        san.register_invariant("broken", lambda: "the books don't balance")
        sim.schedule(1.0, lambda: None)
        sim.run()
        kinds = [e.kind for e in recorder.events()]
        assert kinds == ["sanitizer:conservation"]
        assert "the books don't balance" in recorder.events()[0].detail

    def test_active_obs_recorder_is_the_default_sink(self):
        sim = Simulator()
        san = RaveSanitizer(sim).attach()
        san.register_invariant("broken", lambda: "off by one")
        with obs.observed() as bundle:
            sim.schedule(1.0, lambda: None)
            sim.run()
        kinds = [e.kind for e in bundle.recorder.events()]
        assert "sanitizer:conservation" in kinds
        assert not san.ok


class TestChaosRideAlong:
    """The whole tree runs sanitized with zero violations.

    ``run_scenario`` in each chaos suite asserts ``san.ok`` internally,
    so simply driving both scenarios here (fresh seeds, not the class
    fixtures' seeds) proves the invariants hold tree-wide.
    """

    def test_farm_chaos_is_sanitizer_clean(self):
        _, _, queue, story = run_farm_chaos(seed=101)
        assert queue.job("anim-chaos").finished
        assert not [k for k, _ in story if k.startswith("sanitizer:")]

    def test_grid_chaos_is_sanitizer_clean(self):
        grid, decisions, _, story = run_grid_chaos(seed=43)
        assert decisions
        assert not [k for k, _ in story if k.startswith("sanitizer:")]
