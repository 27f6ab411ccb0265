"""Fair-share scheduling under fire: mixed priorities, crash included.

The scheduler's headline promise, end to end on the simulated grid: a
long priority-0 animation is rendering on a two-worker farm when a
short priority-1 job from another tenant arrives.  The short job must
preempt at lease time and finish before the long job reaches its
midpoint — even though the seeded :class:`FaultInjector` kills the
worker holding one of the short job's frames mid-render.  Invariants:

- the short job finishes first, before the long job's midpoint;
- the killed frame is re-queued once and re-rendered by the survivor;
- both end-of-job ``checkframes`` audits are empty;
- nothing starves (the ``rave_farm_starved_jobs`` signal stays quiet);
- the same seed replays the whole story byte for byte.

A second, direct-drive half pins the bounded-wait property without the
controller in the way: whatever the job mix, no job in the top
priority class waits more than a weight-sum of leases for its turn,
and lower classes drain as soon as the class above them does.
"""

import pytest

from repro import obs
from repro.data.generators import galleon
from repro.farm import FRAME_DONE, FRAME_LEASED, RenderJob
from repro.network.faults import FaultInjector
from repro.services.protocol import unframe_farm_lease
from repro.testbed import build_testbed

SCENE = "scene"
LONG_SCENE, SHORT_SCENE = "scene-long", "scene-short"
LONG, SHORT = "anim-long", "anim-short"
LONG_FRAMES, SHORT_FRAMES = 40, 3


def run_scenario(seed):
    """Long job underway; short high-priority job arrives; crash.

    The short job renders a different scene, so its first lease on each
    worker pays the multi-second render-session bootstrap — a wide,
    deterministic window for the injector to kill the lease holder
    mid-render (the same trick as ``test_farm_chaos``).
    """
    tb = build_testbed(farm=True)
    tb.publish_model(LONG_SCENE, galleon(2000))
    tb.publish_model(SHORT_SCENE, galleon(2000))
    queue = tb.farm_queue
    sim = tb.network.sim

    with obs.observed(clock=tb.clock) as bundle:
        inj = FaultInjector(tb.network, seed=seed)
        farm = tb.render_farm(worker_hosts=("onyx", "v880z"),
                              dead_after=2.0)
        queue.submit(RenderJob(job_id=LONG, session_id=LONG_SCENE,
                               start_frame=1, end_frame=LONG_FRAMES,
                               priority=0, tenant="batch"))
        farm.start()
        # the long job is running (both workers hold its leases and are
        # deep in the session bootstrap) when the short job lands
        sim.run_until(sim.now + 1.0)
        assert queue.active_leases() == 2
        assert queue.job(LONG).done_frames == 0
        queue.submit(RenderJob(job_id=SHORT, session_id=SHORT_SCENE,
                               start_frame=1, end_frame=SHORT_FRAMES,
                               priority=1, tenant="viz"))
        # wait until a worker actually holds one of the short job's
        # frames, then kill that worker mid-render
        deadline = sim.now + 300.0
        victim = None
        while victim is None and sim.now < deadline:
            sim.run_until(sim.now + 0.25)
            for record in queue.job(SHORT).frames.values():
                if record.state == FRAME_LEASED:
                    victim = record.worker          # "rs-<host>"
                    break
        assert victim is not None, "short job never got a lease"
        inj.schedule_crash(sim.now + 0.25, victim.removeprefix("rs-"))
        while not (queue.job(SHORT).finished
                   and queue.job(LONG).finished) and sim.now < deadline:
            sim.run_until(sim.now + 0.5)
        story = [(e.kind, e.detail) for e in bundle.recorder.events()]
    # how far the long job had got when the short one finished — from
    # the ledger's timestamps, not wall sampling (the long job's tail
    # can rip through in well under one polling step)
    short_done_at = queue.job(SHORT).finished_at
    long_done_at_short_finish = sum(
        1 for f in queue.job(LONG).frames.values()
        if f.completed_at and f.completed_at <= short_done_at)
    return tb, farm, queue, long_done_at_short_finish, story


class TestMixedPriorityChaos:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_scenario(seed=17)

    def test_short_job_finishes_before_the_long_jobs_midpoint(
            self, scenario):
        _, _, queue, long_done, _ = scenario
        assert queue.job(SHORT).finished
        assert long_done < LONG_FRAMES // 2, (
            f"long job was {long_done}/{LONG_FRAMES} done when the "
            f"short job finished — no preemption happened")

    def test_the_crash_cost_time_not_frames(self, scenario):
        _, farm, queue, _, _ = scenario
        assert farm.frames_lost >= 1
        killed = [f for f in queue.job(SHORT).frames.values()
                  if f.requeues == 1]
        assert killed, "no short-job frame was ever re-queued"
        assert all(f.state == FRAME_DONE for f in killed)
        assert queue.duplicates_dropped == 0

    def test_both_audits_end_empty(self, scenario):
        _, _, queue, _, _ = scenario
        assert queue.job(LONG).finished
        assert queue.audit(LONG) == []
        assert queue.audit(SHORT) == []
        assert queue.frames_completed == LONG_FRAMES + SHORT_FRAMES

    def test_nothing_starved(self, scenario):
        _, _, queue, _, story = scenario
        assert queue.starved_jobs() == []
        assert all(kind != "farm:starved" for kind, _ in story)

    def test_the_story_shows_the_preemption(self, scenario):
        _, _, _, _, story = scenario
        # every short-job lease left at priority 1; the long job's
        # completions resumed only after the short job was done
        short_leases = [d for k, d in story
                        if k == "farm:lease" and SHORT in d]
        assert short_leases
        assert all("priority 1" in d for d in short_leases)
        short_done = next(i for i, (k, d) in enumerate(story)
                          if k == "farm:job-done" and SHORT in d)
        long_done = next(i for i, (k, d) in enumerate(story)
                         if k == "farm:job-done" and LONG in d)
        assert short_done < long_done

    def test_same_seed_same_story(self):
        *_, q1, d1, s1 = run_scenario(seed=23)
        *_, q2, d2, s2 = run_scenario(seed=23)
        assert s1 == s2
        assert d1 == d2
        assert q1.describe() == q2.describe()


class TestBoundedWaitProperty:
    """Direct-drive lease/complete loops against the DRR bound."""

    def drive(self, jobs, workers=2, rounds=400):
        """Lease/complete with a fixed pool until every job drains.

        Returns the full lease order (job ids) for gap analysis.
        """
        tb = build_testbed(farm=True)
        tb.publish_model(SCENE, galleon(2000))
        queue = tb.farm_queue
        for job in jobs:
            queue.submit(job)
        from repro.services.protocol import FarmResult, frame_farm_result

        order = []
        held = {}
        for _ in range(rounds):
            for w in [f"w{i}" for i in range(workers)]:
                if w not in held:
                    data = queue.lease(w)
                    if data is not None:
                        held[w] = unframe_farm_lease(data)
                        order.append(held[w].job_id)
            # everyone renders one tick, then completes
            tb.network.sim.clock.advance(0.1)
            for w, lease in list(held.items()):
                queue.complete(frame_farm_result(FarmResult(
                    job_id=lease.job_id, frame=lease.frame, worker=w,
                    render_seconds=0.1, nbytes=64,
                    attempt=lease.attempt)))
                del held[w]
            if all(j.finished for j in queue.jobs()):
                break
        assert all(j.finished for j in queue.jobs()), "a job never drained"
        return queue, order

    @staticmethod
    def job(job_id, frames, **kwargs):
        return RenderJob(job_id=job_id, session_id=SCENE,
                         start_frame=1, end_frame=frames, **kwargs)

    @pytest.mark.parametrize("weights", [
        (1.0, 1.0, 1.0),
        (2.0, 1.0, 1.0),
        (4.0, 2.0, 1.0),
        (1.0, 3.0, 1.0, 2.0),
    ])
    def test_no_job_waits_more_than_the_weight_sum(self, weights):
        jobs = [self.job(f"job-{i}", 20, weight=w)
                for i, w in enumerate(weights)]
        _, order = self.drive(jobs)
        window = int(sum(weights)) + 1
        for i in range(len(weights)):
            turns = [k for k, j in enumerate(order) if j == f"job-{i}"]
            worst = max(b - a for a, b in zip(turns, turns[1:]))
            assert worst <= window, (
                f"job-{i} (weight {weights[i]}) waited {worst} leases")

    def test_lower_class_drains_once_the_upper_one_does(self):
        jobs = [self.job("bg", 12, priority=0),
                self.job("fg", 6, priority=2)]
        queue, order = self.drive(jobs)
        # strict priority: not a single background lease before the
        # foreground job's last frame went out
        last_fg = max(k for k, j in enumerate(order) if j == "fg")
        assert all(j == "fg" for j in order[:last_fg + 1])
        assert queue.job("bg").finished

    def test_starved_signal_fires_only_past_the_threshold(self):
        tb = build_testbed(farm={"starvation_after": 2.0})
        tb.publish_model(SCENE, galleon(2000))
        queue = tb.farm_queue
        queue.submit(self.job("waiting", 4))
        tb.network.sim.clock.advance(1.0)
        assert queue.starved_jobs() == []
        tb.network.sim.clock.advance(1.5)
        assert queue.starved_jobs() == ["waiting"]
