"""The batch render farm: jobs, the frame queue, and the controller.

The farm contract under test, layer by layer:

- a :class:`RenderJob` tracks every frame pending → leased → done and
  its ``checkframes`` audit reports exactly the not-done indexes;
- the :class:`FrameQueueService` leases **exactly one** frame per pull,
  accepts a completion only from the lease holder (exactly-once), and
  re-queues lost leases at the front of the FIFO;
- the farm wire frames round-trip through ``services/protocol.py`` and
  refuse foreign or mangled bytes;
- the :class:`RenderFarmController` renders a whole job across a pool
  of render services with an empty audit at the end, and throughput
  scales with the pool;
- ``build_testbed(farm=True)`` registers the queue in UDDI beside the
  other four service roles, and the autoscaler's farm mode grows the
  pool on a sustained backlog alert.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.core.grid import TenantQuota
from repro.errors import MarshallingError, ServiceError
from repro.data.generators import galleon
from repro.farm import (
    FRAME_DONE,
    FRAME_LEASED,
    FRAME_PENDING,
    FrameQueueService,
    FrameRecord,
    RenderFarmController,
    RenderJob,
)
from repro.services.protocol import (
    FarmLease,
    FarmResult,
    frame_farm_lease,
    frame_farm_result,
    frame_message,
    unframe_farm_lease,
    unframe_farm_result,
)
from repro.sanitizer import RaveSanitizer
from repro.testbed import build_testbed

JOB = "anim-001"
SCENE = "scene"


def farm_testbed(**kwargs):
    tb = build_testbed(farm=True, **kwargs)
    tb.publish_model(SCENE, galleon(2000))
    return tb


def job(start=1, end=8, **kwargs):
    return RenderJob(job_id=JOB, session_id=SCENE,
                     start_frame=start, end_frame=end, **kwargs)


def result_for(lease, worker=None, attempt=None):
    return frame_farm_result(FarmResult(
        job_id=lease.job_id, frame=lease.frame,
        worker=worker if worker is not None else "w0",
        render_seconds=0.01, nbytes=160 * 120 * 3,
        attempt=lease.attempt if attempt is None else attempt))


class TripwireFrames(dict):
    """A frame ledger that refuses to be walked once armed."""

    armed = False

    def _trip(self):
        if self.armed:
            raise AssertionError("whole-job walk of the frame ledger")

    def __iter__(self):
        self._trip()
        return super().__iter__()

    def keys(self):
        self._trip()
        return super().keys()

    def values(self):
        self._trip()
        return super().values()

    def items(self):
        self._trip()
        return super().items()


class TestRenderJob:
    def test_frame_range_is_inclusive_and_validated(self):
        j = job(start=3, end=5)
        assert sorted(j.frames) == [3, 4, 5]
        assert j.total_frames == 3
        with pytest.raises(ServiceError):
            RenderJob(job_id="bad", session_id=SCENE,
                      start_frame=5, end_frame=3)

    def test_audit_reports_exactly_the_not_done_frames(self):
        # missing_frames() is the independent recount: it reads the
        # records, whoever wrote them
        j = job(start=1, end=4)
        j.frames[2].state = FRAME_DONE
        j.frames[4].state = FRAME_LEASED
        assert j.missing_frames() == [1, 3, 4]
        for f in j.frames.values():
            f.state = FRAME_DONE
        assert j.missing_frames() == []
        # finished / progress read the counts the queue's transitions keep
        queue = farm_testbed().farm_queue
        j = job(start=1, end=4)
        queue.submit(j)
        for done in range(1, 5):
            assert not j.finished and j.progress == (done - 1) / 4
            lease = unframe_farm_lease(queue.lease("w0"))
            assert j.missing_frames() == list(range(done, 5))
            queue.complete(result_for(lease))
        assert j.missing_frames() == []
        assert j.finished and j.progress == 1.0

    def test_prepopulated_frames_are_counted_at_construction(self):
        frames = {i: FrameRecord(index=i) for i in (7, 3, 5, 9)}
        frames[3].state = FRAME_DONE
        frames[9].state = FRAME_LEASED
        j = job(start=3, end=9, frames=frames)
        assert (j.done_frames, j.total_frames) == (1, 4)
        assert j.progress == 0.25 and not j.finished
        assert j.state_counts == {FRAME_PENDING: 2, FRAME_LEASED: 1,
                                  FRAME_DONE: 1}

    def test_cameras_are_deterministic_per_frame(self):
        import numpy as np

        a, b = job(), job()
        for i in (1, 5, 8):
            ca, cb = a.camera_for(i), b.camera_for(i)
            assert ca.name == cb.name
            assert np.allclose(ca.position, cb.position)
        # and different frames genuinely look from somewhere else
        assert not np.allclose(a.camera_for(1).position,
                               a.camera_for(8).position)


class TestFarmProtocol:
    def test_lease_round_trips(self):
        lease = FarmLease(job_id=JOB, frame=7, session_id=SCENE,
                          attempt=2, deadline=42.5)
        assert unframe_farm_lease(frame_farm_lease(lease)) == lease

    def test_result_round_trips(self):
        result = FarmResult(job_id=JOB, frame=7, worker="rs-onyx",
                            render_seconds=0.125, nbytes=57600)
        assert unframe_farm_result(frame_farm_result(result)) == result

    def test_type_discriminator_is_enforced(self):
        lease_bytes = frame_farm_lease(FarmLease(
            job_id=JOB, frame=1, session_id=SCENE, attempt=1,
            deadline=1.0))
        with pytest.raises(MarshallingError):
            unframe_farm_result(lease_bytes)
        result_bytes = frame_farm_result(FarmResult(
            job_id=JOB, frame=1, worker="w", render_seconds=0.0,
            nbytes=0))
        with pytest.raises(MarshallingError):
            unframe_farm_lease(result_bytes)

    def test_foreign_flags_are_refused(self):
        plain = frame_message(b'{"frame": 1, "type": "lease"}')
        with pytest.raises(MarshallingError):
            unframe_farm_lease(plain)
        with pytest.raises(MarshallingError):
            unframe_farm_result(plain)


class TestFrameQueue:
    def queue(self):
        tb = farm_testbed()
        return tb, tb.farm_queue

    def test_submit_queues_the_whole_range_once(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=8))
        assert queue.queue_depth() == 8
        assert queue.progress(JOB) == (0, 8)
        with pytest.raises(ServiceError):
            queue.submit(job())
        with pytest.raises(ServiceError):
            queue.job("nope")

    def test_lease_hands_out_exactly_one_frame(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=2))
        first = unframe_farm_lease(queue.lease("w0"))
        assert (first.job_id, first.frame, first.session_id) \
            == (JOB, 1, SCENE)
        assert first.deadline == pytest.approx(
            tb.network.sim.now + queue.lease_timeout)
        second = unframe_farm_lease(queue.lease("w1"))
        assert second.frame == 2
        assert queue.lease("w2") is None        # nothing left to hand out
        assert queue.active_leases() == 2
        assert queue.backlog() == 2

    def test_complete_is_exactly_once(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=1))
        lease = unframe_farm_lease(queue.lease("w0"))
        assert queue.complete(result_for(lease, "w0")) is True
        assert queue.progress(JOB) == (1, 1)
        # the straggler's second copy is dropped, not double-counted
        assert queue.complete(result_for(lease, "w0")) is False
        assert queue.frames_completed == 1
        assert queue.duplicates_dropped == 1

    def test_only_the_lease_holder_may_complete(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=1))
        lease = unframe_farm_lease(queue.lease("w0"))
        assert queue.complete(result_for(lease, "imposter")) is False
        assert queue.job(JOB).frame(1).state == FRAME_LEASED
        assert queue.complete(result_for(lease, "w0")) is True

    def test_expired_lease_requeues_at_the_front(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=3))
        lease = unframe_farm_lease(queue.lease("w0"))
        assert lease.frame == 1
        tb.network.sim.clock.advance(queue.lease_timeout + 1.0)
        assert queue.requeue_expired() == [(JOB, 1)]
        record = queue.job(JOB).frame(1)
        assert record.state == FRAME_PENDING
        assert record.requeues == 1
        # the lost frame goes out next, ahead of frames 2 and 3
        release = unframe_farm_lease(queue.lease("w1"))
        assert release.frame == 1
        assert release.attempt == 2
        # and the straggler's late result is now a dropped duplicate
        assert queue.complete(result_for(lease, "w0")) is False

    def test_stale_attempt_from_the_same_worker_is_dropped(self):
        """Satellite regression: results carry their lease attempt.

        The exactly-once check used to compare only state + worker, so
        when the *same* worker lost a lease and won the re-issued one,
        its straggling first-attempt result passed both checks and
        completed the frame with stale data.  Results now carry the
        attempt that produced them.
        """
        tb, queue = self.queue()
        queue.submit(job(start=1, end=1))
        first = unframe_farm_lease(queue.lease("w0"))
        assert first.attempt == 1
        tb.network.sim.clock.advance(queue.lease_timeout + 1.0)
        assert queue.requeue_expired() == [(JOB, 1)]
        # the same worker wins the re-issued lease
        second = unframe_farm_lease(queue.lease("w0"))
        assert second.attempt == 2
        # the straggler from attempt 1: same state, same worker — stale
        assert queue.complete(result_for(first, "w0",
                                         attempt=first.attempt)) is False
        assert queue.duplicates_dropped == 1
        assert queue.frames_completed == 0
        # the live attempt still completes exactly once
        assert queue.complete(result_for(second, "w0",
                                         attempt=second.attempt)) is True
        assert queue.progress(JOB) == (1, 1)

    def test_attempt_zero_is_no_wildcard(self):
        """A result naming attempt 0 (or none) used to match any live
        lease — so the same-worker straggler above got through by
        saying 0.  There is no pre-attempt peer in this tree: it is
        dropped and counted like any other stale result."""
        tb, queue = self.queue()
        queue.submit(job(start=1, end=1))
        first = unframe_farm_lease(queue.lease("w0"))
        tb.network.sim.clock.advance(queue.lease_timeout + 1.0)
        assert queue.requeue_expired() == [(JOB, 1)]
        second = unframe_farm_lease(queue.lease("w0"))
        assert queue.complete(result_for(first, "w0", attempt=0)) is False
        assert queue.duplicates_dropped == 1
        assert queue.frames_completed == 0
        assert queue.job(JOB).frame(1).state == FRAME_LEASED
        assert queue.complete(result_for(second, "w0")) is True
        assert queue.complete(result_for(second, "w0")) is False
        assert queue.progress(JOB) == (1, 1)
        assert queue.frames_completed == 1

    def test_dead_worker_requeues_all_its_leases(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=4))
        unframe_farm_lease(queue.lease("w0"))
        unframe_farm_lease(queue.lease("w0"))
        keeper = unframe_farm_lease(queue.lease("w1"))
        assert queue.requeue_worker("w0") == [(JOB, 1), (JOB, 2)]
        assert queue.queue_depth() == 3      # 1, 2 back + 4 never leased
        assert queue.job(JOB).frame(keeper.frame).state == FRAME_LEASED

    def test_finishing_a_job_runs_the_audit(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=2))
        for _ in range(2):
            lease = unframe_farm_lease(queue.lease("w0"))
            queue.complete(result_for(lease, "w0"))
        j = queue.job(JOB)
        assert j.finished and j.finished_at is not None
        assert queue.audit(JOB) == []

    def test_the_per_frame_paths_never_walk_a_jobs_ledger(self):
        """Lease, complete, re-queue, the progress reads and a scrape
        cost the same in a 5 000-frame job as in a 50-frame one: none
        of them may iterate ``job.frames``.  Only the per-job recounts
        (``audit`` / ``describe``) walk it."""
        tb, queue = self.queue()
        frames = TripwireFrames(
            (i, FrameRecord(index=i)) for i in range(1, 5001))
        j = job(start=1, end=5000, frames=frames)
        queue.submit(j)
        frames.armed = True
        with pytest.raises(AssertionError, match="whole-job walk"):
            j.missing_frames()              # the wire is live
        for _ in range(50):
            lease = unframe_farm_lease(queue.lease("w0"))
            assert queue.complete(result_for(lease)) is True
        queue.lease("w1")
        queue.lease("w2")
        tb.network.sim.clock.advance(queue.lease_timeout + 1.0)
        queue.lease("w3")
        queue.lease("w3")
        assert queue.active_leases() == 4
        assert queue.requeue_expired() == [(JOB, 51), (JOB, 52)]
        assert queue.requeue_worker("w3") == [(JOB, 53), (JOB, 54)]
        assert queue.active_leases() == 0
        assert queue.backlog() == 4950
        assert queue.progress(JOB) == (50, 5000)
        assert not j.finished and j.progress == 0.01
        queue.telemetry.scrape_frame(tb.network.sim.now)
        frames.armed = False
        assert queue.audit(JOB) == list(range(51, 5001))
        assert queue.describe()["jobs"][0]["requeues"] == 4

    def test_telemetry_exports_the_farm_gauges(self):
        tb, queue = self.queue()
        from repro.obs.telemetry import flatten_metrics
        from repro.services.protocol import unframe_telemetry

        queue.submit(job(start=1, end=5))
        unframe_farm_lease(queue.lease("w0"))
        payload = unframe_telemetry(
            queue.telemetry.scrape_frame(tb.network.sim.now))
        assert payload["kind"] == "farm"
        flat = flatten_metrics(payload["metrics"])
        assert flat["rave_farm_queue_depth"] == 4
        assert flat["rave_farm_active_leases"] == 1
        assert flat["rave_farm_frames_total"] == 0.0
        progress = payload["metrics"]["rave_farm_job_progress"]["series"]
        assert progress and progress[0]["labels"]["job"] == JOB


class TestLedgerProperty:
    """The counted ledger equals the scanned one, whatever happens.

    Any interleaving of submissions, leases, honest / duplicate / stale
    / hostile results, clock advances with ``requeue_expired`` and
    worker losses keeps the sanitizer's recount clean — it compares
    every job's ``state_counts`` and the lease index with the records —
    and every summary the queue answers in O(1) equals a by-hand walk
    of ``job.frames``.
    """

    @staticmethod
    def specs():
        sparse = {i: FrameRecord(index=i) for i in (7, 3, 11, 5)}
        return [
            dict(job_id="a", start_frame=1, end_frame=6, tenant="batch"),
            dict(job_id="b", start_frame=10, end_frame=12, tenant="viz",
                 priority=1, weight=2.0),
            # pre-populated, sparse and out of order
            dict(job_id="c", start_frame=3, end_frame=11, tenant="batch",
                 frames=sparse),
        ]

    @staticmethod
    def leased(queue, keep):
        return sorted((j.job_id, f.index) for j in queue.jobs()
                      for f in j.frames.values()
                      if f.state == FRAME_LEASED and keep(f))

    @staticmethod
    def is_live(queue, lease, worker, attempt):
        record = queue.job(lease.job_id).frames[lease.frame]
        return (record.state == FRAME_LEASED and record.worker == worker
                and record.attempts == attempt)

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                              st.integers(0, 2)), max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_counts_and_lease_index_equal_the_recount(self, ops):
        tb = build_testbed(farm=True)
        queue, clock = tb.farm_queue, tb.network.sim.clock
        queue.register_tenant(TenantQuota("batch", max_share=0.5))
        specs = self.specs()
        issued = []                     # every lease ever handed out
        for kind, arg, variant in ops:
            if kind == 0:
                spec = specs[arg % 3]
                if spec["job_id"] not in [j.job_id for j in queue.jobs()]:
                    queue.submit(RenderJob(session_id=SCENE, **spec))
            elif kind == 1:
                worker = f"w{arg % 4}"
                data = queue.lease(worker)
                if data is not None:
                    issued.append((worker, unframe_farm_lease(data)))
            elif kind in (2, 3, 4) and issued:
                # a result for any lease ever issued: honest, duplicate
                # or outlived (2), naming attempt 0 or a neighbouring
                # attempt (3), or sent by somebody else (4)
                worker, lease = issued[arg % len(issued)]
                attempt = lease.attempt
                if kind == 3:
                    attempt = (0, attempt - 1, attempt + 1)[variant]
                if kind == 4:
                    worker = "imposter"
                expect = self.is_live(queue, lease, worker, attempt)
                done, dropped = (queue.frames_completed,
                                 queue.duplicates_dropped)
                assert queue.complete(
                    result_for(lease, worker, attempt)) is expect
                assert queue.frames_completed == done + expect
                assert queue.duplicates_dropped == dropped + (not expect)
            elif kind == 5:                 # unknown job, unknown frame
                ghost = FarmLease(job_id=("ghost", "a")[variant % 2],
                                  frame=99, session_id=SCENE, attempt=1,
                                  deadline=0.0)
                assert queue.complete(result_for(ghost)) is False
            elif kind == 6:
                clock.advance((0.0, 7.0, 16.0, 31.0)[arg % 4])
                expect = self.leased(
                    queue, lambda f: f.lease_deadline <= clock.now)
                assert queue.requeue_expired() == expect
            elif kind == 7:
                worker = f"w{arg % 4}"
                expect = self.leased(queue, lambda f: f.worker == worker)
                assert queue.requeue_worker(worker) == expect
            assert RaveSanitizer._check_farm(queue) is None
            assert queue.active_leases() == len(
                self.leased(queue, lambda f: True))
            for j in queue.jobs():
                done = sum(f.state == FRAME_DONE
                           for f in j.frames.values())
                assert j.done_frames == done
                assert j.finished == (done == len(j.frames))
                assert queue.progress(j.job_id) == (done, len(j.frames))
            assert queue.backlog() == sum(
                len(j.missing_frames()) for j in queue.jobs())


def walked_starved_jobs(queue):
    """``starved_jobs()`` as it was when it walked every job ever
    submitted, kept as the reference."""
    now = queue.now
    out = []
    for job_id in sorted(queue._jobs):
        if not queue._job_pending.get(job_id):
            continue
        job = queue._jobs[job_id]
        served = max(job.submitted_at, job.last_leased_at)
        if now - served > queue.starvation_after:
            out.append(job_id)
    return out


class TestStarvedJobs:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)),
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    # two jobs of one ring starve together, one after a lost lease
    @example([(0, 0), (0, 2), (0, 1), (1, 0), (3, 3), (5, 0), (3, 3)])
    def test_the_rings_give_the_full_walk(self, ops):
        """Submits (two priorities, one-frame jobs too), leases,
        completions, expiries, lost workers and clock advances in any
        order: the walk of the DRR rings lists the jobs the walk of
        every job ever submitted does."""
        tb = build_testbed(farm={"starvation_after": 5.0})
        queue, clock = tb.farm_queue, tb.network.sim.clock
        issued = []
        for kind, arg in ops:
            if kind == 0 and f"j{arg}" not in queue._jobs:
                queue.submit(RenderJob(
                    job_id=f"j{arg}", session_id=SCENE, start_frame=1,
                    end_frame=1 + arg % 4, priority=arg % 2))
            elif kind == 1:
                data = queue.lease(f"w{arg % 3}")
                if data is not None:
                    issued.append((f"w{arg % 3}", unframe_farm_lease(data)))
            elif kind == 2 and issued:
                worker, lease = issued.pop(arg % len(issued))
                queue.complete(result_for(lease, worker))
            elif kind == 3:
                clock.advance((0.0, 2.5, 5.0, 6.0, 31.0)[arg % 5])
            elif kind == 4:
                queue.requeue_expired()
            elif kind == 5:
                queue.requeue_worker(f"w{arg % 3}")
            assert queue.starved_jobs() == walked_starved_jobs(queue)


class TestFairScheduler:
    """Priorities, weighted fair share, tenant caps, starvation."""

    def queue(self, **farm_kwargs):
        tb = build_testbed(farm=farm_kwargs or True)
        tb.publish_model(SCENE, galleon(2000))
        return tb, tb.farm_queue

    @staticmethod
    def named_job(job_id, start=1, end=8, **kwargs):
        return RenderJob(job_id=job_id, session_id=SCENE,
                         start_frame=start, end_frame=end, **kwargs)

    def test_batch_requeue_preserves_frame_order(self):
        # regression: one appendleft per frame reversed the batch, so a
        # dead worker's frames 1,2,3 re-leased as 3,2,1
        tb, queue = self.queue()
        queue.submit(job(start=1, end=5))
        for _ in range(3):
            unframe_farm_lease(queue.lease("w0"))
        assert queue.requeue_worker("w0") \
            == [(JOB, 1), (JOB, 2), (JOB, 3)]
        release = [unframe_farm_lease(queue.lease("w1")).frame
                   for _ in range(3)]
        assert release == [1, 2, 3]
        # and the re-queued batch still beats never-leased frame 4
        assert unframe_farm_lease(queue.lease("w1")).frame == 4

    def test_higher_priority_preempts_at_lease_time(self):
        tb, queue = self.queue()
        queue.submit(self.named_job("long", end=8, priority=0))
        first = unframe_farm_lease(queue.lease("w0"))
        assert (first.job_id, first.priority) == ("long", 0)
        queue.submit(self.named_job("urgent", end=3, priority=1))
        # the running lease is never revoked, but every new pull serves
        # the higher class until it drains
        served = [unframe_farm_lease(queue.lease("w0")) for _ in range(4)]
        assert [(l.job_id, l.frame) for l in served] \
            == [("urgent", 1), ("urgent", 2), ("urgent", 3), ("long", 2)]
        assert served[0].priority == 1

    def test_weight_sets_the_deficit_round_robin_quantum(self):
        tb, queue = self.queue()
        queue.submit(self.named_job("heavy", end=8, weight=2.0))
        queue.submit(self.named_job("light", end=8, weight=1.0))
        order = [unframe_farm_lease(queue.lease("w0")).job_id
                 for _ in range(6)]
        # weight 2 bursts two consecutive frames per ring visit
        assert order == ["heavy", "heavy", "light",
                         "heavy", "heavy", "light"]

    def test_equal_jobs_interleave_instead_of_fifo(self):
        tb, queue = self.queue()
        queue.submit(self.named_job("first", end=6))
        queue.submit(self.named_job("second", end=6))
        order = [unframe_farm_lease(queue.lease("w0")).job_id
                 for _ in range(4)]
        assert order == ["first", "second", "first", "second"]

    def test_tenant_cap_limits_concurrent_leases(self):
        from repro.core.grid import TenantQuota

        tb, queue = self.queue()
        queue.register_tenant(TenantQuota(tenant="batch", max_share=0.5))
        for w in ("w0", "w1", "w2", "w3"):
            queue.register_worker(w)        # cap = 0.5 * 4 slots = 2
        queue.submit(self.named_job("bulk", end=8,
                                    tenant="batch", weight=4.0))
        queue.submit(self.named_job("inter", end=8, tenant="viz"))
        order = [unframe_farm_lease(queue.lease(w)).job_id
                 for w in ("w0", "w1", "w2", "w3")]
        # weight 4 would let "bulk" burst the whole pool; the cap stops
        # it at two leases and hands the rest to the other tenant
        assert order == ["bulk", "bulk", "inter", "inter"]
        assert queue.describe()["tenant_leases"] \
            == {"batch": 2, "viz": 2}

    def test_tenant_cap_is_waived_when_nobody_else_waits(self):
        from repro.core.grid import TenantQuota

        tb, queue = self.queue()
        queue.register_tenant(TenantQuota(tenant="batch", max_share=0.5))
        queue.register_worker("w0")
        queue.register_worker("w1")         # cap = 1
        queue.submit(self.named_job("bulk", end=4, tenant="batch"))
        assert unframe_farm_lease(queue.lease("w0")).frame == 1
        # work-conserving: the idle second worker is not refused while
        # only the capped tenant has pending frames
        assert unframe_farm_lease(queue.lease("w1")).frame == 2

    def test_starvation_is_observable_then_clears(self):
        from repro.obs.telemetry import flatten_metrics
        from repro.services.protocol import unframe_telemetry

        tb, queue = self.queue(starvation_after=5.0)
        queue.submit(job(start=1, end=4))
        tb.network.sim.clock.advance(6.0)
        assert queue.starved_jobs() == [JOB]
        payload = unframe_telemetry(
            queue.telemetry.scrape_frame(tb.network.sim.now))
        flat = flatten_metrics(payload["metrics"])
        assert flat["rave_farm_starved_jobs"] == 1
        unframe_farm_lease(queue.lease("w0"))
        assert queue.starved_jobs() == []

    def test_an_unscraped_farm_notes_each_starvation_onset_once(self):
        tb, queue = self.queue(starvation_after=5.0)
        sim = tb.network.sim
        with obs.observed() as bundle:
            def starved():
                return bundle.recorder.events("farm:starved")

            queue.submit(job(start=1, end=4))
            submitted = sim.now
            sim.run_until(sim.now + 20.0)
            assert [e.detail for e in starved()] \
                == [f"{JOB}: no lease for 5s+ with 4 pending"]
            assert starved()[0].time == pytest.approx(submitted + 5.0)
            unframe_farm_lease(queue.lease("w0"))   # served: the onset ends
            leased = sim.now
            sim.run_until(sim.now + 4.0)
            assert len(starved()) == 1
            sim.run_until(sim.now + 20.0)
            assert [e.detail for e in starved()][1:] \
                == [f"{JOB}: no lease for 5s+ with 3 pending"]
            assert starved()[1].time == pytest.approx(leased + 5.0)
        assert queue.telemetry.scrapes == 0

    def test_lease_wait_lands_in_the_histogram(self):
        tb, queue = self.queue()
        queue.submit(job(start=1, end=2, tenant="batch"))
        tb.network.sim.clock.advance(3.0)
        unframe_farm_lease(queue.lease("w0"))
        payload = queue.telemetry.registry.snapshot()
        series = payload["rave_farm_job_wait_seconds"]["series"]
        entry = next(e for e in series
                     if e["labels"] == {"job": JOB, "tenant": "batch"})
        assert entry["count"] == 1
        assert entry["sum"] == pytest.approx(3.0)

    def test_no_job_waits_unboundedly_under_any_mix(self):
        # property: whatever the mix of weights in one priority class,
        # every job is served at least once within (sum of weights)
        # consecutive leases — the DRR bound
        tb, queue = self.queue()
        weights = [1.0, 2.0, 1.0, 4.0, 2.0]
        for i, w in enumerate(weights):
            queue.submit(self.named_job(f"job-{i}", end=40, weight=w))
        window = int(sum(weights))
        order = [unframe_farm_lease(queue.lease("w0")).job_id
                 for _ in range(120)]
        for i in range(len(weights)):
            gaps = [k for k, j in enumerate(order) if j == f"job-{i}"]
            assert gaps, f"job-{i} never served"
            worst = max(b - a for a, b in zip(gaps, gaps[1:]))
            assert worst <= window, (
                f"job-{i} waited {worst} leases (> {window})")


class TestTestbedFarm:
    def test_farm_true_registers_the_fifth_service_role(self):
        from repro.core.recruitment import FARM_TMODEL, RAVE_BUSINESS

        tb = farm_testbed()
        assert isinstance(tb.farm_queue, FrameQueueService)
        business = tb.registry.find_business(RAVE_BUSINESS)
        tm = tb.registry.find_tmodel(FARM_TMODEL)
        entries = tb.registry.find_services(business.business_key, tm.key)
        assert [s.name for s in entries] \
            == [f"RaveFrameQueueService@{tb.farm_queue.host}"]

    def test_plain_testbed_has_no_farm(self):
        tb = build_testbed()
        assert tb.farm_queue is None
        with pytest.raises(ServiceError):
            tb.render_farm()

    def test_monitor_watches_the_queue_and_derives_backlog(self):
        tb = farm_testbed(monitor_host="registry-host")
        tb.farm_queue.submit(job(start=1, end=6))
        sim = tb.network.sim
        sim.run_until(sim.now + 5.0)
        snapshot = tb.monitor.snapshot()
        farm_entries = {n: e for n, e in snapshot["services"].items()
                        if e.get("kind") == "farm"}
        assert "rave-farm-queue" in farm_entries
        values = tb.monitor.grid_values()
        assert values["rave_grid_farm_backlog"] == 6.0
        assert values["rave_grid_farm_throughput"] == 0.0

    def test_dashboard_renders_the_farm_panel(self):
        from repro.obs.dashboard import render_dashboard

        tb = farm_testbed(monitor_host="registry-host")
        tb.farm_queue.submit(job(start=1, end=6))
        sim = tb.network.sim
        sim.run_until(sim.now + 5.0)
        text = render_dashboard(tb.monitor.snapshot())
        assert "render farm (rave-farm-queue)" in text
        assert "queue depth: 6" in text
        assert JOB in text


class TestFarmController:
    def test_a_job_renders_to_completion_with_an_empty_audit(self):
        tb = farm_testbed()
        queue = tb.farm_queue
        farm = tb.render_farm(worker_hosts=("onyx", "v880z"))
        queue.submit(job(start=1, end=10))
        farm.start()
        sim = tb.network.sim
        sim.run_until(sim.now + 120.0)
        assert queue.progress(JOB) == (10, 10)
        assert queue.audit(JOB) == []
        assert farm.frames_rendered == 10
        assert queue.duplicates_dropped == 0
        j = queue.job(JOB)
        assert j.finished_at is not None
        # both workers genuinely shared the range
        assert {f.worker for f in j.frames.values()} \
            == {"rs-onyx", "rs-v880z"}

    def test_a_restarted_farm_keeps_its_workers_alive(self):
        """``stop(); start()`` used to leave the heartbeat sources
        stopped, so every worker was declared dead within 10 s."""
        tb = farm_testbed()
        farm = tb.render_farm()
        dead = []
        farm.monitor.on_dead.append(dead.append)
        farm.start()
        sim = tb.network.sim
        sim.run_until(sim.now + 2.0)
        farm.stop()
        farm.start()
        sim.run_until(sim.now + 10.0)
        assert farm.pool_size() == 5
        assert dead == [] and farm.failed_workers == set()
        farm.stop()

    def test_each_worker_holds_at_most_one_lease(self):
        tb = farm_testbed()
        queue = tb.farm_queue
        farm = tb.render_farm(worker_hosts=("onyx",))
        queue.submit(job(start=1, end=6))
        farm.start()
        sim = tb.network.sim
        deadline = sim.now + 120.0
        while sim.now < deadline and not queue.job(JOB).finished:
            assert queue.active_leases() <= 1
            sim.run_until(sim.now + 0.25)
        assert queue.job(JOB).finished

    def test_prewarm_bootstraps_once_and_throughput_scales(self):
        rates = {}
        for n, hosts in ((1, ("onyx",)), (2, ("onyx", "v880z")),
                         (4, ("onyx", "v880z", "centrino", "xeon"))):
            tb = farm_testbed()
            queue = tb.farm_queue
            farm = tb.render_farm(worker_hosts=hosts)
            sim = tb.network.sim
            assert farm.prewarm(SCENE) == n
            assert farm.prewarm(SCENE) == 0     # cached, not re-paid
            sim.run_until(sim.now + 30.0)
            queue.submit(job(start=1, end=24))
            farm.start()
            t0 = sim.now
            while not queue.job(JOB).finished and sim.now < t0 + 300.0:
                sim.run_until(sim.now + 0.25)
            assert queue.audit(JOB) == []
            assert queue.duplicates_dropped == 0
            rates[n] = 24.0 / (queue.job(JOB).finished_at - t0)
        assert rates[1] < rates[2] < rates[4], rates

    def test_release_idle_respects_backlog_and_floor(self):
        tb = farm_testbed()
        queue = tb.farm_queue
        farm = tb.render_farm(worker_hosts=("onyx", "v880z", "centrino"))
        queue.submit(job(start=1, end=2))
        assert farm.release_idle(min_workers=1) == []    # backlog > 0
        # drain the backlog by hand, then the idle pool may shrink
        for _ in range(2):
            lease = unframe_farm_lease(queue.lease("rs-onyx"))
            queue.complete(result_for(lease, "rs-onyx"))
        released = farm.release_idle(min_workers=1)
        assert len(released) == 2
        assert farm.pool_size() == 1


class TestThroughputGauge:
    def test_a_scrape_reads_four_workers_true_rate(self):
        """Four workers on galleon(2000), each taking its modelled frame
        time, over 60 simulated seconds: once the window is full, every
        rate the monitor derives from the scraped completion counter is
        within 5 % of the completions the last interval saw (about 1 030
        frames/s; the controller's transfers bring a real farm to about
        925).  A service-side window capped at 4 096 completions read
        204.8 at most."""
        from repro.services.monitor import RATES

        window = {name: w for _, name, w in RATES}[
            "rave_farm_frames_per_second"]
        tb = farm_testbed(monitor_host="registry-host")
        queue, sim, monitor = tb.farm_queue, tb.network.sim, tb.monitor
        monitor.stop()          # it scrapes the farm on the test's grid
        polygons = galleon(2000).n_triangles
        queue.submit(job(start=1, end=100_000))

        def work(worker, seconds):
            lease = unframe_farm_lease(queue.lease(worker))

            def done():
                queue.complete(result_for(lease, worker))
                work(worker, seconds)
            sim.schedule(seconds, done)

        for host in ("onyx", "v880z", "centrino", "xeon"):
            engine = tb.render_service(host).engine
            work(host, engine.timing(polygons, 160 * 120,
                                     offscreen=True).total_seconds)
        start, interval = sim.now, 5.0
        done = queue.frames_completed
        monitor.scrape_one(queue.telemetry)
        for k in range(1, 13):
            sim.run_until(start + k * interval)
            true_rate = (queue.frames_completed - done) / interval
            done = queue.frames_completed
            assert true_rate > 800
            monitor.scrape_one(queue.telemetry)
            sim.run_until(sim.now + 0.01)           # the scrape arrives
            flat = monitor.snapshot()["services"][queue.name]["metrics"]
            if k * interval >= window:
                assert flat["rave_farm_frames_per_second"] \
                    == pytest.approx(true_rate, rel=0.05)


class TestAutoscalerFarmMode:
    def test_sustained_backlog_grows_the_pool_and_drains_the_queue(self):
        tb = farm_testbed(monitor_host="registry-host", autoscale=True)
        queue = tb.farm_queue
        farm = tb.render_farm(worker_hosts=("centrino",))
        auto = tb.autoscale(farm, cooldown_seconds=5.0, period=1.0,
                            max_services=3)
        queue.submit(job(start=1, end=8))
        # the controller is deliberately not started: only the
        # autoscaler's grow path may put workers on the job
        sim = tb.network.sim
        for _ in range(90):
            sim.run_until(sim.now + 1.0)
            if queue.job(JOB).finished:
                break
        grows = [e for e in auto.events if e.kind == "grow"]
        assert grows and grows[0].pool_after > grows[0].pool_before
        assert grows[0].reason == "farm-backlog"
        assert queue.job(JOB).finished
        assert queue.audit(JOB) == []

    def test_clear_backlog_releases_down_to_the_floor(self):
        tb = farm_testbed(monitor_host="registry-host", autoscale=True)
        farm = tb.render_farm(worker_hosts=("onyx", "v880z"))
        auto = tb.autoscale(farm, cooldown_seconds=3.0, period=1.0,
                            min_services=1)
        sim = tb.network.sim
        for _ in range(60):
            sim.run_until(sim.now + 1.0)
            if farm.pool_size() == 1:
                break
        assert farm.pool_size() == 1
        assert any(e.kind == "release" for e in auto.events)
