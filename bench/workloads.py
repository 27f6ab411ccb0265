"""The four workloads: generated inputs, the ops and their output checks.

Every workload is one process, one thread, one client, closed loop.  Inputs
come from :meth:`Workload.generate` alone -- plain data made from the seed
without touching the program -- and the program is then driven with those
inputs only.  Work is organised in *units* (one camera revolution, one pair
of farm jobs, one request sequence), and a round is a whole number of units.
Unit number k of a seed has inputs of its own (``variant`` k: another camera
phase, another arrival order), so that a run averages over several draws and
two seeds differ by less; it always does the same work, so its counts and
simulated outcomes must repeat exactly from round to round.

Why these four is recorded in each class's ``why`` (and BENCHMARK.json).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
import traceback
import zlib

SCENE = "bench-scene"


class SpeedProbe:
    """A fixed piece of work, timed between measured slices.

    The sizing box's speed wanders by +-15% for seconds at a time (a shared
    host: wall and CPU time move together), which no amount of repeating
    inside a 25 s run averages out.  The probe -- interpreter loop, small
    allocations and numpy array arithmetic, about half a millisecond -- sees
    the same wandering, so dividing a sample by the probe time taken next to
    it, relative to :data:`PROBE_REFERENCE_NS`, gives the sample's time *at
    the reference machine speed*.  The probe runs outside the slices and
    touches nothing of the program.
    """

    def __init__(self) -> None:
        import numpy as np

        self._a = np.linspace(0.0, 1.0, 40_000)
        self._pick = np.arange(0, 40_000, 5)

    def __call__(self) -> int:
        start = time.perf_counter_ns()
        total = 0
        for i in range(2500):
            total += i * i
        names = {i: str(i) for i in range(400)}
        b = self._a * 1.5 + self._a
        c = b[self._pick]
        c.sort()
        total += int((b > 1.0).sum()) + len(names)
        return time.perf_counter_ns() - start


#: the probe's usual time on the sizing box (2 vCPU, Python 3.11.7, numpy
#: 2.4.6): the machine speed at which normalised times equal measured ones
PROBE_REFERENCE_NS = 400_000
#: measured time between two probes
PROBE_EVERY_NS = 20_000_000


class Recorder:
    """Wall time, CPU time and op counts of the measured slices of a round.

    A slice is the interval between :meth:`begin` and :meth:`end`; it holds
    ``ops`` completed ops (usually one).  Each slice with ops gives one
    latency sample, its wall time divided by its ops; a slice without ops
    (a submit, an audit) is merged into the next one of its unit that has
    some, or into the last one.  Output checks and speed probes run between
    slices, so they cost the program nothing.
    """

    def __init__(self, tracer=None, probe=None) -> None:
        self.tracer = tracer
        self.probe = probe
        self.wall_ns = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: [wall ns, cpu ns, ops] per latency sample, ops >= 1
        self.samples: list[list[int]] = []
        #: (samples recorded so far, probe ns) per speed probe
        self.probes: list[tuple[int, int]] = []
        self.slices = 0
        self._carry = [0, 0]
        self._probed_at = 0
        self._t0 = self._cpu0 = 0

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op()
        self._cpu0 = time.process_time_ns()
        self._t0 = time.perf_counter_ns()

    def end(self, ops: int = 1) -> None:
        wall = time.perf_counter_ns() - self._t0
        cpu = time.process_time_ns() - self._cpu0
        if self.tracer is not None:
            self.tracer.end_op(self.slices)
        self.slices += 1
        self.wall_ns += wall
        self.attempted += ops
        if ops:
            self.samples.append([wall + self._carry[0], cpu + self._carry[1],
                                 ops])
            self._carry = [0, 0]
        else:
            self._carry[0] += wall
            self._carry[1] += cpu
        if (self.probe is not None
                and self.wall_ns - self._probed_at >= PROBE_EVERY_NS):
            self._take_probe()

    def _take_probe(self) -> None:
        self._probed_at = self.wall_ns
        self.probes.append((len(self.samples), self.probe()))

    def end_unit(self) -> None:
        """Close a unit: trailing slices without ops join its last sample."""
        if self.samples:
            self.samples[-1][0] += self._carry[0]
            self.samples[-1][1] += self._carry[1]
        self._carry = [0, 0]
        if self.probe is not None:
            self._take_probe()

    def fail(self, why: str) -> None:
        """One op raised or failed its output check."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def slowdowns(self) -> list[float]:
        """Per sample: how much slower than the reference speed the machine
        ran around it -- the median of the five speed probes nearest to it
        over :data:`PROBE_REFERENCE_NS`; 1.0 without a probe."""
        if not self.probes:
            return [1.0] * len(self.samples)
        times = [ns for _, ns in self.probes]
        smooth = [statistics.median(times[max(0, j - 2):j + 3])
                  for j in range(len(times))]
        out: list[float] = []
        j = 0
        for i in range(len(self.samples)):
            # the first probe taken after sample i was recorded
            while j < len(self.probes) - 1 and self.probes[j][0] <= i:
                j += 1
            out.append(smooth[j] / PROBE_REFERENCE_NS)
        return out


def digest(value) -> str:
    """A short stable name for generated inputs or repeated outputs."""
    blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _orbit(rng: random.Random, n: int, target, radius: float,
           polar_degrees: float) -> list[list[float]]:
    """``n`` camera positions on one revolution about the z axis, the models'
    up axis; the seed sets where on the circle the revolution starts."""
    phase = rng.random()
    polar = math.radians(polar_degrees)
    out = []
    for k in range(n):
        theta = (k + phase) * 2.0 * math.pi / n
        out.append([target[0] + radius * math.sin(polar) * math.cos(theta),
                    target[1] + radius * math.sin(polar) * math.sin(theta),
                    target[2] + radius * math.cos(polar)])
    return out


def reference_frame(mesh, camera_node, width: int, height: int):
    """The frame a render service must produce, rasterized directly."""
    from repro.render.camera import Camera
    from repro.render.framebuffer import FrameBuffer
    from repro.render.rasterizer import rasterize_mesh

    fb = FrameBuffer(width, height, background=(12, 12, 24))
    rasterize_mesh(mesh, Camera.from_node(camera_node), fb, shading="flat")
    return fb


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    why = ""
    #: True when units run back to back on one testbed; False when every
    #: unit needs a fresh one (built outside the measured slices)
    reuse_state = True

    def generate(self, seed: int, scale: float, variant: int = 0) -> dict:
        """Inputs of unit number ``variant`` of ``seed``: same shape and
        size for every variant, different draws."""
        raise NotImplementedError

    def build(self, inputs: dict):
        raise NotImplementedError

    def unit(self, state, inputs: dict, rec: Recorder) -> dict:
        """Run one unit; returns the values that must repeat exactly."""
        raise NotImplementedError

    def scene_faces(self, state) -> int:
        return 0


class ThinDense(Workload):
    name = "thin_dense"
    why = ("thin-client request->blit of a 50k-triangle model, mostly "
           "sub-pixel triangles: the rasterizer's per-face set-up cost is "
           "~99% of the op")

    def generate(self, seed, scale, variant=0):
        rng = random.Random(f"{self.name}:{seed}:{variant}")
        target = [0.0, 0.0, 1.55]
        return {
            "workload": self.name, "seed": seed, "variant": variant, "model": "elle",
            "triangles": 50_000, "width": 200, "height": 200,
            "target": target, "up": [0.0, 0.0, 1.0],
            "cameras": _orbit(rng, max(4, round(16 * scale)), target,
                              radius=5.0, polar_degrees=80.0),
        }

    def build(self, inputs):
        import numpy as np

        from repro.data.generators import elle
        from repro.testbed import build_testbed

        mesh = elle(inputs["triangles"])
        tb = build_testbed(render_hosts=("onyx",))
        tb.publish_model(SCENE, mesh)
        service = tb.render_service("onyx")
        session, _ = service.create_render_session(tb.data_service, SCENE)
        client = tb.thin_client("bench-pda")
        client.attach(service, session.render_session_id)
        client.camera.up = np.asarray(inputs["up"], dtype=np.float64)
        state = {"mesh": mesh, "client": client, "testbed": tb}
        for position in inputs["cameras"][:2]:        # warm-up
            client.move_camera(position, inputs["target"])
            client.request_frame(inputs["width"], inputs["height"])
        return state

    def scene_faces(self, state):
        return state["mesh"].n_triangles

    def unit(self, state, inputs, rec):
        client, mesh = state["client"], state["mesh"]
        width, height = inputs["width"], inputs["height"]
        latencies = []
        frames_crc = 0
        for k, position in enumerate(inputs["cameras"]):
            client.move_camera(position, inputs["target"])
            rec.begin()
            try:
                fb, timing = client.request_frame(width, height)
            except Exception:
                rec.end()
                rec.fail(traceback.format_exc(limit=3))
                continue
            rec.end()
            if fb.coverage() <= 0.0:
                rec.fail(f"frame {k}: nothing rendered")
            elif k == 0:
                ref = reference_frame(mesh, client.camera, width, height)
                if (fb.color.tobytes() != ref.color.tobytes()
                        or fb.depth.tobytes() != ref.depth.tobytes()):
                    rec.fail("frame 0 differs from a direct rasterize_mesh")
            latencies.append(repr(timing.total_latency))
            frames_crc = zlib.crc32(fb.color.tobytes(), frames_crc)
        return {"sim_latency": digest(latencies), "frames_crc": frames_crc}


class TiledFill(Workload):
    name = "tiled_fill"
    why = ("framebuffer-distribution frame of a 5.5k-triangle model over "
           "five services, few large triangles: the same rasterizer "
           "fill-bound, 5x redundant, plus tile extract/assemble and encode")

    def generate(self, seed, scale, variant=0):
        rng = random.Random(f"{self.name}:{seed}:{variant}")
        target = [0.25, 0.0, 0.8]
        return {
            "workload": self.name, "seed": seed, "variant": variant, "model": "galleon",
            "triangles": 5_500, "width": 160, "height": 120,
            "target": target, "up": [0.0, 0.0, 1.0],
            "encode_every": 4, "compare_every": 6,
            #: the codec's link estimate; slow enough that raw never fits
            "link_bps": 1.0e6,
            "cameras": _orbit(rng, max(4, round(12 * scale)), target,
                              radius=5.0, polar_degrees=70.0),
        }

    def build(self, inputs):
        from repro.compression.adaptive import (
            AdaptiveCodec,
            BandwidthEstimator,
        )
        from repro.core.session import CollaborativeSession
        from repro.data.generators import galleon
        from repro.testbed import RENDER_HOSTS, build_testbed

        mesh = galleon(inputs["triangles"])
        tb = build_testbed()
        tb.publish_model(SCENE, mesh)
        session = CollaborativeSession(tb.data_service, SCENE)
        # full scene copies on all five: place_dataset would leave four of
        # them with empty shares and nothing to rasterize
        for host in RENDER_HOSTS:
            session.connect(tb.render_service(host))
        codec = AdaptiveCodec(
            BandwidthEstimator(initial_bps=inputs["link_bps"]))
        state = {"mesh": mesh, "session": session, "codec": codec,
                 "testbed": tb, "reference": tb.render_service("onyx")}
        camera = self._camera(inputs, inputs["cameras"][0])   # warm-up
        fb, _, _ = session.render_tiled(camera, inputs["width"],
                                        inputs["height"])
        codec.decode(codec.encode(fb), inputs["width"], inputs["height"])
        return state

    @staticmethod
    def _camera(inputs, position):
        from repro.scenegraph.nodes import CameraNode

        return CameraNode(position=position, target=inputs["target"],
                          up=inputs["up"], name="bench-camera")

    def scene_faces(self, state):
        return state["mesh"].n_triangles

    def unit(self, state, inputs, rec):
        import numpy as np

        from repro.errors import RenderError
        from repro.render.compositor import check_tiling

        session, codec = state["session"], state["codec"]
        reference = state["reference"]
        rsid = session.attachment(reference).render_session_id
        width, height = inputs["width"], inputs["height"]
        codec.reset()      # every unit starts its stream with a key frame
        latencies, inner = [], []
        frames_crc = 0
        for k, position in enumerate(inputs["cameras"]):
            camera = self._camera(inputs, position)
            encoded = decoded = None
            rec.begin()
            try:
                fb, plan, latency = session.render_tiled(camera, width,
                                                         height)
                if k % inputs["encode_every"] == 0:
                    encoded = codec.encode(fb)
                    decoded, _ = codec.decode(encoded, width, height)
            except Exception:
                rec.end()
                rec.fail(traceback.format_exc(limit=3))
                continue
            rec.end()
            problem = ""
            try:
                check_tiling(width, height,
                             [a.tile for a in plan.assignments])
            except RenderError as exc:
                problem = f"frame {k}: {exc}"
            if not problem and k % inputs["compare_every"] == 0:
                ref, _ = reference.render_view(rsid, camera, width, height)
                if fb.mean_abs_diff(ref) != 0.0:
                    problem = (f"frame {k}: tiled frame differs from a "
                               f"single-service render_view")
            if not problem and encoded is not None:
                # lossless children must round-trip exactly; the lossy ones
                # state 8 (rgb565) and 12 (delta~12) levels per channel
                tolerance = 0 if encoded.lossless else 12
                error = int(np.abs(fb.color.astype(np.int16)
                                   - decoded.color.astype(np.int16)).max())
                if error > tolerance:
                    problem = (f"frame {k}: codec round trip off by {error} "
                               f"> {tolerance} ({encoded.meta['inner']})")
                inner.append(encoded.meta["inner"])
            if problem:
                rec.fail(problem)
            latencies.append(repr(latency))
            frames_crc = zlib.crc32(fb.color.tobytes(), frames_crc)
        return {"sim_latency": digest(latencies), "frames_crc": frames_crc,
                "codecs": inner}


class FarmSweep(Workload):
    name = "farm_sweep"
    why = ("farm frames of a 12-triangle box at 32x24, submit->audit: "
           "rasterizing is down to its fixed per-call cost, so event "
           "dispatch, simnet, the frame queue and wire frames carry the run")
    reuse_state = False

    WORKERS = ("onyx", "v880z", "centrino", "xeon")

    def generate(self, seed, scale, variant=0):
        rng = random.Random(f"{self.name}:{seed}:{variant}")
        long_frames = max(60, round(2000 * scale))
        tenants = rng.sample(["batch", "viz", "sci", "edu"], 2)
        common = {"session_id": SCENE, "width": 32, "height": 24,
                  "orbit_step_degrees": rng.uniform(2.5, 3.5)}
        return {
            "workload": self.name, "seed": seed, "variant": variant, "model": "box",
            "workers": list(self.WORKERS),
            "long": {"job_id": "bench-long", "start_frame": 1,
                     "end_frame": long_frames, "priority": 0,
                     "tenant": tenants[0], **common},
            "short": {"job_id": "bench-short", "start_frame": 1,
                      "end_frame": max(8, round(40 * scale)), "priority": 1,
                      "tenant": tenants[1], **common},
            # simulated seconds after the long job at which the short one
            # arrives (about a tenth of the way through it), and the
            # simulated length of one driver slice
            "short_after": long_frames / 2000 * rng.uniform(0.12, 0.16),
            "slice": 0.01,
        }

    def build(self, inputs):
        from repro.data.generators import box
        from repro.testbed import build_testbed

        mesh = box()
        tb = build_testbed(farm=True, monitor_host="registry-host")
        tb.publish_model(SCENE, mesh)
        farm = tb.render_farm(worker_hosts=tuple(inputs["workers"]))
        sim = tb.network.sim
        farm.prewarm(SCENE)
        sim.run_until(sim.now + 30.0)      # let every bootstrap finish
        return {"mesh": mesh, "testbed": tb, "farm": farm}

    def scene_faces(self, state):
        return state["mesh"].n_triangles

    def unit(self, state, inputs, rec):
        from repro.farm import RenderJob

        tb, farm = state["testbed"], state["farm"]
        queue, sim = tb.farm_queue, tb.network.sim
        long_job = RenderJob(**inputs["long"])
        short_job = RenderJob(**inputs["short"])
        total = long_job.total_frames + short_job.total_frames
        rec.begin()
        queue.submit(long_job)
        farm.start()
        rec.end(0)
        short_at = sim.now + inputs["short_after"]
        deadline = sim.now + 600.0
        submitted = False
        done = queue.frames_completed
        crashed = ""
        while done < total and sim.now < deadline and not crashed:
            rec.begin()
            try:
                if not submitted and sim.now >= short_at:
                    queue.submit(short_job)
                    submitted = True
                sim.run_until(sim.now + inputs["slice"])
            except Exception:
                crashed = traceback.format_exc(limit=3)
            completed = queue.frames_completed - done
            rec.end(completed)
            done += completed
        rec.begin()
        farm.stop()
        missing = (queue.audit(long_job.job_id)
                   + (queue.audit(short_job.job_id) if submitted else []))
        rec.end(0)

        if crashed:
            rec.fail(crashed)
        if not submitted:
            rec.fail("the short job was never submitted")
        # a frame the audit misses was attempted and never completed
        rec.attempted += len(missing)
        for index in missing:
            rec.fail(f"audit: frame {index} missing")
        if queue.duplicates_dropped or queue.invalid_results:
            rec.fail(f"{queue.duplicates_dropped} duplicate and "
                     f"{queue.invalid_results} invalid results")
        short_done_at = short_job.finished_at
        long_done_then = sum(
            1 for f in long_job.frames.values()
            if f.completed_at and short_done_at is not None
            and f.completed_at <= short_done_at)
        if (short_done_at is None
                or long_done_then >= long_job.total_frames / 2):
            rec.fail(f"short job finished after {long_done_then} of "
                     f"{long_job.total_frames} long frames")
        if queue.starved_jobs():
            rec.fail(f"starved jobs: {queue.starved_jobs()}")
        return {"sim_end": repr(sim.now), "leases": queue.leases_issued,
                "completed": queue.frames_completed,
                "long_done_at_short_finish": long_done_then}


class GridChurn(Workload):
    name = "grid_churn"
    why = ("session admissions for tiny scenes on a 2-member pool with a "
           "scraping monitor, no frame rendered: grid, session, SOAP, "
           "telemetry and marshalling do all the work; rasterizer changes "
           "must not move it")
    reuse_state = False

    MEMBERS = ("centrino", "athlon")

    def generate(self, seed, scale, variant=0):
        rng = random.Random(f"{self.name}:{seed}:{variant}")
        tenants = [{"tenant": f"tenant-{i}", "priority": i % 3,
                    "max_sessions": 2, "max_share": 0.6,
                    "guaranteed_share": 0.05} for i in range(8)]
        # a fixed multiset of requests -- 35% of them first end a session,
        # demands in equal thirds -- of which the seed sets only the order
        # and the tenants, so that the outcome mix barely moves with it
        n = max(40, round(400 * scale))
        releases = [k < round(0.35 * n) for k in range(n)]
        shares = [(0.12, 0.2, 0.3)[k % 3] for k in range(n)]
        rng.shuffle(releases)
        rng.shuffle(shares)
        steps = [{
            # which admitted session to end first (a point in [0, 1) over
            # the sorted ids), or None to end none
            "release": rng.random() if release else None,
            "tenant": rng.randrange(len(tenants)),
            # demand as a share of the pool's polygon rate
            "share": share,
        } for release, share in zip(releases, shares)]
        return {"workload": self.name, "seed": seed, "variant": variant, "model": "uv_sphere",
                "nu": 8, "nv": 8, "members": list(self.MEMBERS),
                "queue_capacity": 8, "monitor_period": 1.0e9,
                "tenants": tenants, "steps": steps}

    def build(self, inputs):
        from repro.core.grid import TenantQuota
        from repro.data.generators import uv_sphere
        from repro.testbed import build_testbed

        mesh = uv_sphere(nu=inputs["nu"], nv=inputs["nv"])
        # the monitor's own tick is parked: admits advance the simulated
        # clock by whole seconds in one step, so ticks per op would depend
        # on the outcome mix; the unit scrapes once per op instead
        tb = build_testbed(render_hosts=tuple(inputs["members"]),
                           monitor_host="registry-host",
                           monitor_period=inputs["monitor_period"])
        grid = tb.session_grid(
            member_hosts=tuple(inputs["members"]),
            tenants=[TenantQuota(**q) for q in inputs["tenants"]],
            queue_capacity=inputs["queue_capacity"], recruit=False)
        return {"mesh": mesh, "testbed": tb, "grid": grid,
                "client": tb.thin_client("bench-pda")}

    def unit(self, state, inputs, rec):
        from repro.errors import MarshallingError, TooManyRequestsError
        from repro.scenegraph.nodes import MeshNode
        from repro.scenegraph.tree import SceneTree
        from repro.services.protocol import unframe_reject

        grid, client, mesh = state["grid"], state["client"], state["mesh"]
        sim = state["testbed"].network.sim
        monitor = state["testbed"].monitor
        tenants = [q["tenant"] for q in inputs["tenants"]]
        # no frame is drawn, so a session's demand is set through its frame
        # rate: the rate at which this scene takes `share` of the pool
        fps_per_share = grid.pool_pps() / mesh.n_triangles
        outcomes = {"admit": 0, "queue": 0, "reject": 0}
        for k, step in enumerate(inputs["steps"]):
            session_id = f"s{k:05d}"
            tenant = tenants[step["tenant"]]
            tree = SceneTree(name=session_id)
            tree.add(MeshNode(mesh))
            reject_frame = None
            rec.begin()
            try:
                if step["release"] is not None:
                    admitted = [gs.session_id for gs in grid.sessions()]
                    if admitted:
                        grid.release_session(
                            admitted[int(step["release"] * len(admitted))])
                try:
                    outcome = client.open_grid_session(
                        grid, tenant, session_id, tree,
                        target_fps=step["share"] * fps_per_share).outcome
                except TooManyRequestsError:
                    outcome = "reject"
                    reject_frame = grid.decisions[-1].reject_frame
                # every op ends with the housekeeping a front end does: a
                # queue pump, one scrape of every service and a simulated
                # second for the scrapes to arrive
                grid.pump()
                monitor.scrape_all()
                monitor.observe_grid(sim.now)
                sim.run_until(sim.now + 1.0)
            except Exception:
                rec.end()
                rec.fail(traceback.format_exc(limit=3))
                continue
            rec.end()
            outcomes[outcome] += 1
            if reject_frame is not None:
                try:
                    info = unframe_reject(reject_frame)
                except MarshallingError as exc:
                    rec.fail(f"request {k}: reject frame: {exc}")
                else:
                    if (info.tenant, info.session_id) != (tenant,
                                                          session_id):
                        rec.fail(f"request {k}: reject frame names "
                                 f"{info.tenant}/{info.session_id}")
        rec.begin()
        while grid.sessions() or grid.queue_depth():
            for gs in grid.sessions():
                grid.release_session(gs.session_id)
            if grid.queue_depth():
                sim.run_until(sim.now + grid.queue_timeout)
                grid.pump()
        rec.end(0)
        if grid.committed_pps() != 0 or grid.queue_depth() != 0:
            rec.fail(f"after releasing everything {grid.committed_pps()} "
                     f"pps committed, {grid.queue_depth()} queued")
        return {"outcomes": outcomes, "sim_end": repr(sim.now)}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ThinDense(), TiledFill(), FarmSweep(), GridChurn())}
