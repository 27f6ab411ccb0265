"""End-to-end observability benchmark: one instrumented grid scenario.

Runs the paper's whole machinery — placement, collaborative compositing,
pipelined streaming, adaptive compression over a degrading wireless link,
migration pressure and a mid-run crash with heartbeat-driven recovery —
under an installed :mod:`repro.obs` bundle and a deployed
:class:`~repro.services.monitor.MonitorService` scraping every service
over the simulated network, then exports everything the instrumentation
captured as one JSON snapshot (``BENCH_observability.json``, by default
under the untracked ``benchmarks/out/``, elsewhere when ``--out`` names a
path).

The snapshot is the artifact: counters for every subsystem, latency
histograms, the per-frame span chains that let a trace viewer (or a
regression diff) reconstruct exactly where each frame's time went, the
monitor's federated view (alerts + SLO attainment report), and the
flight-recorder dumps (also written separately as
``BENCH_flight_recorder.json`` beside the snapshot so CI can upload the
post-mortem on its own).

Usage::

    PYTHONPATH=src python benchmarks/bench_observability.py [--smoke]
        [--out PATH]

``--smoke`` shrinks the scenario (fewer polygons, fewer frames) so CI can
run it in seconds; the snapshot schema is identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.compression import AdaptiveCodec, BandwidthEstimator
from repro.core.migration import WorkloadMigrator
from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.network.faults import FaultInjector
from repro.obs import write_snapshot
from repro.obs.rules import RuleEngine
from repro.render.camera import Camera
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.streaming import FrameStreamer
from repro.testbed import build_testbed

#: untracked, so that running the benchmark leaves the checkout clean
DEFAULT_OUT = Path(__file__).parent / "out" / "BENCH_observability.json"


def build_session(tb, polygons_per_part: int, parts: int
                  ) -> CollaborativeSession:
    """Publish a multi-part model and place it across the render pool."""
    tree = SceneTree("bench")
    for i in range(parts):
        tree.add(MeshNode(skeleton(polygons_per_part).normalized(),
                          name=f"part{i}"))
    tb.publish_tree("bench", tree)
    cs = CollaborativeSession(tb.data_service, "bench",
                              recruiter=tb.recruiter())
    for host in ("onyx", "v880z", "centrino"):
        cs.connect(tb.render_service(host))
    cs.place_dataset()
    return cs


def composite_frames(cs, n_frames: int) -> None:
    """Orbiting composite renders (the collaborative hot path)."""
    cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
    for _ in range(n_frames):
        cs.render_composite(cam, 64, 64)


def stream_frames(tb, n_frames: int) -> None:
    """Pipelined streaming from a render service to the PDA host."""
    rs = tb.render_service("centrino")
    rsession, _ = rs.create_render_session(tb.data_service, "bench")
    streamer = FrameStreamer(rs, rsession.render_session_id, "zaurus",
                             128, 128, blit_seconds=0.004)
    streamer.stream_pipelined(n_frames)


def walkaway_compression(tb, n_frames: int) -> None:
    """Adaptive codec while the PDA user walks away from the access point."""
    from repro.render.framebuffer import FrameBuffer
    import numpy as np

    codec = AdaptiveCodec(estimator=BandwidthEstimator(),
                          latency_budget=0.25)
    rng = np.random.default_rng(42)
    fb = FrameBuffer(96, 96)
    fb.color[:] = rng.integers(0, 256, fb.color.shape, dtype=np.uint8)
    for i in range(n_frames):
        quality = max(0.1, 1.0 - i / n_frames)
        tb.wireless.set_signal_quality("zaurus", quality)
        # drift a band of pixels so deltas have real content
        fb = fb.copy()
        fb.color[i % 96, :] = rng.integers(0, 256, (96, 3), dtype=np.uint8)
        encoded = codec.encode(fb)
        seconds = tb.network.transfer_time("centrino", "zaurus",
                                           max(1, encoded.nbytes))
        tb.network.sim.clock.advance(seconds)
        codec.estimator.observe(encoded.nbytes, seconds)


def bulk_scene_transfers(tb, cs, nbytes: int) -> None:
    """Model the scene hand-off as contention-aware scheduled transfers.

    ``Network.send`` is the instrumented path (per-link bytes and busy
    time); pushing each attachment's share concurrently also makes the
    transfers contend, so the link-utilisation gauges show real overlap.
    """
    data_host = tb.data_service.host
    for service in cs.render_services:
        if service.host != data_host:
            tb.network.send(data_host, service.host, nbytes)
    tb.network.sim.run()


def migration_pressure(cs, samples: int) -> None:
    """Feed sustained low-fps samples so the migrator plans real moves."""
    loaded = next((s for s in cs.render_services if cs.share_of(s)), None)
    if loaded is None:
        return
    engine = RuleEngine()
    now = cs.data_service.network.sim.now
    for i in range(samples):
        engine.observe(loaded.name, now + i, {
            "rave_rs_fps": 2.0, "rave_rs_utilisation": loaded.utilisation()})
    WorkloadMigrator(target_fps=10).plan(cs, engine.firing())


def tail_latency_breach(tb) -> None:
    """Saturate a one-member grid so queued admissions breach the p95 SLO.

    Two tenants alternate requests (so the per-tenant share cap never
    fires before the pool fills); the queued head waits ~1 simulated
    second before a release admits it, pushing the queue-wait p95 over
    the 0.5 s objective.  Cumulative buckets never decay, so the breach
    sustains across every subsequent scrape and the quantile-targeting
    alerts land in the snapshot and the flight-recorder dump.
    """
    from repro.core.grid import TenantQuota
    from repro.data.generators import uv_sphere
    from repro.obs.vocab import EVENT_QUEUE

    grid = tb.session_grid(member_hosts=("athlon",), name="bench-grid",
                           recruit=False, target_fps=3000.0)
    for i, tenant in enumerate(("acme", "beta")):
        grid.register_tenant(TenantQuota(tenant=tenant, priority=i,
                                         max_sessions=8, max_share=1.0,
                                         guaranteed_share=0.0))
    sim = tb.network.sim
    admitted = []
    for i in range(16):
        tree = SceneTree(name=f"grid-s{i}")
        tree.add(MeshNode(uv_sphere(nu=24, nv=24)))
        decision = grid.request_session(("acme", "beta")[i % 2],
                                        f"grid-s{i}", tree)
        if decision.outcome == EVENT_QUEUE:
            break
        admitted.append(f"grid-s{i}")
    sim.run_until(sim.now + 1.0)
    grid.release_session(admitted[0])    # the queued head waited ~1 s
    sim.run_until(sim.now + 7.0)         # sustain > 5 s of breached scrapes


def quantile_overhead(monitor, samples: int = 2000) -> dict:
    """Wall-clock cost of one federated p95 estimate, in microseconds.

    This is the only wall-clock measurement in the snapshot: the
    estimation happens on the scrape path, so its real cost bounds how
    often a monitor can afford to tick.
    """
    import time

    from repro.obs.quantiles import estimate_quantile

    merged = monitor.federated_buckets("rave_queue_wait_seconds")
    if not merged:
        return {"samples": 0, "buckets": 0, "mean_us": 0.0}
    t0 = time.perf_counter()
    for _ in range(samples):
        estimate_quantile(merged, 0.95)
    elapsed = time.perf_counter() - t0
    return {"samples": samples, "buckets": len(merged),
            "mean_us": elapsed / samples * 1e6}


def crash_and_recover(tb, cs) -> None:
    """Kill a share-holding service; heartbeats detect it, recovery runs."""
    cs.enable_fault_tolerance(heartbeat_interval=0.25,
                              suspect_after=1.0, dead_after=3.0)
    victim = next((s for s in cs.render_services if cs.share_of(s)), None)
    if victim is None:
        return
    inj = FaultInjector(tb.network, seed=7)
    now = tb.network.sim.now
    inj.schedule_crash(at=now + 1.0, host=victim.host)
    tb.network.sim.run_until(now + 10.0)


def run(smoke: bool, out: Path) -> Path:
    import json

    dump_out = out.with_name("BENCH_flight_recorder.json")

    polygons = 4_000 if smoke else 40_000
    frames = 3 if smoke else 12
    tb = build_testbed(monitor_host="registry-host")
    bundle = obs.install(clock=tb.clock)
    try:
        cs = build_session(tb, polygons, parts=6)
        bulk_scene_transfers(tb, cs, nbytes=polygons * 36)
        composite_frames(cs, frames)
        stream_frames(tb, frames * 2)
        walkaway_compression(tb, frames * 4)
        migration_pressure(cs, samples=8)
        tail_latency_breach(tb)
        crash_and_recover(tb, cs)
        path = write_snapshot(
            out, bundle.metrics, bundle.tracer, clock=tb.clock,
            meta={"benchmark": "observability",
                  "mode": "smoke" if smoke else "full",
                  "polygons_per_part": polygons,
                  "frames": frames},
            recorder=bundle.recorder,
            extra={"monitor": tb.monitor.snapshot(),
                   "quantile_overhead": quantile_overhead(tb.monitor)})
        dump_out.parent.mkdir(parents=True, exist_ok=True)
        dump_out.write_text(json.dumps(
            {"format": "rave-flight-recorder/1",
             "events_seen": bundle.recorder.seen,
             "capacity": bundle.recorder.capacity,
             "dumps": bundle.recorder.dumps},
            indent=2) + "\n")
    finally:
        obs.uninstall()
    return path


def check(path: Path) -> None:
    """Sanity-check the snapshot covers every instrumented subsystem."""
    import json

    data = json.loads(path.read_text())
    names = set(data["metrics"])
    for prefix in ("rave_scheduler_", "rave_session_", "rave_net_",
                   "rave_stream_", "rave_codec_", "rave_health_",
                   "rave_migration_"):
        assert any(n.startswith(prefix) for n in names), \
            f"snapshot is missing {prefix}* metrics"
    assert data["frames"], "snapshot has no per-frame span chains"
    # registry metadata + federation slot (satellite 2)
    assert data["registry"]["families"] > 0, "registry metadata missing"
    assert "default" in data["wall_meta"], "wall_meta slot missing"
    # the monitoring plane (tentpole): federated view, scrape traffic, SLOs
    monitor = data["monitor"]
    assert monitor["format"] == "rave-monitor-snapshot/1"
    assert monitor["scrapes"]["count"] > 0, "monitor never scraped"
    assert monitor["scrapes"]["bytes"] > 0, \
        "scrapes put no bytes on the simulated wire"
    # a scrape ships only the events past the monitor's cursor, so its
    # size must not grow with a service's history: the smoke run reads
    # 714 B per scrape, the full run 681 B (898 B when every scrape
    # re-sent the event ring)
    per_scrape = monitor["scrapes"]["bytes"] / monitor["scrapes"]["count"]
    assert per_scrape < 800, f"{per_scrape:.0f} B per scrape (budget 800)"
    assert monitor["services"], "monitor federated no services"
    assert monitor["slo"], "SLO attainment report is empty"
    for name, section in monitor["slo"].items():
        assert "objective" in section, f"SLO {name} has no objective"
    # the tail-latency plane: a federated p95 over the breach threshold,
    # the quantile SLO section, and the sustained alert
    grid_p95 = monitor["grid"]["rave_grid_queue_wait_seconds_p95"]
    assert grid_p95 > 0.5, f"queue-wait p95 never breached ({grid_p95})"
    assert monitor["slo"]["queue-wait-p95"]["quantile"] == 0.95
    assert any(a["kind"] == "tail-latency" for a in monitor["alerts"]), \
        "no tail-latency alert firing at snapshot time"
    overhead = data["quantile_overhead"]
    assert overhead["samples"] > 0 and overhead["buckets"] > 0, \
        "quantile-overhead measurement missing"
    # the crash left a post-mortem with the tail alert in its timeline
    recorder = json.loads(
        path.with_name("BENCH_flight_recorder.json").read_text())
    assert recorder["format"] == "rave-flight-recorder/1"
    assert recorder["dumps"], "no flight-recorder dump after the crash"
    dump_kinds = {e["kind"] for dump in recorder["dumps"]
                  for e in dump["events"]}
    assert "alert:tail-latency" in dump_kinds, \
        "tail-latency alert missing from the flight-recorder dump"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast scenario (CI)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"snapshot path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    path = run(args.smoke, args.out)
    check(path)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
