"""The observability layer: metrics, tracing, exporters, instrumentation.

Unit coverage for the primitives in ``repro.obs`` plus end-to-end
assertions that the instrumented hot paths (scheduler, migrator, network,
streaming, compression, session recovery) actually populate an installed
registry — and store nothing when none is installed.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.obs import (
    NULL_OBS,
    FlightRecorder,
    MetricsRegistry,
    Observability,
    Tracer,
    prometheus_text,
    snapshot,
)
from tests.conftest import (
    FakeService,
    FakeSession,
    assert_off_stores_nothing,
    load_alerts,
)


@pytest.fixture
def bundle():
    """A fresh registry + tracer installed for the duration of the test."""
    with obs.observed() as b:
        yield b


# -- metrics primitives --------------------------------------------------------------


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c_total").inc(-1)

    def test_counter_rejects_nan(self):
        """NaN passed the ``amount < 0`` guard, poisoned the counter and
        shipped a non-standard ``NaN`` token in every scrape."""
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            c.inc(float("nan"))
        assert c.value == 0.0

    def test_histogram_rejects_nan(self):
        """``bisect_left`` filed NaN in the lowest bucket: {NaN, 0.5} read
        p50 = 0.001 and a NaN sum."""
        h = MetricsRegistry().histogram("h")
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        assert (h.count, h.sum) == (1, 0.5)
        assert h.quantile(0.5) > 0.25

    def test_gauge_holds_nan_and_every_nan_write_is_a_change(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(float("nan"))
        assert math.isnan(g.value)
        before = reg.snapshot()
        g.set(float("nan"))
        assert reg.snapshot() is not before
        assert '"value":NaN' in reg.snapshot_json()

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3.0

    def test_histogram_buckets_and_moments(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.5)
        assert h.mean == pytest.approx(105.5 / 4)
        cumulative = dict(h.cumulative_buckets())
        assert cumulative[1.0] == 1
        assert cumulative[10.0] == 3
        assert cumulative[float("inf")] == 4

    def test_histogram_requires_sorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_histogram_boundary_is_le(self):
        """Prometheus semantics: an observation equal to a bound lands in
        that bucket (le = less-or-equal)."""
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        h.observe(1.0)
        assert dict(h.cumulative_buckets())[1.0] == 1


class TestMetricsRegistry:
    def test_same_labels_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("req_total", method="get")
        b = reg.counter("req_total", method="get")
        c = reg.counter("req_total", method="put")
        assert a is b and a is not c
        a.inc()
        assert reg.value("req_total", method="get") == 1
        assert reg.value("req_total", method="put") == 0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("x_total", a="1", b="2").inc()
        assert reg.value("x_total", b="2", a="1") == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")
        with pytest.raises(ValueError):
            MetricsRegistry().counter("9starts_with_digit")

    def test_value_on_histogram_is_count(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(0.2)
        assert reg.value("h") == 1

    def test_snapshot_is_rebuilt_only_after_a_change(self):
        reg = MetricsRegistry()
        c, g = reg.counter("c_total"), reg.gauge("g")
        g.set(2.0)
        snap, text, stats = reg.snapshot(), reg.snapshot_json(), reg.stats()
        c.inc(0)
        g.set(2.0)
        g.inc(0)
        assert reg.snapshot() is snap and reg.snapshot_json() is text
        assert reg.stats() is stats
        g.set(0.0)
        g.set(-0.0)                     # equal, but it encodes unlike 0.0
        assert '"value":-0.0' in reg.snapshot_json()
        reg.counter("c_total", mode="x")         # a new label set
        reg.histogram("h_seconds").observe(0.1)  # a new family
        assert json.loads(reg.snapshot_json()) == reg.snapshot()
        assert json.dumps(reg.snapshot(), sort_keys=True,
                          separators=(",", ":")) == reg.snapshot_json()
        assert reg.stats() == {"families": 3, "series": 4, "samples": 4}

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help a", mode="x").inc(2)
        reg.histogram("b_seconds").observe(0.01)
        snap = reg.snapshot()
        assert snap["a_total"]["kind"] == "counter"
        assert snap["a_total"]["help"] == "help a"
        assert snap["a_total"]["series"][0] == {
            "labels": {"mode": "x"}, "value": 2.0}
        hist = snap["b_seconds"]["series"][0]
        assert hist["count"] == 1
        assert "+Inf" in hist["buckets"]


# -- tracing -------------------------------------------------------------------------


class TestTracer:
    def test_record_and_select(self):
        t = Tracer()
        t.record("render", 0.0, 1.0, frame=0)
        t.record("transfer", 1.0, 2.0, frame=0)
        t.record("render", 2.0, 3.0, frame=1)
        assert len(t.select("render")) == 2
        assert len(t.select(frame=0)) == 2
        assert t.select("render", frame=1)[0].duration == pytest.approx(1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().record("x", 2.0, 1.0)

    def test_chains_group_and_order(self):
        t = Tracer()
        t.record("transfer", 1.0, 2.0, frame=0)
        t.record("render", 0.0, 1.0, frame=0)
        t.record("blit", 2.0, 2.1, frame=0)
        t.record("render", 1.0, 2.0, frame=1)
        t.record("other", 0.0, 9.0)            # no frame attr: excluded
        chains = t.chains()
        assert sorted(chains) == [0, 1]
        assert [s.name for s in chains[0]] == ["render", "transfer", "blit"]

    def test_span_context_uses_clock(self):
        from repro.network.clock import Simulator

        sim = Simulator()
        t = Tracer(clock=sim.clock)
        with t.span("work", job="j"):
            sim.clock.advance(0.5)
        (span,) = t.spans
        assert span.duration == pytest.approx(0.5)
        assert span.attrs == {"job": "j"}

    def test_span_without_clock_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("x"):
                pass

    def test_capacity_bound_drops(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.record("s", i, i + 1)
        assert len(t.spans) == 2
        assert t.dropped == 3
        t.clear()
        assert t.spans == [] and t.dropped == 0


# -- the no-op fast path -------------------------------------------------------------


class TestNoopPath:
    def test_default_active_is_null(self):
        assert obs.active() is NULL_OBS
        assert not NULL_OBS.enabled

    def test_an_unguarded_write_is_caught(self, small_testbed, monkeypatch):
        """The autouse check in ``conftest`` is what keeps off empty:
        switching ``NULL_OBS`` on stands in for deleting the ``if
        obs.enabled:`` guard in ``Network.send``, and the check turns red.
        The writes land in fresh instruments that monkeypatch takes back."""
        for name, fresh in (("metrics", MetricsRegistry()),
                            ("tracer", Tracer()),
                            ("recorder", FlightRecorder())):
            monkeypatch.setattr(NULL_OBS, name, fresh)
        monkeypatch.setattr(NULL_OBS, "enabled", True)
        small_testbed.network.send("centrino", "athlon", 10_000)
        small_testbed.network.sim.run()
        assert NULL_OBS.metrics.has("rave_net_transfers_total")
        with pytest.raises(AssertionError):
            assert_off_stores_nothing()

    def test_install_uninstall(self):
        bundle = obs.install()
        try:
            assert obs.active() is bundle and bundle.enabled
        finally:
            obs.uninstall()
        assert obs.active() is NULL_OBS

    def test_observed_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.observed():
                raise RuntimeError("boom")
        assert obs.active() is NULL_OBS

    def test_instrumented_path_off_by_default(self, small_testbed):
        """With nothing installed, running traffic must register nothing."""
        tb = small_testbed
        tb.network.send("centrino", "athlon", 10_000)
        tb.network.sim.run()
        assert not NULL_OBS.metrics.families()
        assert NULL_OBS.tracer.spans == []


# -- exporters -----------------------------------------------------------------------


class TestExporters:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("rave_demo_total", "a demo counter", mode="x").inc(3)
        reg.gauge("rave_level").set(0.5)
        reg.histogram("rave_lat_seconds", "latency",
                      buckets=(0.1, 1.0)).observe(0.05)
        return reg

    def test_prometheus_text_format(self):
        text = prometheus_text(self.make_registry())
        assert "# HELP rave_demo_total a demo counter" in text
        assert "# TYPE rave_demo_total counter" in text
        assert 'rave_demo_total{mode="x"} 3' in text
        assert "rave_level 0.5" in text
        assert 'rave_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'rave_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "rave_lat_seconds_sum 0.05" in text
        assert "rave_lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_snapshot_contents(self):
        from repro.network.clock import Simulator

        sim = Simulator()
        sim.clock.advance(2.5)
        tracer = Tracer(clock=sim.clock)
        tracer.record("render", 0.0, 1.0, frame=0)
        tracer.record("blit", 1.0, 1.1, frame=0)
        snap = snapshot(self.make_registry(), tracer, clock=sim.clock,
                        meta={"scenario": "unit"})
        assert snap["format"] == "rave-observability-snapshot/1"
        assert snap["simulated_seconds"] == pytest.approx(2.5)
        assert snap["meta"] == {"scenario": "unit"}
        assert snap["metrics"]["rave_demo_total"]["kind"] == "counter"
        assert snap["frames"] == {"0": ["render", "blit"]}
        assert snap["spans_dropped"] == 0

    def test_json_serialisable_with_inf_free_payload(self):
        """Histogram +Inf bounds must not leak as non-JSON floats."""
        text = json.dumps(snapshot(self.make_registry()))
        assert not math.isinf(max(
            (v for v in _walk_numbers(json.loads(text))), default=0.0))


def _walk_numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _walk_numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _walk_numbers(v)
    elif isinstance(value, (int, float)):
        yield float(value)


class TestExpositionEdgeCases:
    """Prometheus text-format conformance on hostile inputs."""

    def test_label_values_escape_backslash_quote_and_newline(self):
        reg = MetricsRegistry()
        reg.counter("rave_paths_total",
                    path='C:\\render\\"cache"\nline2').inc()
        text = prometheus_text(reg)
        assert ('rave_paths_total{path='
                '"C:\\\\render\\\\\\"cache\\"\\nline2"} 1') in text
        # the escaped line must stay a single exposition line
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("rave_paths_total{"))
        assert line.endswith("} 1")

    def test_gauge_renders_minus_inf_and_nan(self):
        reg = MetricsRegistry()
        reg.gauge("rave_floor", kind="neg").set(float("-inf"))
        reg.gauge("rave_floor", kind="nan").set(float("nan"))
        text = prometheus_text(reg)
        assert 'rave_floor{kind="neg"} -Inf' in text
        assert 'rave_floor{kind="nan"} NaN' in text

    def test_histogram_infinite_bucket_bound_label(self):
        reg = MetricsRegistry()
        reg.histogram("rave_t_seconds", buckets=(0.5,)).observe(2.0)
        text = prometheus_text(reg)
        assert 'rave_t_seconds_bucket{le="0.5"} 0' in text
        assert 'rave_t_seconds_bucket{le="+Inf"} 1' in text

    def test_escaped_exposition_still_one_series_per_line(self):
        reg = MetricsRegistry()
        reg.counter("rave_x_total", a='v"1"', b="w\n2").inc(4)
        text = prometheus_text(reg)
        lines = [ln for ln in text.splitlines()
                 if ln.startswith("rave_x_total")]
        assert lines == ['rave_x_total{a="v\\"1\\"",b="w\\n2"} 4']


class TestSnapshotMetadata:
    """Registry metadata + the ``wall_meta`` federation slot."""

    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("rave_a_total").inc(2)
        reg.gauge("rave_b", mode="x").set(1.0)
        reg.gauge("rave_b", mode="y").set(2.0)
        reg.histogram("rave_c_seconds", buckets=(1.0,)).observe(0.5)
        reg.histogram("rave_c_seconds", buckets=(1.0,)).observe(0.7)
        return reg

    def test_registry_stats_counts(self):
        stats = self.make_registry().stats()
        assert stats == {"families": 3, "series": 4, "samples": 5}

    def test_snapshot_carries_registry_metadata(self):
        from repro.network.clock import Simulator

        sim = Simulator()
        sim.clock.advance(4.0)
        snap = snapshot(self.make_registry(), clock=sim.clock,
                        source="bench")
        assert snap["registry"]["families"] == 3
        assert snap["wall_meta"]["bench"]["simulated_seconds"] \
            == pytest.approx(4.0)
        assert snap["wall_meta"]["bench"]["series"] == 4

    def test_wall_meta_slots_federate_without_collision(self):
        a = snapshot(self.make_registry(), source="svc-a")
        b = snapshot(MetricsRegistry(), source="svc-b")
        merged = {**a["wall_meta"], **b["wall_meta"]}
        assert set(merged) == {"svc-a", "svc-b"}
        assert merged["svc-a"]["families"] == 3
        assert merged["svc-b"]["families"] == 0

    def test_snapshot_flight_recorder_section(self):
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(capacity=8)
        recorder.note("placement", time=1.0, detail="rs-a")
        recorder.dump("unit-test", time=2.0)
        snap = snapshot(MetricsRegistry(), recorder=recorder)
        section = snap["flight_recorder"]
        assert section["events_seen"] == 1
        assert section["capacity"] == 8
        assert section["dumps"][0]["reason"] == "unit-test"


# -- instrumented paths, end to end --------------------------------------------------


class TestNetworkMetrics:
    def test_send_populates_counters(self, small_testbed, bundle):
        tb = small_testbed
        tb.network.send("centrino", "athlon", 50_000)
        tb.network.sim.run()
        m = bundle.metrics
        assert m.value("rave_net_transfers_total") == 1
        assert m.value("rave_net_bytes_total") == 50_000
        assert m.value("rave_net_transfer_seconds") == 1   # histogram count
        # every link on the path carried exactly that payload
        link_family = next(f for f in m.families()
                           if f.name == "rave_net_link_bytes_total")
        assert link_family.children
        assert all(child.value == 50_000
                   for child in link_family.children.values())


class TestSchedulerMetrics:
    def test_placement_counts(self, testbed, bundle):
        from repro.core.cost import NodeCost
        from repro.core.scheduler import RenderServiceScheduler

        tb = testbed
        scheduler = RenderServiceScheduler(tb.data_service, target_fps=10)
        pool = list(tb.render_services.values())
        placement = scheduler.place(NodeCost(polygons=100_000), pool)
        m = bundle.metrics
        assert m.value("rave_scheduler_placements_total",
                       mode=placement.mode) == 1
        assert m.value("rave_scheduler_interrogations_total") >= len(pool)
        assert m.value("rave_scheduler_interrogation_seconds") >= len(pool)
        assert m.value("rave_scheduler_placement_interrogation_seconds") == 1

    def test_refusal_counts(self, small_testbed, bundle):
        from repro.core.cost import NodeCost
        from repro.core.scheduler import RenderServiceScheduler
        from repro.errors import InsufficientResources

        tb = small_testbed
        scheduler = RenderServiceScheduler(tb.data_service)
        with pytest.raises(InsufficientResources):
            scheduler.place(NodeCost(polygons=10**12),
                            list(tb.render_services.values()))
        assert bundle.metrics.value("rave_scheduler_refusals_total") == 1
        assert not bundle.metrics.has("rave_scheduler_placements_total")


class TestMigrationMetrics:
    def build(self):
        from repro.data.generators import skeleton
        from repro.scenegraph.nodes import MeshNode
        from repro.scenegraph.tree import SceneTree

        tree = SceneTree()
        ids = []
        for i in range(6):
            node = tree.add(MeshNode(skeleton(2000).normalized(),
                                     name=f"part{i}"))
            ids.append(node.node_id)
        per_node = tree.node(ids[0]).n_polygons
        slow = FakeService("slow", rate=3e4, committed=per_node * 6)
        fast = FakeService("fast", rate=1e7, committed=0.0)
        session = FakeSession(tree, [slow, fast],
                               {"slow": set(ids), "fast": set()})
        return session, slow, fast

    def test_overload_migration_counted(self, bundle):
        from repro.core.migration import WorkloadMigrator

        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10)
        actions = migrator.plan(session, load_alerts(slow, fps=2.0))
        assert actions
        m = bundle.metrics
        assert m.value("rave_migration_triggers_total",
                       kind="overload") >= 1
        assert m.value("rave_migration_actions_total",
                       reason="overload") == len(actions)
        assert m.value("rave_migration_polygons_moved_total") == sum(
            a.polygons for a in actions)


class TestHealthMetrics:
    def test_transitions_counted(self, bundle):
        from repro.core.health import HeartbeatMonitor
        from repro.network.clock import Simulator

        sim = Simulator()
        mon = HeartbeatMonitor(sim, suspect_after=1.0, dead_after=3.0)
        mon.watch("rs-a")
        sim.clock.advance(1.5)
        mon.poll()                       # alive -> suspected
        sim.clock.advance(2.0)
        mon.poll()                       # suspected -> dead
        mon.beat("rs-a")                 # dead -> recovered
        m = bundle.metrics
        assert m.value("rave_health_transitions_total",
                       state="suspected") == 1
        assert m.value("rave_health_transitions_total", state="dead") == 1
        assert m.value("rave_health_transitions_total",
                       state="recovered") == 1


class TestCodecMetrics:
    def test_adaptive_choice_counted(self, bundle):
        from repro.compression import AdaptiveCodec, BandwidthEstimator
        from repro.render.framebuffer import FrameBuffer
        import numpy as np

        est = BandwidthEstimator(initial_bps=100e6)
        codec = AdaptiveCodec(estimator=est, latency_budget=0.05)
        fb = FrameBuffer(64, 64)
        rng = np.random.default_rng(3)
        fb.color[:] = rng.integers(0, 256, fb.color.shape, dtype=np.uint8)
        first = codec.encode(fb)                 # fast link: raw
        est.observe(nbytes=1_000, seconds=1.0)   # collapse to 8 kbit/s
        fb2 = FrameBuffer(64, 64)
        fb2.color[:] = rng.integers(0, 256, fb2.color.shape, dtype=np.uint8)
        second = codec.encode(fb2)               # nothing fits: budget miss
        m = bundle.metrics
        assert m.value("rave_codec_frames_total",
                       codec=first.meta["inner"]) >= 1
        assert m.value("rave_codec_encoded_bytes_total",
                       codec=first.meta["inner"]) > 0
        assert m.value("rave_codec_budget_misses_total") >= 1
        assert m.value("rave_bandwidth_estimate_bps") == pytest.approx(
            8_000.0)
        assert second.nbytes <= first.nbytes


class TestStreamingTrace:
    @pytest.fixture
    def streamer(self, testbed):
        from repro.data.generators import make_model
        from repro.services.streaming import FrameStreamer

        testbed.publish_model(
            "stream", make_model("skeleton", 400_000).normalized())
        rs = testbed.render_service("centrino")
        rsession, _ = rs.create_render_session(testbed.data_service,
                                               "stream")
        return testbed, FrameStreamer(rs, rsession.render_session_id,
                                      "zaurus", 100, 100,
                                      blit_seconds=0.002)

    def test_pipelined_span_chain_complete(self, streamer, bundle):
        """The e2e assertion: every streamed frame leaves one complete
        render → transfer → blit chain with contiguous timestamps."""
        tb, s = streamer
        stats = s.stream_pipelined(5)
        chains = bundle.tracer.chains(mode="pipelined")
        assert sorted(chains) == [0, 1, 2, 3, 4]
        for _frame, spans in chains.items():
            names = [sp.name for sp in spans]
            assert names == ["render", "transfer", "blit"]
            render, transfer, blit = spans
            # pipelined: the send may wait for the previous transfer, but
            # never starts before its own render is done
            assert transfer.start >= render.end - 1e-12
            assert blit.start == pytest.approx(transfer.end)
            assert blit.duration == pytest.approx(0.002)
        # arrivals observed by the stats match the traced transfer ends
        ends = sorted(sp[1].end for sp in chains.values())
        assert ends == pytest.approx(stats.arrivals)
        assert bundle.metrics.value("rave_stream_frames_total",
                                    mode="pipelined", session=s.rsid) == 5
        assert bundle.metrics.value("rave_stream_frame_latency_seconds",
                                    mode="pipelined") == 5

    def test_lockstep_spans_serialised(self, streamer, bundle):
        _, s = streamer
        s.stream_lockstep(3)
        chains = bundle.tracer.chains(mode="lockstep")
        assert len(chains) == 3
        for spans in chains.values():
            render, transfer, blit = spans
            assert transfer.start == pytest.approx(render.end)


class TestThinClientTrace:
    def test_frame_request_spans(self, small_testbed, bundle):
        from repro.compression import Rgb565Codec
        from repro.data.generators import make_model

        tb = small_testbed
        tb.publish_model("pda", make_model("galleon", 20_000).normalized())
        rs = tb.render_service("centrino")
        rsession, _ = rs.create_render_session(tb.data_service, "pda")
        client = tb.thin_client("pda-1")
        client.attach(rs, rsession.render_session_id)
        client.request_frame(64, 64, codec=Rgb565Codec())
        chain = bundle.tracer.chains(client="pda-1")[0]
        names = [sp.name for sp in chain]
        assert names == ["request", "render", "encode", "transfer",
                         "decode", "blit"]
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.start >= prev.end - 1e-12
        transfer = chain[3]
        assert transfer.attrs["nbytes"] > 0
        assert bundle.metrics.value("rave_client_frames_total",
                                    client="pda-1") == 1


class TestSessionMetrics:
    def build(self, testbed):
        from repro.core.session import CollaborativeSession
        from repro.data.generators import skeleton
        from repro.scenegraph.nodes import MeshNode
        from repro.scenegraph.tree import SceneTree

        tree = SceneTree("big")
        for i in range(6):
            tree.add(MeshNode(skeleton(4000).normalized(), name=f"m{i}"))
        testbed.publish_tree("big", tree)
        cs = CollaborativeSession(testbed.data_service, "big",
                                  recruiter=testbed.recruiter())
        for host in ("onyx", "v880z", "centrino"):
            cs.connect(testbed.render_service(host))
        cs.place_dataset()
        return cs

    def test_composite_frames_counted_and_timelined(self, testbed, bundle):
        from repro.render.camera import Camera

        cs = self.build(testbed)
        holders = [s for s in cs.render_services if cs.share_of(s)]
        if len(holders) < 2:
            idle = next(s for s in cs.render_services if not cs.share_of(s))
            cs.reassign_nodes(holders[0], idle,
                              [next(iter(cs.share_of(holders[0])))])
        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        sim = testbed.network.sim
        frames = []
        for _ in range(2):
            start = sim.now
            _, latency = cs.render_composite(cam, 48, 48)
            frames.append((start, latency, sim.now - start))
        m = bundle.metrics
        assert m.value("rave_session_frames_total",
                       session=cs.session_id, mode="composite") == 2
        timeline = cs.frame_timeline()
        assert sorted(timeline) == [0, 1]
        for (start, latency, advance), spans in zip(frames,
                                                    timeline.values()):
            names = [sp.name for sp in spans]
            assert names[0] == "render"
            assert names[-1] == "composite"
            # shares render side by side, then their framebuffers queue
            # at the compositor: the clock pays exactly the latency
            assert names.count("render") >= 2
            assert advance == latency
            assert spans[0].start == start
            assert spans[-1].end - start == pytest.approx(latency, rel=1e-12)

    def test_recovery_counted(self, testbed, bundle):
        cs = self.build(testbed)
        victim = next(s for s in cs.render_services if cs.share_of(s))
        report = cs.handle_service_failure(victim)
        m = bundle.metrics
        assert m.value("rave_session_recoveries_total",
                       session=cs.session_id) == 1
        assert m.value("rave_session_nodes_recovered_total",
                       session=cs.session_id) == report.nodes_recovered

    def test_snapshot_covers_the_board(self, testbed, bundle):
        """A scenario touching scheduler, network, session and codec
        leaves all four metric groups in one exported snapshot."""
        from repro.compression import AdaptiveCodec
        from repro.render.camera import Camera
        from repro.render.framebuffer import FrameBuffer

        cs = self.build(testbed)
        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        cs.render_composite(cam, 48, 48)
        testbed.network.send("onyx", "xeon", 10_000)
        testbed.network.sim.run()
        AdaptiveCodec().encode(FrameBuffer(16, 16))
        snap = bundle.snapshot(clock=testbed.clock)
        names = set(snap["metrics"])
        assert any(n.startswith("rave_scheduler_") for n in names)
        assert any(n.startswith("rave_net_") for n in names)
        assert any(n.startswith("rave_session_") for n in names)
        assert any(n.startswith("rave_codec_") for n in names)
        assert snap["frames"]                 # at least one span chain
