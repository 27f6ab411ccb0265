"""Every registered ``rave_*`` family is observable where it should be.

``ravelint``'s metric-registry rule cross-checks that each
``MetricsRegistry`` registration in ``src/repro`` has a consumer in
``obs/rules.py``, ``obs/dashboard.py``, the tests or the benchmarks.
These tests are the honest half of that contract: instead of
grandfathering "registered but never read back" findings into the
baseline, they drive each subsystem and assert its families actually
appear with sane values — so a renamed or never-incremented metric fails
here, and an unconsumed registration fails the lint clean-tree test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data.generators import galleon
from repro.render.compositor import FrameSynchronizer
from repro.render.framebuffer import FrameBuffer, split_tiles
from repro.scenegraph.nodes import CameraNode, MeshNode
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import SetCamera
from repro.testbed import build_testbed


@pytest.fixture
def loaded_testbed():
    """A testbed that has rendered a frame and distributed an update."""
    tb = build_testbed()
    tree = SceneTree("demo")
    tree.add(MeshNode(galleon().normalized(), name="ship"))
    tree.add(CameraNode(name="shared-cam"))
    session = tb.publish_tree("demo", tree)
    rs = tb.render_service("centrino")
    rsession, _ = rs.create_render_session(tb.data_service, "demo")
    with obs.observed(clock=tb.clock) as bundle:
        client = tb.thin_client("coverage-user")
        client.attach(rs, rsession.render_session_id)
        client.move_camera(position=(2.2, 1.4, 1.2))
        client.request_frame(100, 100)
        cam = session.tree.cameras()[0]
        tb.data_service.subscribe("demo", "coverage-sub", host="athlon")
        tb.data_service.publish_update("demo", SetCamera(
            node_id=cam.node_id, position=np.array([3.0, 0.0, 0.0]),
            target=np.zeros(3)))
        yield tb, rs, bundle


def scraped(telemetry) -> dict:
    return telemetry.scrape(now=0.0)["metrics"]


class TestRenderServiceFamilies:
    def test_frame_counters_and_gauges(self, loaded_testbed):
        _, rs, _ = loaded_testbed
        metrics = scraped(rs.telemetry)
        assert metrics["rave_rs_frames_total"]["series"][0]["value"] == 1.0
        assert metrics["rave_rs_frame_seconds"]["series"][0]["count"] == 1
        assert metrics["rave_rs_sessions"]["series"][0]["value"] == 1.0
        assert metrics["rave_rs_committed_polygons"]["series"][0][
            "value"] > 0.0
        assert "rave_rs_fps" in metrics
        assert "rave_rs_utilisation" in metrics


class TestDataServiceFamilies:
    def test_session_and_update_families(self, loaded_testbed):
        tb, _, _ = loaded_testbed
        metrics = scraped(tb.data_service.telemetry)
        assert metrics["rave_ds_sessions"]["series"][0]["value"] == 1.0
        # the render session and the explicit test subscriber
        assert metrics["rave_ds_subscribers"]["series"][0]["value"] >= 1.0
        assert metrics["rave_ds_mirrors"]["series"][0]["value"] == 0.0
        assert metrics["rave_ds_subscriptions_total"]["series"][0][
            "value"] >= 1.0
        assert metrics["rave_ds_updates_total"]["series"][0]["value"] >= 1.0
        assert metrics["rave_ds_update_bytes_total"]["series"][0][
            "value"] > 0.0
        assert metrics["rave_ds_deliveries_total"]["series"][0][
            "value"] >= 1.0


class TestUddiRegistryFamilies:
    def test_directory_gauges(self, loaded_testbed):
        tb, _, _ = loaded_testbed
        metrics = scraped(tb.registry.telemetry)
        assert metrics["rave_uddi_businesses"]["series"][0]["value"] >= 1.0
        assert metrics["rave_uddi_tmodels"]["series"][0]["value"] >= 1.0
        assert metrics["rave_uddi_services"]["series"][0]["value"] >= 1.0
        assert "rave_uddi_queries_total" in metrics


class TestThinClientFamilies:
    def test_frame_latency_histogram(self, loaded_testbed):
        _, _, bundle = loaded_testbed
        assert bundle.metrics.value("rave_client_frames_total",
                                    client="coverage-user") == 1.0
        assert bundle.metrics.value(
            "rave_client_frame_latency_seconds") == 1


class TestFrameSynchronizerFamilies:
    def test_release_drop_and_late_counters(self):
        tiles = split_tiles(8, 8, 2, 1)

        def part(tile, value):
            fb = FrameBuffer(tile.width, tile.height)
            fb.color[:] = value
            return fb

        with obs.observed() as bundle:
            sync = FrameSynchronizer(tiles)
            sync.submit(0, 0, part(tiles[0], 1))   # frame 0 never completes
            sync.submit(1, 0, part(tiles[0], 2))
            sync.submit(1, 1, part(tiles[1], 3))
            assert sync.take_frame(FrameBuffer(8, 8)) == 1
            sync.submit(0, 1, part(tiles[1], 4))   # late tile, watermarked
            assert bundle.metrics.value(
                "rave_sync_frames_released_total") == 1.0
            assert bundle.metrics.value(
                "rave_sync_frames_dropped_total") == 1.0
            assert bundle.metrics.value(
                "rave_sync_late_tiles_total") == 1.0


class TestAutoscalerFamilies:
    def test_scale_decisions_counted(self):
        from repro.core.autoscale import RecruitmentAutoscaler
        from repro.core.session import CollaborativeSession
        from repro.obs.rules import GRID_OVERLOAD_KIND, Alert

        tb = build_testbed(monitor_host="registry-host")
        tree = SceneTree("scaled")
        tree.add(MeshNode(galleon(5_000).normalized(), name="ship"))
        tb.publish_tree("scaled", tree)
        cs = CollaborativeSession(tb.data_service, "scaled",
                                  recruiter=tb.recruiter())
        cs.connect(tb.render_service("centrino"))
        cs.place_dataset()
        scaler = RecruitmentAutoscaler(cs, tb.monitor)
        alert = Alert(rule="grid-overload", kind=GRID_OVERLOAD_KIND,
                      service="_grid", since=5.0, last_time=10.0,
                      value=2.0, severity="critical")
        with obs.observed(clock=tb.clock) as bundle:
            events = scaler.evaluate([alert], now=10.0)
            assert events and events[0].kind == "grow"
            assert bundle.metrics.value("rave_autoscale_events_total",
                                        kind="grow") >= 1.0
