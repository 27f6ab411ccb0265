"""Shared fixtures: small deterministic meshes, trees and testbeds.

Every test also checks that observability off stores nothing: the
disabled :data:`repro.obs.NULL_OBS` bundle holds a plain registry, tracer
and recorder, and stays empty only because every write site checks
``obs.enabled`` first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.capacity import RenderCapacity
from repro.core.distribution import explode_to_grain
from repro.data.meshes import Mesh
from repro.obs import NULL_OBS, FlightRecorder, MetricsRegistry, Tracer
from repro.obs.rules import RuleEngine
from repro.scenegraph.nodes import CameraNode, MeshNode, TransformNode
from repro.scenegraph.tree import SceneTree


def assert_off_stores_nothing() -> None:
    """``NULL_OBS`` holds no metric family, span or recorder event."""
    assert NULL_OBS.metrics.families() == []
    assert NULL_OBS.tracer.spans == []
    assert NULL_OBS.recorder.seen == 0


class FakeService:
    """A render service reduced to its capacity figures: ``committed``
    polygons drawn at :attr:`fps` against ``rate`` polygons per second."""

    fps = 10.0

    def __init__(self, name, rate, committed=0.0):
        self.name = name
        self._rate = rate
        self._committed = committed

    def capacity(self):
        return RenderCapacity(
            polygons_per_second=self._rate, points_per_second=self._rate,
            voxels_per_second=0, texture_memory_bytes=2**30,
            volume_support=False)

    def committed_pps(self):
        return self._committed * self.fps

    def utilisation(self):
        return self.committed_pps() / self._rate

    def headroom(self, target_fps):
        return max(0.0, self._rate / target_fps
                   - self.committed_pps() / target_fps)


class FakeSession:
    """A :class:`~repro.core.session.CollaborativeSession` facade for
    migration policy tests: shares by service name over one tree."""

    def __init__(self, tree, services, shares):
        self.master_tree = tree
        self.render_services = services
        self._shares = shares
        self.recruiter = None
        self.moves = []

    def share_of(self, service):
        return self._shares[service.name]

    def reassign_nodes(self, src, dst, node_ids):
        self._shares[src.name] -= set(node_ids)
        self._shares[dst.name] |= set(node_ids)
        moved = sum(self.master_tree.node(n).n_polygons for n in node_ids)
        src._committed -= moved
        dst._committed += moved
        self.moves.append((src.name, dst.name, tuple(node_ids)))

    def split_node(self, service, node_id, grain):
        pieces = explode_to_grain(self.master_tree, [node_id], grain)
        if pieces:
            self._shares[service.name].discard(node_id)
            self._shares[service.name].update(pieces)
        return pieces

    def recruit_more(self, limit=None):
        return []


def load_alerts(*services, fps, utilisation=None, samples=8, start=0.0,
                step=1.0):
    """The alerts a default :class:`RuleEngine` fires after ``samples``
    scrapes, ``step`` seconds apart, of each service drawing ``fps`` at
    ``utilisation`` (default: the service's own)."""
    engine = RuleEngine()
    for i in range(samples):
        for service in services:
            engine.observe(service.name, start + i * step, {
                "rave_rs_fps": fps,
                "rave_rs_utilisation": (service.utilisation()
                                        if utilisation is None
                                        else utilisation)})
    return engine.firing()


@pytest.fixture(autouse=True)
def off_stores_nothing():
    """An instrumented path that wrote without its ``if obs.enabled:``
    guard fails the test that ran it, and only that test: a dirty bundle
    is emptied before the next one."""
    yield
    try:
        assert_off_stores_nothing()
    except AssertionError:
        NULL_OBS.metrics = MetricsRegistry()
        NULL_OBS.tracer = Tracer()
        NULL_OBS.recorder = FlightRecorder()
        raise


@pytest.fixture
def triangle() -> Mesh:
    """One triangle in the z=0 plane."""
    return Mesh(
        np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]],
                 dtype=np.float32),
        np.array([[0, 1, 2]], dtype=np.int32),
        name="tri",
    )


@pytest.fixture
def quad() -> Mesh:
    """A unit quad (two triangles) in the z=0 plane."""
    return Mesh(
        np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]],
                 dtype=np.float32),
        np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32),
        name="quad",
    )


@pytest.fixture
def small_galleon() -> Mesh:
    from repro.data.generators import galleon

    return galleon().normalized()


@pytest.fixture
def simple_tree(quad) -> SceneTree:
    """root -> transform -> mesh, plus a camera."""
    tree = SceneTree("fixture")
    xf = tree.add(TransformNode.from_translation((1.0, 0.0, 0.0), name="xf"))
    tree.add(MeshNode(quad, name="quad"), parent=xf)
    tree.add(CameraNode(position=(0, 0, 5), target=(0, 0, 0), name="cam"))
    return tree


@pytest.fixture
def testbed():
    from repro.testbed import build_testbed

    return build_testbed()


@pytest.fixture
def small_testbed():
    """Two render hosts only — faster for service-level tests."""
    from repro.testbed import build_testbed

    return build_testbed(render_hosts=("centrino", "athlon"))
