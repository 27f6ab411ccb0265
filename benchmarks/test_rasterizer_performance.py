"""Wall-clock performance of the software-rendering substrate itself.

Unlike the paper-table benchmarks (simulated seconds), these measure the
real throughput of the NumPy rasterizer, the compositor, the codecs and
the binary marshaller on the machine running the suite — the numbers a
downstream user of this library actually cares about.
"""

import numpy as np
import pytest

from repro.compression import RleCodec
from repro.data.generators import box, make_model
from repro.data.meshes import Mesh
from repro.data.volumes import visible_human_phantom
from repro.network.marshalling import BinaryMarshaller
from repro.render.camera import Camera
from repro.render.compositor import depth_composite
from repro.render.framebuffer import BACKGROUND, FrameBuffer, Tile
from repro.render.rasterizer import rasterize_mesh
from repro.render.volume import raymarch_volume
from repro.scenegraph.nodes import CameraNode
from repro.testbed import build_testbed


@pytest.fixture(scope="module")
def elle_mesh():
    return make_model("elle", 50_000).normalized()


@pytest.fixture(scope="module")
def cam():
    return Camera.looking_at((2.2, 1.4, 1.2))


def test_rasterize_50k_at_200(benchmark, elle_mesh, cam):
    def run():
        fb = FrameBuffer(200, 200)
        rasterize_mesh(elle_mesh, cam, fb)
        return fb

    fb = benchmark(run)
    assert fb.coverage() > 0.02


def test_rasterize_50k_at_200_cold(benchmark, elle_mesh, cam):
    """A mesh nothing has been prepared on yet, every round: what a node
    under a non-identity transform costs per frame (``transformed()`` hands
    back a new mesh), and the first frame of any mesh.  The case above
    reuses one mesh, so after its first round it times warm calls only."""
    def run():
        fb = FrameBuffer(200, 200)
        rasterize_mesh(Mesh(elle_mesh.vertices, elle_mesh.faces), cam, fb)
        return fb

    fb = benchmark(run)
    assert fb.coverage() > 0.02


def test_rasterize_box_at_32x24(benchmark):
    """Twelve triangles on a farm-sized frame: the fixed cost of a call."""
    mesh = box()
    camera = Camera.looking_at((3.0, 0.0, 0.5))

    def run():
        fb = FrameBuffer(32, 24)
        rasterize_mesh(mesh, camera, fb)
        return fb

    fb = benchmark(run)
    assert fb.coverage() > 0.02


def test_project_box_at_32x24(benchmark):
    """The camera's share of the call above: a fresh camera per round, as
    every farm frame has, and the projection of the box's eight vertices."""
    vh = box().homogeneous()
    node = CameraNode(position=(3.0, 0.0, 0.5))

    def run():
        return Camera.from_node(node).project_homogeneous(vh, 32, 24)

    x_px, y_px, w = benchmark(run)
    assert (w > 0).all()


def test_raymarch_phantom_64_at_200x150(benchmark):
    """A 64-cubed volume ray-marched at 200x150: 64 steps, each one
    trilinear sample per hitting ray, in NumPy."""
    volume = visible_human_phantom(64)
    camera = Camera.looking_at((0.0, 0.0, 3.5), up=(0.0, 1.0, 0.0))

    image = benchmark(raymarch_volume, volume, camera, 200, 150)
    assert image.coverage > 0.1


def test_route_testbed_cold(benchmark):
    """PDA to render host with nothing cached: a liveness setter drops the
    routing cache every round, so each lookup rebuilds the usable
    adjacency and runs the search."""
    net = build_testbed().network

    def run():
        net.set_host_up("zaurus", True)
        return net.path("zaurus", "onyx")

    route = benchmark(run)
    assert route[0] == "zaurus" and route[-1] == "onyx"


def test_rasterize_50k_at_400(benchmark, elle_mesh, cam):
    def run():
        fb = FrameBuffer(400, 400)
        rasterize_mesh(elle_mesh, cam, fb)
        return fb

    fb = benchmark(run)
    assert fb.coverage() > 0.02


def test_rasterize_one_fifth_tile_at_400(benchmark, elle_mesh, cam):
    """What one of five framebuffer-distribution services pays: the whole
    model's geometry and its tile's share of the fill (this tile cuts the
    figure roughly in half; its neighbours get next to nothing), drawn
    into a tile-sized window onto the frame."""
    tile = Tile(x0=200, y0=0, width=80, height=400)

    def run():
        fb = FrameBuffer(tile.width, tile.height, origin=(tile.x0, tile.y0),
                         frame=(400, 400))
        return fb, rasterize_mesh(elle_mesh, cam, fb)

    fb, stats = benchmark(run)
    assert stats.faces_rasterized > 40_000
    assert 0 < stats.fragments
    assert fb.coverage() > 0.02


def test_render_tiled_galleon_160x120(benchmark):
    """A framebuffer-distribution frame: a 5.5k-triangle galleon, one tile
    on each of five render services, assembled into the 160x120 frame."""
    from repro.core.session import CollaborativeSession
    from repro.data.generators import galleon
    from repro.testbed import RENDER_HOSTS

    tb = build_testbed()
    tb.publish_model("galleon", galleon(5_500))
    session = CollaborativeSession(tb.data_service, "galleon")
    for host in RENDER_HOSTS:
        session.connect(tb.render_service(host))
    camera = CameraNode(position=(3.0, -3.5, 2.5), target=(0.25, 0.0, 0.8),
                        up=(0.0, 0.0, 1.0))

    fb, plan, _ = benchmark(session.render_tiled, camera, 160, 120)
    assert len(plan.assignments) == len(RENDER_HOSTS)
    assert fb.coverage() > 0.02


def test_framebuffer_200x200(benchmark):
    """Allocating and clearing a frame, as every render call does first."""
    fb = benchmark(FrameBuffer, 200, 200, BACKGROUND)
    assert (fb.color == BACKGROUND).all()


def test_rasterize_gouraud_overhead(benchmark, elle_mesh, cam):
    def run():
        fb = FrameBuffer(200, 200)
        rasterize_mesh(elle_mesh, cam, fb, shading="gouraud")
        return fb

    fb = benchmark(run)
    assert fb.coverage() > 0.02


def test_depth_composite_three_buffers(benchmark, elle_mesh, cam):
    buffers = []
    for piece in elle_mesh.split_spatially(3):
        fb = FrameBuffer(256, 256)
        rasterize_mesh(piece, cam, fb)
        buffers.append(fb)

    merged = benchmark(depth_composite, buffers)
    assert merged.coverage() > 0.02


def test_rle_encode_frame(benchmark, elle_mesh, cam):
    fb = FrameBuffer(200, 200)
    rasterize_mesh(elle_mesh, cam, fb)
    codec = RleCodec()

    enc = benchmark(codec.encode, fb)
    assert enc.ratio > 1.5


def test_binary_marshal_megabyte(benchmark):
    value = {"vertices": np.zeros((30_000, 3), np.float32),
             "faces": np.zeros((60_000, 3), np.int32)}
    marshaller = BinaryMarshaller()

    result = benchmark(marshaller.marshal, value)
    assert result.nbytes > 10**6


def test_model_generation_throughput(benchmark):
    mesh = benchmark(make_model, "skeleton", 200_000)
    assert mesh.n_triangles > 150_000
