"""The RAVE render service.

"Render services connect to the data service, and request a copy of the
latest data ... can be exposed to the local console ... can also render
off-screen for remote users ... may be requested to render a subset of the
scene tree or frame buffer."  (paper §3.1.2)

A :class:`RenderService` owns a :class:`~repro.render.engine.RenderEngine`
for its machine profile, keeps one shared scene copy per data session
("if multiple users view the same session, then a single copy of the data
are stored in the render service to save resources"), and serves:

- full-frame off-screen renders for thin clients;
- scene-subset renders (dataset distribution) — the caller composites by
  depth;
- tile renders (framebuffer distribution) — the caller assembles tiles;
- capacity and load reports for the data service's policy engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial

from repro.core.capacity import (
    DEFAULT_TARGET_FPS,
    RenderCapacity,
    capacity_from_profile,
)
from repro.errors import ServiceError, SessionError
from repro.render.camera import Camera
from repro.render.engine import RenderEngine, RenderTiming
from repro.render.framebuffer import BACKGROUND, FrameBuffer, Tile
from repro.render.points import rasterize_points
from repro.render.rasterizer import rasterize_mesh
from repro.render.volume import raymarch_volume
from repro.scenegraph.nodes import (
    AvatarNode,
    CameraNode,
    MeshNode,
    PointCloudNode,
    VolumeNode,
)
from repro.obs.telemetry import ServiceTelemetry
from repro.obs.vocab import (
    SERVICE_RENDER,
    TELEMETRY_SESSION_CLOSED,
    TELEMETRY_SESSION_CREATED,
)
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import SceneUpdate
from repro.services.container import ServiceContainer
from repro.services.data_service import BootstrapTiming, DataService

import numpy as np


@dataclass
class RenderSession:
    """One render session: a user (or assisting service) viewing a dataset."""

    render_session_id: str
    data_service: DataService
    session_id: str
    #: the shared local scene copy (one per (service, session_id))
    tree: SceneTree
    #: node ids this service is responsible for; None = whole scene
    assigned_ids: set[int] | None = None
    #: the frame rate it was created for: each polygon it draws costs
    #: this many polygons per second of the service's rate
    fps: float = DEFAULT_TARGET_FPS
    #: tile assignment when assisting framebuffer distribution
    assigned_tile: Tile | None = None
    frames_rendered: int = 0

    def assigned_polygons(self) -> int:
        """Polygons this session draws: the kept subtree counts of its
        assigned nodes (of the root when the whole scene is assigned)."""
        tree = self.tree
        if self.assigned_ids is None:
            return tree.root.subtree_polygons
        return sum(tree.node(nid).subtree_polygons
                   for nid in self.assigned_ids if nid in tree)


class RenderService:
    """A render service deployed in a container on one host."""

    def __init__(self, name: str, container: ServiceContainer) -> None:
        from repro.services.wsdl import RENDER_SERVICE_WSDL

        if container.profile is None or not container.profile.can_render:
            raise ServiceError(
                f"host {container.host!r} cannot run a render service")
        self.name = name
        self.container = container
        self.endpoint = container.deploy(RENDER_SERVICE_WSDL)
        self.engine = RenderEngine(container.profile)
        self._sessions: dict[str, RenderSession] = {}
        #: shared scene copies, one per (data service, session)
        self._scene_cache: dict[tuple[str, str], SceneTree] = {}
        #: data-service subscription names, keyed like the scene cache
        self._subscriptions: dict[tuple[str, str],
                                  tuple[DataService, str]] = {}
        self._seq = itertools.count(1)
        #: per-service registry + event stream, scraped by the monitor
        self.telemetry = ServiceTelemetry(name, container.host,
                                          SERVICE_RENDER)
        self._reported_fps = float("inf")
        self._touch()

    def _touch(self) -> None:
        """Push the load gauges wherever a session, share or scene changes."""
        registry = self.telemetry.registry
        registry.gauge("rave_rs_utilisation").set(self.utilisation())
        registry.gauge("rave_rs_committed_polygons").set(
            self.committed_polygons())
        registry.gauge("rave_rs_sessions").set(len(self._sessions))

    @property
    def reported_fps(self) -> float:
        """Smoothed frames/second (migration input), ``inf`` before the
        first frame; setting a finite value pushes ``rave_rs_fps``."""
        return self._reported_fps

    @reported_fps.setter
    def reported_fps(self, fps: float) -> None:
        self._reported_fps = fps
        if fps != float("inf"):
            self._fps_gauge.set(fps)

    # made by their first use and kept: a service that never reported
    # or rendered a frame exports no fps or frame families
    @cached_property
    def _fps_gauge(self):
        return self.telemetry.registry.gauge("rave_rs_fps")

    @cached_property
    def _frame_instruments(self):
        registry = self.telemetry.registry
        return (registry.counter("rave_rs_frames_total"),
                registry.histogram("rave_rs_frame_seconds"))

    @property
    def host(self) -> str:
        return self.container.host

    @property
    def network(self):
        return self.container.network

    @property
    def profile(self):
        return self.container.profile

    # -- capacity ---------------------------------------------------------------

    def capacity(self) -> RenderCapacity:
        return capacity_from_profile(self.profile)

    def committed_polygons(self) -> float:
        """Polygons this service must redraw each frame across sessions."""
        return float(sum(s.assigned_polygons()
                         for s in self._sessions.values()))

    def committed_pps(self) -> float:
        """The polygon rate its sessions take: each session's polygons at
        that session's own frame rate.  Admission, placement, migration
        and the utilisation gauge all read this one figure."""
        return float(sum(s.assigned_polygons() * s.fps
                         for s in self._sessions.values()))

    def utilisation(self) -> float:
        """Committed polygon rate as a fraction of the service's rate."""
        rate = self.capacity().polygons_per_second
        return self.committed_pps() / rate if rate > 0 else float("inf")

    def headroom(self, target_fps: float) -> float:
        """Polygons this service can still take on at ``target_fps``."""
        return max(0.0, self.capacity().polygon_budget(target_fps)
                   - self.committed_pps() / target_fps)

    # -- session bootstrap ----------------------------------------------------------

    def create_render_session(self, data_service: DataService,
                              session_id: str,
                              subset_ids: set[int] | None = None,
                              introspective: bool = True,
                              charge_instance: bool = True,
                              fps: float = DEFAULT_TARGET_FPS) -> tuple[
                                  RenderSession, BootstrapTiming]:
        """Bootstrap from a data service (the Table 5 "service bootstrap").

        A shared scene copy is reused when this service already subscribes
        to the session — additional users then cost no extra bootstrap
        transfer ("a single copy of the data are stored").  ``fps`` is the
        frame rate the session is charged at against the service's polygon
        rate (:meth:`committed_pps`).
        """
        clock = self.network.sim.clock
        t0 = clock.now
        if charge_instance:
            self.container.create_instance(
                "render", label=f"{session_id}@{self.name}")
        instance_seconds = clock.now - t0

        cache_key = (data_service.name, session_id)
        if cache_key in self._scene_cache:
            tree = self._scene_cache[cache_key]
            timing = BootstrapTiming(
                instance_seconds=instance_seconds, handshake_seconds=0.0,
                marshal_seconds=0.0, transfer_seconds=0.0,
                demarshal_seconds=0.0, nbytes=0)
        else:
            subscriber_name = f"{self.name}/{session_id}"
            tree, sub_timing = data_service.subscribe(
                session_id, subscriber_name=subscriber_name,
                host=self.host, kind=SERVICE_RENDER,
                interests=subset_ids,
                on_update=self._make_update_handler(cache_key),
                introspective=introspective,
                subscriber_cpu_factor=self.container.cpu_factor)
            self._scene_cache[cache_key] = tree
            self._subscriptions[cache_key] = (data_service, subscriber_name)
            timing = BootstrapTiming(
                instance_seconds=instance_seconds,
                handshake_seconds=sub_timing.handshake_seconds,
                marshal_seconds=sub_timing.marshal_seconds,
                transfer_seconds=sub_timing.transfer_seconds,
                demarshal_seconds=sub_timing.demarshal_seconds,
                nbytes=sub_timing.nbytes)

        rsid = f"rs-{self.name}-{next(self._seq):04d}"
        session = RenderSession(
            render_session_id=rsid, data_service=data_service,
            session_id=session_id, tree=tree, assigned_ids=subset_ids,
            fps=fps)
        self._sessions[rsid] = session
        self._touch()
        self.telemetry.event(TELEMETRY_SESSION_CREATED, clock.now,
                             f"{rsid} for {session_id}@{data_service.name}")
        return session, timing

    def _make_update_handler(self, cache_key: tuple[str, str]):
        def handler(update: SceneUpdate) -> None:
            tree = self._scene_cache.get(cache_key)
            if tree is not None:
                update.apply(tree)
                self._touch()
        return handler

    def assign_subset(self, rsid: str, subtree: SceneTree,
                      share_ids: set[int] | None,
                      from_host: str | None = None,
                      charge_time: bool = True) -> None:
        """Receive a scene subset for this session (dataset distribution).

        The paper: "The render service itself is thus given a subset of
        the scene tree, including the parent nodes to orientate the scene
        subset in the world."  The subset replaces the session's local
        copy; transfer + binary marshalling time is charged when
        ``from_host`` is given.
        """
        session = self.render_session(rsid)
        if charge_time and from_host is not None:
            from repro.network.marshalling import BinaryMarshaller

            marshaller = BinaryMarshaller(self.container.cpu_factor)
            result = marshaller.marshal(subtree.to_wire())
            transfer = self.network.transfer_time(from_host, self.host,
                                                  result.nbytes)
            _, demarshal = marshaller.demarshal(result.data)
            self.network.sim.clock.advance(
                result.cpu_seconds + transfer + demarshal)
        session.tree = subtree
        key = (session.data_service.name, session.session_id)
        self._scene_cache[key] = subtree
        self.assign_share(rsid, share_ids)

    def assign_share(self, rsid: str, share_ids: set[int] | None) -> None:
        """Set the node ids a session draws (None: the whole scene)."""
        self.render_session(rsid).assigned_ids = (
            set(share_ids) if share_ids is not None else None)
        self._touch()

    def repoint_data_service(self, old_name: str, new_ds: DataService,
                             session_id: str) -> None:
        """Follow a data-service failover: re-key the shared scene copy and
        subscription to the mirror, and re-install the update handler so
        the mirror's multicasts keep landing on the live local tree."""
        old_key = (old_name, session_id)
        new_key = (new_ds.name, session_id)
        if old_key in self._scene_cache:
            self._scene_cache[new_key] = self._scene_cache.pop(old_key)
        sub = self._subscriptions.pop(old_key, None)
        if sub is not None:
            _, subscriber_name = sub
            self._subscriptions[new_key] = (new_ds, subscriber_name)
            try:
                msub = new_ds.session(session_id).subscriber(subscriber_name)
            except SessionError:
                pass
            else:
                msub.on_update = self._make_update_handler(new_key)
        for session in self._sessions.values():
            if (session.data_service.name == old_name
                    and session.session_id == session_id):
                session.data_service = new_ds

    def render_session(self, rsid: str) -> RenderSession:
        try:
            return self._sessions[rsid]
        except KeyError:
            raise SessionError(
                f"no render session {rsid!r} on {self.name!r}") from None

    def render_sessions(self) -> list[RenderSession]:
        return list(self._sessions.values())

    def close_render_session(self, rsid: str) -> None:
        session = self.render_session(rsid)
        del self._sessions[rsid]
        self._touch()
        self.telemetry.event(TELEMETRY_SESSION_CLOSED,
                             self.network.sim.clock.now, rsid)
        # Drop the shared copy (and the data-service subscription) when
        # nobody uses it any more.
        key = (session.data_service.name, session.session_id)
        if not any((s.data_service.name, s.session_id) == key
                   for s in self._sessions.values()):
            self._scene_cache.pop(key, None)
            sub = self._subscriptions.pop(key, None)
            if sub is not None:
                from repro.errors import SessionError

                data_service, subscriber_name = sub
                try:
                    data_service.unsubscribe(session.session_id,
                                             subscriber_name)
                except SessionError:
                    pass  # already unsubscribed out of band

    # -- rendering ---------------------------------------------------------------------

    def _draw_tree(self, session: RenderSession, camera: Camera,
                   fb: FrameBuffer, include_avatars: bool = True) -> int:
        """Rasterize the session's (assigned part of the) tree into ``fb``'s
        window onto the frame; returns polygons drawn.  Meshes, avatars and
        points fill the window alone; volumes are ray-marched over the
        whole frame and the window's slice is composited."""
        tree = session.tree
        drawn = 0
        allowed = session.assigned_ids
        for node in tree:
            if allowed is not None and node.node_id not in allowed:
                # children of an assigned node are included via assignment
                if not any(a.node_id in allowed
                           for a in tree.path_to_root(node)):
                    continue
            world = tree.placement(node)
            if isinstance(node, MeshNode):
                mesh = (node.mesh if world is None
                        else node.mesh.transformed(world))
                rasterize_mesh(mesh, camera, fb, shading="flat")
                drawn += mesh.n_triangles
            elif isinstance(node, PointCloudNode):
                pts = node.points if world is None else (
                    node.points @ world[:3, :3].T + world[:3, 3]).astype(
                        np.float32)
                rasterize_points(pts, camera, fb, colors=node.colors,
                                 point_size=max(1, int(node.point_size)))
            elif isinstance(node, VolumeNode):
                img = raymarch_volume(node.volume, camera, fb.frame_width,
                                      fb.frame_height,
                                      opacity_scale=node.opacity_scale)
                x0, y0, x1, y1 = fb.scissor()
                rgba, depth = img.rgba[y0:y1, x0:x1], img.depth[y0:y1, x0:x1]
                nearer = (rgba[..., 3] > 0.05) & (depth < fb.depth)
                fb.depth[nearer] = depth[nearer]
                fb.color[nearer] = np.clip(
                    rgba[..., :3][nearer] * 255.0, 0, 255).astype(np.uint8)
            elif isinstance(node, AvatarNode) and include_avatars:
                cone = node.cone_geometry()
                rasterize_mesh(cone, camera, fb, shading="flat",
                               base_color=(240, 180, 60))
                drawn += cone.n_triangles
        session.frames_rendered += 1
        return drawn

    def render_view(self, rsid: str, camera: CameraNode | Camera,
                    width: int, height: int, offscreen: bool = True,
                    interleaved: int = 1, background=BACKGROUND,
                    include_avatars: bool = True
                    ) -> tuple[FrameBuffer, RenderTiming]:
        """Render a full view; advances the clock by the modelled frame time."""
        session = self.render_session(rsid)
        cam = camera if isinstance(camera, Camera) else Camera.from_node(camera)
        fb = FrameBuffer(width, height, background=background)
        self._draw_tree(session, cam, fb, include_avatars=include_avatars)
        timing = self.engine.timing(session.assigned_polygons(),
                                    fb.pixels, offscreen=offscreen,
                                    interleaved=interleaved)
        self.network.sim.clock.advance(timing.total_seconds)
        self._update_reported_fps(timing)
        return fb, timing

    def render_views_parallel(self, requests: list[tuple],
                              offscreen: bool = True,
                              background=BACKGROUND
                              ) -> list[tuple[FrameBuffer, RenderTiming]]:
        """Serve several render requests across the machine's graphics pipes.

        "Multiple render sessions are supported by each render service, so
        multiple users may share available rendering resources" — and the
        Onyx brings three InfiniteReality pipes to that sharing.  Requests
        are ``(rsid, camera, width, height)`` tuples; they execute in
        batches of ``graphics_pipes``, each batch's wall time being its
        slowest member (pipes run concurrently), batches serialising.

        Returns per-request ``(framebuffer, timing)`` in input order; the
        simulated clock advances by the total schedule, not the sum of
        frame times.
        """
        return self.network.sim.fork_join(
            [partial(self.render_view, rsid, camera, width, height,
                     offscreen=offscreen, background=background)
             for rsid, camera, width, height in requests],
            width=max(1, self.profile.graphics_pipes))

    def render_tile(self, rsid: str, camera: CameraNode | Camera,
                    tile: Tile, full_width: int, full_height: int,
                    background=BACKGROUND
                    ) -> tuple[FrameBuffer, RenderTiming]:
        """Render one tile of the shared view (framebuffer distribution).

        Draws into a tile-sized framebuffer placed at ``tile``'s origin in
        the ``full_width`` x ``full_height`` frame, and returns it.  Every
        assigned polygon is still transformed, projected and culled
        against the whole view — geometry work is not reduced by tiling —
        but only pixels inside the tile are tested and written.  That is
        the trade-off the cost model charges (``core/cost.py::tile_cost``:
        full geometry, the tile's share of fill) and what the simulated
        timing below has always billed.  Volume nodes are ray-marched
        full-frame and composited into the tile.
        """
        session = self.render_session(rsid)
        cam = camera if isinstance(camera, Camera) else Camera.from_node(camera)
        fb = FrameBuffer(tile.width, tile.height, background=background,
                         origin=(tile.x0, tile.y0),
                         frame=(full_width, full_height))
        self._draw_tree(session, cam, fb)
        timing = self.engine.timing(session.assigned_polygons(), tile.pixels,
                                    offscreen=True)
        self.network.sim.clock.advance(timing.total_seconds)
        self._update_reported_fps(timing)
        return fb, timing

    def _update_reported_fps(self, timing: RenderTiming,
                             alpha: float = 0.3) -> None:
        fps = timing.fps
        if self.reported_fps == float("inf"):
            self.reported_fps = fps
        else:
            self.reported_fps = alpha * fps + (1 - alpha) * self.reported_fps
        frames, seconds = self._frame_instruments
        frames.inc()
        seconds.observe(timing.total_seconds)

    def __repr__(self) -> str:
        return (f"RenderService(name={self.name!r}, host={self.host!r}, "
                f"sessions={len(self._sessions)})")
