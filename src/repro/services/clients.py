"""RAVE clients: the thin client (PDA) and the active render client.

Thin client (paper §3.1.3): "a client that has no or very modest local
rendering resources ... connects to the render service and requests
rendered copies of the data.  The local user can still manipulate the
camera view point and the underlying data, but the actual data processing
and rendering transformations are carried out remotely."

Each frame request produces the Table 2 breakdown: render time on the
service, image receipt over the (wireless) network, and the client-side
overheads (SOAP request + blit), with fps the reciprocal of the total —
exactly how the paper's numbers compose (2.9 fps ≈ 1 / 0.339 s).

Active render client (paper §3.1.2): "a stand-alone copy of the render
service that can only render to the screen and does not support off-screen
rendering (as it does not have a Grid/Web service interface to advertise to
other clients)" — lets a user join without installing a service container.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.errors import ServiceError
from repro.hardware.profiles import PdaClientProfile, ZAURUS_CLIENT
from repro.obs import active as _obs
from repro.obs.tracing import TraceContext, new_trace_context
from repro.obs.vocab import SERVICE_CLIENT
from repro.network.simnet import Network
from repro.render.camera import Camera
from repro.render.engine import RenderEngine
from repro.render.framebuffer import BACKGROUND, FrameBuffer
from repro.scenegraph.nodes import AvatarNode, CameraNode
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import MoveAvatar, SceneUpdate, SetCamera
from repro.services.data_service import BootstrapTiming, DataService
from repro.services.render_service import RenderService


@dataclass(frozen=True)
class FrameTiming:
    """One remote frame, broken down as Table 2 reports it."""

    render_seconds: float
    image_receipt_seconds: float
    overhead_seconds: float
    nbytes: int
    #: timeout waits + backoff sleeps spent before the successful attempt
    retry_seconds: float = 0.0

    @property
    def total_latency(self) -> float:
        return (self.render_seconds + self.image_receipt_seconds
                + self.overhead_seconds + self.retry_seconds)

    @property
    def fps(self) -> float:
        return 1.0 / self.total_latency if self.total_latency > 0 else 0.0


class ThinClient:
    """A display-only client driving a remote render service."""

    #: bytes of the SOAP camera-update request
    REQUEST_BYTES = 900

    def __init__(self, name: str, host: str, network: Network,
                 device: PdaClientProfile = ZAURUS_CLIENT,
                 blit_path: str = "cpp", retry_policy=None,
                 retry_seed: int = 0) -> None:
        import random

        if host not in network.hosts:
            raise ServiceError(f"host {host!r} is not on the network")
        if blit_path not in ("cpp", "j2me"):
            raise ServiceError(f"unknown blit path {blit_path!r}")
        self.name = name
        self.host = host
        self.network = network
        self.device = device
        self.blit_path = blit_path
        #: optional :class:`repro.services.retry.RetryPolicy` for frames
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(retry_seed)
        # deterministic trace ids: a dedicated stream seeded from the
        # client's identity, so replays mint identical traces and the
        # retry path's draws stay untouched
        self._trace_rng = random.Random(f"trace:{name}:{retry_seed}")
        #: the current request's trace context (None until one begins)
        self.trace: TraceContext | None = None
        self._service: RenderService | None = None
        self._rsid: str | None = None
        self.camera = CameraNode(name=f"{name}-camera")
        self.frames_received = 0
        self.frame_retries = 0
        #: 429s absorbed by sleeping out the server's retry_after hint
        self.admission_retries = 0

    # -- attachment -----------------------------------------------------------------

    def attach(self, service: RenderService, render_session_id: str) -> None:
        """Point this client at an existing render session."""
        service.render_session(render_session_id)  # validates
        self._service = service
        self._rsid = render_session_id

    @property
    def attached(self) -> bool:
        return self._service is not None

    # -- tracing --------------------------------------------------------------------

    def begin_trace(self) -> TraceContext:
        """Mint a fresh deterministic trace for the next request journey.

        The context propagates outward — the SOAP header of the admission
        call, the grid's reject/admission records, the render/stream
        spans — so one id stitches the whole thin-client → admission →
        render → transfer → blit chain together.
        """
        self.trace = new_trace_context(self._trace_rng)
        return self.trace

    # -- interaction -----------------------------------------------------------------

    def move_camera(self, position=None, target=None) -> None:
        self.camera.look(position=position, target=target)

    def orbit(self, azimuth: float, elevation: float = 0.0) -> None:
        self.camera.orbit(azimuth, elevation)

    def publish_camera(self, data_service: DataService, session_id: str,
                       camera_node_id: int) -> dict[str, float]:
        """Send the local camera move into the collaborative session."""
        update = SetCamera(node_id=camera_node_id, origin=self.name,
                           position=self.camera.position.copy(),
                           target=self.camera.target.copy(),
                           fov_degrees=self.camera.fov_degrees)
        return data_service.publish_update(session_id, update)

    # -- multi-tenant admission --------------------------------------------------------

    def open_grid_session(self, grid, tenant: str, session_id: str, tree,
                          target_fps: float | None = None,
                          retries: int = 0):
        """Ask a session grid for a collaborative session (admission path).

        The request pays the SOAP transfer to the grid's front door; the
        answer is the grid's explicit admission contract:

        - **admit** — the client attaches to the new session's first
          render service and the decision is returned;
        - **queue** — the decision (with queue position) is returned;
          the caller polls :meth:`SessionGridManager.pump` progress;
        - **reject** — the 429 frame travels back over the wire and is
          raised as :class:`~repro.errors.TooManyRequestsError`, so a
          full grid *tells* the user to come back instead of silently
          degrading everyone (the straty-style RaaS contract).

        With ``retries`` > 0 a reject is retried up to that many times,
        honouring the server-supplied ``retry_after`` hint: the client
        sleeps it off on the simulated clock (running due events, so
        capacity can actually free up in the meantime) instead of
        hammering the front door again immediately.  Waits spent this
        way accumulate in :attr:`admission_retries`.
        """
        from repro.errors import TooManyRequestsError
        from repro.obs.vocab import EVENT_ADMIT, EVENT_REJECT
        from repro.services.protocol import unframe_reject
        from repro.services.retry import wait

        clock = self.network.sim.clock
        obs = _obs()
        trace = self.begin_trace()
        t0 = clock.now
        attempts_left = max(0, int(retries))
        while True:
            request_time = self.network.transfer_time(
                self.host, grid.host, self.REQUEST_BYTES)
            clock.advance(request_time)
            decision = grid.request_session(
                tenant, session_id, tree, target_fps=target_fps,
                trace=trace.child(self._trace_rng))
            if decision.outcome != EVENT_REJECT:
                break
            frame = decision.reject_frame
            receipt = self.network.transfer_time(grid.host, self.host,
                                                 len(frame))
            clock.advance(receipt)
            info = unframe_reject(frame)
            if attempts_left > 0 and info.retry_after > 0:
                attempts_left -= 1
                self.admission_retries += 1
                wait(self.network.sim, info.retry_after)
                continue
            if obs.enabled:
                obs.tracer.record("request-session", t0, clock.now,
                                  service=self.name, client=self.name,
                                  session=session_id, outcome=EVENT_REJECT,
                                  trace=trace.trace_id)
            raise TooManyRequestsError(
                info.reason, retry_after=info.retry_after,
                queue_position=None, tenant=info.tenant)
        if obs.enabled:
            obs.tracer.record("request-session", t0, clock.now,
                              service=self.name, client=self.name,
                              session=session_id, outcome=decision.outcome,
                              trace=trace.trace_id)
        if decision.outcome == EVENT_ADMIT:
            session = decision.grid_session.session
            services = session.render_services
            if services:
                attachment = session.attachment(services[0])
                self.attach(services[0], attachment.render_session_id)
        return decision

    # -- frames ----------------------------------------------------------------------

    def request_frame(self, width: int = 200, height: int = 200,
                      codec=None) -> tuple[FrameBuffer, FrameTiming]:
        """One remote frame: request → off-screen render → receive → blit.

        ``codec`` optionally compresses the image for the wire (the
        adaptive-compression future work); image receipt then covers the
        compressed payload plus decode time on the device.  With a
        ``retry_policy``, transient network failures (downed link, crashed
        route) burn the attempt timeout plus a jittered backoff and the
        frame is re-requested; the waits surface as
        :attr:`FrameTiming.retry_seconds`.
        """
        if self._service is None or self._rsid is None:
            raise ServiceError(f"{self.name!r} is not attached to a "
                               "render service")
        if self.retry_policy is None:
            return self._request_frame_once(width, height, codec, 0.0)
        from repro.errors import NetworkError
        from repro.services.retry import wait

        sim = self.network.sim
        start = sim.now
        policy = self.retry_policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self._request_frame_once(
                    width, height, codec, sim.now - start)
            except NetworkError:
                self.frame_retries += 1
                if attempt == policy.max_attempts:
                    raise
                wait(sim, policy.timeout_s)
                wait(sim, policy.backoff_seconds(attempt, self._retry_rng))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_frame_once(self, width: int, height: int, codec,
                            retry_seconds: float
                            ) -> tuple[FrameBuffer, FrameTiming]:
        service = self._service
        clock = self.network.sim.clock
        obs = _obs()
        frame = self.frames_received

        # 1. the SOAP camera/request message
        t0 = clock.now
        request_time = self.network.transfer_time(
            self.host, service.host, self.REQUEST_BYTES)
        clock.advance(request_time)

        # 2. remote off-screen render
        render_start = clock.now
        fb, render_timing = service.render_view(
            self._rsid, self.camera, width, height, offscreen=True)

        # 3. image transfer back
        payload = fb.color.tobytes()
        encode_seconds = 0.0
        encode_start = clock.now
        if codec is not None:
            encoded = codec.encode(fb)
            payload = encoded.data
            encode_seconds = encoded.encode_seconds
            clock.advance(encode_seconds)
        transfer_start = clock.now
        receipt = self.network.transfer_time(service.host, self.host,
                                             len(payload))
        clock.advance(receipt)

        # 4. device-side decode + blit
        decode_seconds = 0.0
        if codec is not None:
            decoded_fb, decode_seconds = codec.decode(encoded, width, height)
            clock.advance(decode_seconds)
            fb = decoded_fb
        blit_start = clock.now
        blit = self.device.blit_seconds(width, height, path=self.blit_path)
        clock.advance(blit)

        if obs.enabled:
            tracer = obs.tracer
            common = dict(session=self._rsid, client=self.name, frame=frame)
            if self.trace is not None:
                common["trace"] = self.trace.trace_id
            tracer.record("request", t0, render_start,
                          service=self.name, **common)
            tracer.record("render", render_start, encode_start,
                          service=service.name, **common)
            if codec is not None:
                tracer.record("encode", encode_start, transfer_start,
                              codec=encoded.codec, service=service.name,
                              **common)
            tracer.record("transfer", transfer_start,
                          transfer_start + receipt, nbytes=len(payload),
                          service=service.name, **common)
            if codec is not None:
                tracer.record("decode", transfer_start + receipt,
                              blit_start, service=self.name, **common)
            tracer.record("blit", blit_start, blit_start + blit,
                          service=self.name, **common)
            obs.metrics.counter("rave_client_frames_total",
                                "frames delivered to thin clients",
                                client=self.name).inc()
            obs.metrics.histogram("rave_client_frame_latency_seconds",
                                  "request to blit end"
                                  ).observe(clock.now - t0)

        self.frames_received += 1
        timing = FrameTiming(
            render_seconds=render_timing.total_seconds,
            image_receipt_seconds=receipt,
            overhead_seconds=(request_time + blit + encode_seconds
                              + decode_seconds),
            nbytes=len(payload),
            retry_seconds=retry_seconds,
        )
        assert abs((clock.now - t0)
                   - (timing.total_latency - timing.retry_seconds)) < 1e-6
        return fb, timing


class ActiveRenderClient:
    """A render-capable client without a service container.

    Bootstraps a scene copy from the data service and renders *on-screen
    only*; it cannot be recruited for off-screen assistance because it has
    no Grid/Web interface to advertise.
    """

    def __init__(self, name: str, host: str, network: Network,
                 profile) -> None:
        if host not in network.hosts:
            raise ServiceError(f"host {host!r} is not on the network")
        if not profile.can_render:
            raise ServiceError(
                f"{profile.name} cannot run an active render client")
        self.name = name
        self.host = host
        self.network = network
        self.profile = profile
        self.engine = RenderEngine(profile)
        self.tree: SceneTree | None = None
        self._data_service: DataService | None = None
        self._session_id: str | None = None
        self.camera = CameraNode(name=f"{name}-camera")
        self.avatar_id: int | None = None

    def join(self, data_service: DataService, session_id: str,
             introspective: bool = True) -> BootstrapTiming:
        """Subscribe and pull a local scene copy (no instance creation —
        there is no container)."""
        tree, timing = data_service.subscribe(
            session_id, subscriber_name=self.name, host=self.host,
            kind=SERVICE_CLIENT, on_update=self._apply_update,
            introspective=introspective,
            subscriber_cpu_factor=self.profile.cpu_factor)
        self.tree = tree
        self._data_service = data_service
        self._session_id = session_id
        return timing

    def _apply_update(self, update: SceneUpdate) -> None:
        if self.tree is not None:
            update.apply(self.tree)

    # -- collaboration -----------------------------------------------------------

    def announce_avatar(self) -> int:
        """Add this user's avatar to the shared scene; returns its node id."""
        if self._data_service is None or self.tree is None:
            raise ServiceError(f"{self.name!r} has not joined a session")
        master = self._data_service.session(self._session_id).tree
        avatar = AvatarNode(user=self.name, host=self.host,
                            position=self.camera.position.copy(),
                            view_direction=self.camera.view_direction())
        node_id = max(max((n.node_id for n in master), default=0),
                      max((n.node_id for n in self.tree), default=0)) + 1
        from repro.scenegraph.updates import AddNode

        update = AddNode.of(avatar, parent_id=master.root.node_id,
                            node_id=node_id, origin=self.name)
        self._data_service.publish_update(self._session_id, update)
        update.apply(self.tree)  # our own copy too
        self.avatar_id = node_id
        return node_id

    def move(self, position, target=None) -> None:
        """Move the local camera and propagate the avatar to collaborators."""
        self.camera.look(position=position, target=target)
        if self.avatar_id is not None and self._data_service is not None:
            update = MoveAvatar(
                node_id=self.avatar_id, origin=self.name,
                position=self.camera.position.copy(),
                view_direction=self.camera.view_direction())
            self._data_service.publish_update(self._session_id, update)
            update.apply(self.tree)

    # -- local rendering -----------------------------------------------------------

    def render(self, width: int, height: int,
               background=BACKGROUND) -> tuple[FrameBuffer, float]:
        """On-screen render of the local copy; returns (frame, sim seconds)."""
        if self.tree is None:
            raise ServiceError(f"{self.name!r} has not joined a session")
        from repro.services.render_service import RenderService as _RS

        fb = FrameBuffer(width, height, background=background)
        cam = Camera.from_node(self.camera)
        # Reuse the service's tree-drawing logic without a container.
        shim = _RS.__new__(_RS)
        session = type("S", (), {})()
        session.tree = self.tree
        session.assigned_ids = None
        session.frames_rendered = 0
        _RS._draw_tree(shim, session, cam, fb)
        seconds = self.engine.onscreen_seconds(self.tree.total_polygons(),
                                               fb.pixels)
        self.network.sim.clock.advance(seconds)
        return fb, seconds
