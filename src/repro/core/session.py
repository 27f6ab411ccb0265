"""The collaborative-session orchestrator.

Ties the pieces into the paper's workflow: a data service hosts the scene;
render services connect (or are recruited via UDDI); a scheduler places the
dataset; the distributors split work; render services draw; the compositor
merges; the migrator rebalances as load changes.  This is the top-level
object the examples and benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.capacity import DEFAULT_TARGET_FPS
from repro.core.cost import node_cost, tree_cost
from repro.core.distribution import (
    DatasetDistributor,
    FramebufferDistributor,
    TilePlan,
    explode_to_grain,
)
from repro.core.health import DEAD, HeartbeatMonitor
from repro.core.migration import SHED_QUANTUM, WorkloadMigrator
from repro.core.scheduler import Placement, RenderServiceScheduler
from repro.errors import NetworkError, ServiceError, SessionError
from repro.obs import active as _obs
from repro.obs.vocab import (
    ALERT_OVERLOAD,
    EVENT_PLACEMENT,
    EVENT_RECOVERY,
    EVENT_RELEASE,
    GRID_OVERLOAD_KIND,
    GRID_UNDERLOAD_KIND,
)
from repro.render.camera import Camera
from repro.render.compositor import assemble_tiles, depth_composite
from repro.render.framebuffer import BACKGROUND, FrameBuffer
from repro.scenegraph.nodes import CameraNode


@dataclass
class ServiceAttachment:
    """A render service participating in this session."""

    service: object                    # RenderService
    render_session_id: str
    bootstrap_seconds: float
    share: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class RecoveryReport:
    """What automatic recovery did about one dead render service."""

    failed: str
    #: receiver service name → node ids it absorbed
    reassigned: dict[str, tuple[int, ...]]
    #: services recruited via UDDI because nobody had headroom
    recruited: tuple[str, ...]
    time: float

    @property
    def nodes_recovered(self) -> int:
        return sum(len(ids) for ids in self.reassigned.values())


class CollaborativeSession:
    """One shared visualization session across the grid."""

    #: alert kinds that grow the render pool (autoscaler)
    PRESSURE_KINDS = (GRID_OVERLOAD_KIND,)
    #: the alert kind that lets it release a member
    CALM_KIND = GRID_UNDERLOAD_KIND

    def __init__(self, data_service, session_id: str,
                 target_fps: float = DEFAULT_TARGET_FPS,
                 recruiter=None,
                 pool=None) -> None:
        self.data_service = data_service
        self.session_id = session_id
        self.target_fps = target_fps
        self.recruiter = recruiter
        #: the owning :class:`~repro.core.grid.SessionGridManager`, when
        #: this session runs on a shared multi-tenant pool.  Pool-owned
        #: sessions draw replacement capacity from the pool
        #: (:meth:`SessionGridManager.lend`) instead of scanning UDDI —
        #: the session orchestrates *work*, the grid owns *services*.
        self.pool = pool
        self.scheduler = RenderServiceScheduler(
            data_service, target_fps=target_fps, recruiter=recruiter)
        self.distributor = DatasetDistributor()
        self.tile_distributor = FramebufferDistributor()
        self.migrator = WorkloadMigrator(target_fps=target_fps)
        self._attachments: dict[str, ServiceAttachment] = {}
        self.placement: Placement | None = None
        # -- fault tolerance state (see enable_fault_tolerance) --
        self.health: HeartbeatMonitor | None = None
        self._heartbeat_interval: float = 0.5
        #: services declared dead and recovered from (never re-recruited)
        self.failed_services: set[str] = set()
        self.recoveries: list[RecoveryReport] = []
        #: last good framebuffer per tile rect, for degraded compositing
        self._tile_cache: dict[tuple[int, int, int, int], FrameBuffer] = {}
        self.last_frame_degraded: bool = False
        self.degraded_frames: int = 0
        #: frames rendered through this session (composite or tiled);
        #: doubles as the ``frame`` attribute on traced spans
        self.frames_rendered: int = 0

    # -- introspection -----------------------------------------------------------

    @property
    def master_tree(self):
        return self.data_service.session(self.session_id).tree

    @property
    def render_services(self) -> list:
        return [a.service for a in self._attachments.values()]

    def attachment(self, service) -> ServiceAttachment:
        name = getattr(service, "name", service)
        try:
            return self._attachments[name]
        except KeyError:
            raise SessionError(
                f"render service {name!r} is not attached") from None

    def share_of(self, service) -> set[int]:
        return self.attachment(service).share

    # -- membership ------------------------------------------------------------------

    def connect(self, render_service, subset_ids: set[int] | None = None,
                introspective: bool = True) -> ServiceAttachment:
        """Attach a render service (bootstrapping its scene copy)."""
        if render_service.name in self._attachments:
            raise SessionError(
                f"{render_service.name!r} already attached")
        rsession, timing = render_service.create_render_session(
            self.data_service, self.session_id, subset_ids=subset_ids,
            introspective=introspective, fps=self.target_fps)
        attachment = ServiceAttachment(
            service=render_service,
            render_session_id=rsession.render_session_id,
            bootstrap_seconds=timing.total_seconds,
            share=set(subset_ids) if subset_ids is not None else set())
        self._attachments[render_service.name] = attachment
        if self.health is not None:
            self._start_heartbeat(render_service)
        return attachment

    def disconnect(self, render_service) -> None:
        attachment = self.attachment(render_service)
        render_service.close_render_session(attachment.render_session_id)
        del self._attachments[render_service.name]
        if self.health is not None:
            self.health.unwatch(render_service.name)

    def recruit_more(self, limit: int | None = None) -> list:
        """Attach more render services: from the shared pool, or via UDDI.

        Pool-owned sessions borrow spare members from their
        :class:`~repro.core.grid.SessionGridManager`; stand-alone
        sessions scan UDDI through their recruiter.  Services already
        declared dead, and services whose host is down right now, are
        never (re-)recruited either way; at most ``limit`` are attached.
        """
        if self.pool is not None:
            return self.pool.lend(self, limit)
        if self.recruiter is None:
            return []
        return self.recruiter.enlist(
            self.data_service.network,
            set(self._attachments) | self.failed_services,
            self._join_idle, limit)

    def _join_idle(self, service) -> None:
        """Connect a recruit with an empty share.

        A plain connect leaves the render session unnarrowed (assigned_ids
        None = the whole tree), so the recruit would *commit* the full
        scene while its share says empty — it must join idle until
        migration or distribution hands it work, or it reads as the most
        loaded member of the pool.
        """
        self.connect(service)
        self._narrow(service, set())

    def release_service(self, service) -> dict[str, tuple[int, ...]]:
        """Drain a member's share to its peers and detach it (scale-in).

        The inverse of :meth:`recruit_more`: the service's share is
        repacked onto the remaining live members (the same greedy packing
        recovery uses), its render session is closed cleanly, and — unlike
        a failure — its name is *not* added to :attr:`failed_services`, so
        it stays registered with UDDI as recruitable spare capacity and a
        later recruitment scan can bring it back.  Returns the receiver
        name → reassigned node ids mapping.
        """
        attachment = self.attachment(service)
        name = attachment.service.name
        peers = [a for peer, a in self._attachments.items()
                 if peer != name and self.service_live(a.service)]
        if not peers:
            raise SessionError(
                f"cannot release {name!r}: no live peer to absorb its "
                f"share")
        orphans = set(attachment.share)
        reassigned: dict[str, tuple[int, ...]] = {}
        if orphans:
            attachment.share = set()
            self._narrow(attachment.service, set())
            reassigned = self._drain(orphans, peers)
        self.disconnect(attachment.service)
        obs = _obs()
        if obs.enabled:
            now = self.data_service.network.sim.now
            obs.recorder.note(
                EVENT_RELEASE, time=now,
                detail=f"{name} drained to {sorted(reassigned)} and "
                       f"returned to the registry "
                       f"({sum(len(i) for i in reassigned.values())} nodes)")
            obs.metrics.counter("rave_session_releases_total",
                                "render services drained and released",
                                session=self.session_id).inc()
        return reassigned

    # -- autoscaling (driven by RecruitmentAutoscaler) ------------------------------

    def pool_size(self) -> int:
        return len(self._attachments)

    def relieve(self, alerts, limit: int | None = None) -> tuple[list, list]:
        """Migrate before scaling: one policy pass over ``alerts``.

        Returns the migrations and the services the migrator recruited
        because no member could take an overloaded one's work — at most
        ``limit`` of them (``0`` suppresses recruiting).
        """
        if not alerts:
            return [], []
        before = set(self._attachments)
        moved = self.migrator.plan(self, alerts=alerts, recruit_limit=limit)
        return moved, [s for s in self.render_services
                       if s.name not in before]

    def grow(self, limit: int | None = None, alerts=()) -> list:
        """Recruit, unless migration can still relieve the alerted members.

        Every live recruit joins, at most ``limit``.  Migration headroom
        is the unalerted members' spare capacity against the shed quantum
        the migrator asks per overloaded member (``SHED_QUANTUM`` of its
        budget).  With no member singled out, or the whole pool alerted,
        shuffling work is zero-sum: only recruiting helps.
        """
        over = {a.service for a in alerts if a.kind == ALERT_OVERLOAD}
        live = [s for s in self.render_services if self.service_live(s)]
        alerted = [s for s in live if s.name in over]
        headroom = sum(s.headroom(self.target_fps) for s in live
                       if s.name not in over)
        need = sum(SHED_QUANTUM
                   * s.capacity().polygon_budget(self.target_fps)
                   for s in alerted)
        if alerted and headroom >= need:
            return []
        return self.recruit_more(limit)

    def release_idle(self, min_services: int = 1) -> list[str]:
        """Drain and release the least-utilised live member (scale-in).

        Refused at the ``min_services`` floor, and when the survivors
        could not absorb the drained share inside their headroom —
        draining would overload them and re-trigger a grow.
        """
        live = [s for s in self.render_services if self.service_live(s)]
        if len(live) <= min_services:
            return []
        candidate = min(live, key=lambda s: (s.utilisation(), s.name))
        peers_headroom = sum(s.headroom(self.target_fps) for s in live
                             if s is not candidate)
        tree = self.master_tree
        share_cost = sum(node_cost(tree.node(nid)).polygons
                         for nid in self.share_of(candidate) if nid in tree)
        if share_cost > peers_headroom:
            return []
        self.release_service(candidate)
        return [candidate.name]

    def settle(self, now: float, pressure, grown) -> None:
        """Nothing to fit: :meth:`relieve` spreads work onto recruits."""

    # -- placement & distribution ----------------------------------------------------------

    def place_dataset(self) -> Placement:
        """Run the scheduler over the current pool (recruiting if needed).

        On a distributed placement, plans and applies the scene-subset
        split: every service's render session is narrowed to its share and
        the data service's interest sets follow.
        """
        cost = tree_cost(self.master_tree)
        pool = self.render_services
        if not pool and self.recruiter is not None:
            self.recruit_more()
            pool = self.render_services
        if not pool:
            raise ServiceError("no render services available or discoverable")
        # Release this session's existing shares before interrogation —
        # capacity already committed to *this* dataset is available for
        # its own (re-)placement; other sessions' commitments still count.
        for attachment in self._attachments.values():
            attachment.share = set()
            self._narrow(attachment.service, set())
        placement = self.scheduler.place(cost, pool)
        for service in placement.recruited:
            if service.name not in self._attachments:
                self._join_idle(service)

        if placement.mode == "single":
            service = placement.assignments[0].service
            self.attachment(service).share = {
                n.node_id for n in self.master_tree.geometry_nodes()}
            self._narrow(service, None)
        else:
            # Budgets are each assignee's full headroom, not its nominal
            # share — integer-grain packing needs the slack (the scheduler
            # already verified the total fits).
            budgets = {
                a.service.name: float(a.report.headroom(self.target_fps))
                for a in placement.assignments
            }
            volume_hosts = {
                a.service.name for a in placement.assignments
                if a.report.capacity.volume_support
            }
            plan = self.distributor.plan(self.master_tree, budgets,
                                         volume_hosts=volume_hosts)
            for name, ids in plan.shares.items():
                attachment = self._attachments[name]
                attachment.share = set(ids)
                self._hand_off_share(attachment)
        self.placement = placement
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_PLACEMENT, time=self.data_service.network.sim.now,
                detail=f"{self.session_id}: {placement.mode} across "
                       f"{[a.service.name for a in placement.assignments]}")
        return placement

    def _hand_off_share(self, attachment: ServiceAttachment) -> None:
        """Ship a service its share as a self-contained subtree.

        Needed whenever the share references nodes the service's bootstrap
        copy predates (exploded meshes) or lacks (migration receivers).
        """
        service = attachment.service
        if attachment.share:
            subtree = self.master_tree.extract_subtree(
                sorted(attachment.share))
            service.assign_subset(attachment.render_session_id, subtree,
                                  attachment.share,
                                  from_host=self.data_service.host)
        else:
            service.assign_share(attachment.render_session_id, set())
        subscriber = self._find_subscription(service)
        if subscriber is not None:
            self.data_service.set_interests(
                self.session_id, subscriber,
                set(attachment.share) if attachment.share else set())

    def _narrow(self, service, ids: set[int] | None) -> None:
        """Restrict a service's render session + interests to its share."""
        attachment = self.attachment(service)
        service.assign_share(attachment.render_session_id, ids)
        subscriber = self._find_subscription(service)
        if subscriber is not None:
            self.data_service.set_interests(
                self.session_id, subscriber,
                set(ids) if ids is not None else None)

    def _find_subscription(self, service) -> str | None:
        session = self.data_service.session(self.session_id)
        for name in session.subscribers:
            if name.startswith(f"{service.name}/"):
                return name
        return None

    def split_node(self, service, node_id: int, grain: int) -> list[int]:
        """Explode one mesh of a service's share into pieces of at most
        ``grain`` polygons for migration to move; the share takes the
        pieces and is re-shipped.  Returns the piece ids."""
        attachment = self.attachment(service)
        pieces = explode_to_grain(self.master_tree, [node_id], grain)
        if pieces:
            attachment.share.discard(node_id)
            attachment.share.update(pieces)
            self._hand_off_share(attachment)
        return pieces

    def reassign_nodes(self, source, destination, node_ids: list[int]
                       ) -> None:
        """Move responsibility for nodes between services (migration).

        The receiver's whole share, moved nodes included, is re-shipped
        as one subtree; the donor merely narrows its assignment (its copy
        keeps the stale geometry until the session ends, as the paper's
        scheme does).
        """
        src = self.attachment(source)
        dst = self.attachment(destination)
        moving = set(node_ids)
        missing = moving - src.share
        if missing:
            raise SessionError(
                f"{source.name!r} does not own nodes {sorted(missing)}")
        src.share -= moving
        dst.share |= moving
        self._narrow(source, src.share)
        self._hand_off_share(dst)

    # -- fault tolerance ---------------------------------------------------------------------

    def enable_fault_tolerance(self, heartbeat_interval: float = 0.5,
                               suspect_after: float = 1.5,
                               dead_after: float = 4.0,
                               auto_recover: bool = True
                               ) -> HeartbeatMonitor:
        """Watch every attached render service with heartbeat leases.

        Each service emits beats across the simulated network to the data
        service's host; silence beyond ``suspect_after`` marks it
        suspected, beyond ``dead_after`` dead.  With ``auto_recover`` a
        death immediately triggers :meth:`handle_service_failure`.  The
        monitor polls on a recurring simulator event, so the caller only
        has to pump the simulator (``network.sim.run_until``).
        """
        self.health = HeartbeatMonitor(
            self.data_service.network.sim, suspect_after=suspect_after,
            dead_after=dead_after)
        self._heartbeat_interval = heartbeat_interval
        if auto_recover:
            self.health.on_dead.append(self._on_service_dead)
        for attachment in self._attachments.values():
            self._start_heartbeat(attachment.service)
        self.health.start(period=heartbeat_interval)
        return self.health

    def _start_heartbeat(self, service) -> None:
        self.health.add_source(
            self.data_service.network, service.name, service.host,
            self.data_service.host, self._heartbeat_interval)

    def _on_service_dead(self, name: str) -> None:
        if name in self._attachments:
            self.handle_service_failure(name)

    def service_live(self, service) -> bool:
        """Is this service usable right now (host up, lease not dead)?"""
        try:
            if not self.data_service.network.host_is_up(service.host):
                return False
        except NetworkError:
            return False
        if self.health is not None and self.health.is_watched(service.name):
            return self.health.state(service.name) != DEAD
        return True

    def handle_service_failure(self, service) -> RecoveryReport:
        """Reclaim a dead service's share and redistribute it to survivors.

        The dead service's subscription is dropped (the data service stops
        multicasting at a black hole), its scene nodes are reassigned
        greedily — largest node first, to the survivor with the most
        remaining headroom — and when *nobody* has headroom, new services
        are recruited via UDDI first.  Every reassigned share is shipped
        as a self-contained subtree, exactly like a migration receiver.
        """
        name = getattr(service, "name", service)
        attachment = self._attachments.pop(name, None)
        if attachment is None:
            raise SessionError(f"render service {name!r} is not attached")
        self.failed_services.add(name)
        if self.health is not None:
            self.health.unwatch(name)
        orphans = set(attachment.share)
        # the dead service can't unsubscribe itself — do it for it
        session = self.data_service.session(self.session_id)
        for sub_name in list(session.subscribers):
            if sub_name.startswith(f"{name}/"):
                self.data_service.unsubscribe(self.session_id, sub_name)

        recruited: list[str] = []
        reassigned: dict[str, tuple[int, ...]] = {}
        if orphans:
            survivors = [a for a in self._attachments.values()
                         if self.service_live(a.service)]
            if not any(a.service.headroom(self.target_fps) > 0
                       for a in survivors):
                recruited = [s.name for s in self.recruit_more()]
                survivors = [a for a in self._attachments.values()
                             if self.service_live(a.service)]
            if not survivors:
                raise ServiceError(
                    f"no live render services left to absorb the share of "
                    f"{name!r} ({len(orphans)} nodes)")
            reassigned = self._drain(orphans, survivors)

        report = RecoveryReport(
            failed=name, reassigned=reassigned,
            recruited=tuple(recruited),
            time=self.data_service.network.sim.now)
        self.recoveries.append(report)
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_RECOVERY, time=report.time,
                detail=f"{name} failed; reassigned "
                       f"{report.nodes_recovered} nodes to "
                       f"{sorted(reassigned)}; recruited {recruited}")
            m = obs.metrics
            m.counter("rave_session_recoveries_total",
                      "render-service failures recovered from",
                      session=self.session_id).inc()
            m.counter("rave_session_nodes_recovered_total",
                      "scene nodes reassigned off dead services",
                      session=self.session_id).inc(report.nodes_recovered)
            if recruited:
                m.counter("rave_session_recovery_recruited_total",
                          "services recruited during recovery",
                          session=self.session_id).inc(len(recruited))
        return report

    def _drain(self, orphans: set[int],
               survivors: list) -> dict[str, tuple[int, ...]]:
        """Hand ``orphans`` to ``survivors`` and ship each receiver its
        grown share; returns receiver name → the node ids it absorbed.

        Greedy bin-pack: largest orphan first to the most headroom.
        Headroom can go negative — every node *must* land somewhere, the
        packing just keeps the overload as even as possible; the migration
        policy evens things out further once load reports resume.
        """
        costed = sorted(
            ((node_cost(self.master_tree.node(nid)).polygons
              if nid in self.master_tree else 0, nid)
             for nid in orphans),
            reverse=True)
        remaining = {a.service.name: a.service.headroom(self.target_fps)
                     for a in survivors}
        assigned: dict[str, set[int]] = {}
        for polys, nid in costed:
            receiver = max(remaining, key=lambda n: remaining[n])
            assigned.setdefault(receiver, set()).add(nid)
            remaining[receiver] -= polys
        reassigned: dict[str, tuple[int, ...]] = {}
        for name, ids in assigned.items():
            attachment = self._attachments[name]
            attachment.share |= ids
            self._hand_off_share(attachment)
            reassigned[name] = tuple(sorted(ids))
        return reassigned

    def handle_data_failure(self):
        """Fail over to a data-service mirror and re-subscribe everyone.

        The mirror inherits subscribers and any missed audit-trail entries
        (:meth:`DataService.failover_to`); every attached render service is
        then re-pointed so its shared scene copy, subscription and future
        bootstraps all track the mirror.  Returns the mirror.
        """
        old = self.data_service
        mirror = old.failover_to(self.session_id)
        for attachment in self._attachments.values():
            attachment.service.repoint_data_service(
                old.name, mirror, self.session_id)
        self.data_service = mirror
        self.scheduler.data_service = mirror
        return mirror

    # -- rendering ---------------------------------------------------------------------------

    def render_composite(self, camera: CameraNode | Camera, width: int,
                         height: int) -> tuple[FrameBuffer, float]:
        """Dataset-distributed frame: every share renders, depth-composite.

        Returns the merged framebuffer and the simulated frame latency,
        which is what the clock advances by: the shares render side by
        side (the longest render sets the pace), then their framebuffers
        arrive one after another at the compositing service's one NIC.
        A share whose service has failed, or cannot reach the compositor,
        is skipped and the frame flagged degraded (``last_frame_degraded``)
        — recovery will reassign those nodes; meanwhile the survivors'
        content still arrives.
        """
        active = [a for a in self._attachments.values() if a.share]
        if not active:
            raise SessionError("no service holds a share; call "
                               "place_dataset() first")
        compositor = next((a.service.host for a in active
                           if self.service_live(a.service)), None)
        if compositor is None:
            raise SessionError("no live service holds a share")
        sim = self.data_service.network.sim
        start = sim.now
        frame = self.frames_rendered
        self.frames_rendered += 1
        shares = sim.fork_join(
            partial(self._render_share, a.service, compositor, frame,
                    "composite", partial(a.service.render_view,
                                         a.render_session_id, camera,
                                         width, height, offscreen=True))
            for a in active)
        buffers = []
        for attachment, share in zip(active, shares):
            if share is not None:
                fb, transfer = share
                self._transfer(attachment.service, transfer, frame,
                               "composite")
                buffers.append(fb)
        merged = depth_composite(buffers)
        return merged, self._finish_frame(start, frame, "composite",
                                          len(buffers) < len(active))

    def render_tiled(self, camera: CameraNode | Camera, width: int,
                     height: int, local_service=None
                     ) -> tuple[FrameBuffer, TilePlan, float]:
        """Framebuffer-distributed frame across all attached services.

        Every tile renders and ships to the requesting service alongside
        the others, so the returned latency — and the clock advance — is
        the longest tile render + transfer.  A tile whose service has
        failed (host down, unroutable) is filled from the last good
        framebuffer for that tile rectangle — or left as background on a
        cold cache — and the frame is flagged degraded instead of tearing.
        """
        services = self.render_services
        if not services:
            raise SessionError("no render services attached")
        local = local_service or services[0]
        assistants = {
            s.name: s.capacity().polygons_per_second
            for s in services if s is not local
        }
        plan = self.tile_distributor.plan(
            width, height, local.name, assistants,
            local_share=local.capacity().polygons_per_second)
        sim = self.data_service.network.sim
        start = sim.now
        frame = self.frames_rendered
        self.frames_rendered += 1
        by_name = {s.name: s for s in services}
        activities = []
        for assignment in plan.assignments:
            service = by_name[assignment.service_name]
            activities.append(partial(
                self._render_share, service, local.host, frame, "tiled",
                partial(service.render_tile,
                        self.attachment(service).render_session_id, camera,
                        assignment.tile, width, height),
                overlap=True))
        shares = sim.fork_join(activities)
        target = FrameBuffer(width, height, background=BACKGROUND)
        tiles = []
        for assignment, share in zip(plan.assignments, shares):
            tile = assignment.tile
            rect = (tile.x0, tile.y0, tile.width, tile.height)
            if share is not None:
                fb = self._tile_cache[rect] = share[0]
            else:
                fb = self._tile_cache.get(rect)
                if fb is None:
                    fb = FrameBuffer(tile.width, tile.height,
                                     background=BACKGROUND)
            tiles.append((tile, fb))
        assemble_tiles(target, tiles)
        return target, plan, self._finish_frame(start, frame, "tiled",
                                                None in shares)

    def _render_share(self, service, sink: str, frame: int, mode: str,
                      draw, overlap: bool = False):
        """One share of a distributed frame, on its own clock branch.

        ``draw`` renders the share on ``service``, and the framebuffer's
        trip to the ``sink`` host is priced — and paid on this branch
        when the mode overlaps transfers (``overlap``).  Returns ``(fb,
        transfer seconds)``, or ``None`` when the service is not live or
        the render or its route fails; the branch still costs whatever it
        consumed before failing.
        """
        if not self.service_live(service):
            return None
        network = self.data_service.network
        start = network.sim.now
        try:
            fb, _ = draw()
            rendered = network.sim.now
            transfer = network.transfer_time(service.host, sink,
                                             fb.nbytes_with_depth)
        except (NetworkError, ServiceError):
            return None
        obs = _obs()
        if obs.enabled:
            obs.tracer.record("render", start, rendered,
                              session=self.session_id, frame=frame,
                              service=service.name, mode=mode)
        if overlap:
            self._transfer(service, transfer, frame, mode)
        return fb, transfer

    def _transfer(self, service, seconds: float, frame: int,
                  mode: str) -> None:
        """Advance the current clock over one framebuffer transfer."""
        if not seconds:
            return
        clock = self.data_service.network.sim.clock
        start = clock.now
        clock.advance(seconds)
        obs = _obs()
        if obs.enabled:
            obs.tracer.record("transfer", start, clock.now,
                              session=self.session_id, frame=frame,
                              service=service.name, mode=mode)

    def _finish_frame(self, start: float, frame: int, mode: str,
                      degraded: bool) -> float:
        """Shared frame accounting for both modes; returns the latency."""
        self.last_frame_degraded = degraded
        if degraded:
            self.degraded_frames += 1
        now = self.data_service.network.sim.now
        latency = now - start
        obs = _obs()
        if obs.enabled:
            obs.tracer.record("composite", now, now,
                              session=self.session_id, frame=frame,
                              mode=mode)
            m = obs.metrics
            m.counter("rave_session_frames_total", "frames rendered",
                      session=self.session_id, mode=mode).inc()
            if degraded:
                m.counter("rave_session_degraded_frames_total",
                          "frames completed from stale/blank content",
                          session=self.session_id).inc()
            m.histogram("rave_session_frame_latency_seconds",
                        "end-to-end frame latency",
                        mode=mode).observe(latency)
        return latency

    def frame_timeline(self) -> dict:
        """Per-frame span chains for this session from the active tracer.

        Returns ``{frame index: [Span, ...]}`` with each chain
        start-ordered (``render → transfer → composite``); empty when no
        observability is installed (nothing writes to the disabled
        tracer).
        """
        return _obs().tracer.chains(session=self.session_id)

    # -- migration ---------------------------------------------------------------------------

    def rebalance(self, alerts) -> list:
        """One migration-policy pass; returns the actions taken.

        ``alerts`` — the monitor-plane alerts forwarded to
        :meth:`WorkloadMigrator.plan`: only the services a sustained
        ``overload`` / ``underload`` alert names shed or pull work.
        """
        return self.migrator.plan(self, alerts=alerts)
