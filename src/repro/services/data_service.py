"""The RAVE data service.

"The data service imports data from either a static file or a live feed
... forms a persistent, central distribution point for the data to be
visualized.  Multiple sessions may be managed by the same data service ...
The data are intermittently streamed to disk, recording any changes ... in
the form of an audit trail."  (paper §3.1.1)

Responsibilities implemented here:

- session management (multiple sessions per service, factory instances);
- subscription: render services and active clients bootstrap by receiving
  the scene tree (timed through the introspection or binary marshaller —
  the Table 5 code path);
- update distribution with interest management: "sections of the dataset
  [are] marked as being of interest to a render service — this render
  service must be updated if the data service receives any changes to this
  subset of the data";
- audit-trail persistence and playback for asynchronous collaboration;
- mirroring (future work §6: "data servers could mirror each other",
  "a fail-safe mechanism").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.errors import SessionError
from repro.network.marshalling import (
    BinaryMarshaller,
    IntrospectionMarshaller,
)
from repro.obs.telemetry import ServiceTelemetry
from repro.obs.vocab import SERVICE_DATA, SERVICE_RENDER, TELEMETRY_SUBSCRIBE
from repro.scenegraph.audit import AuditTrail
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import SceneUpdate
from repro.services.container import ServiceContainer


@dataclass(frozen=True)
class BootstrapTiming:
    """Where a subscription bootstrap spent its simulated time."""

    instance_seconds: float
    handshake_seconds: float
    marshal_seconds: float
    transfer_seconds: float
    demarshal_seconds: float
    nbytes: int

    @property
    def total_seconds(self) -> float:
        return (self.instance_seconds + self.handshake_seconds
                + self.marshal_seconds + self.transfer_seconds
                + self.demarshal_seconds)


@dataclass
class Subscription:
    """One subscriber of a session."""

    name: str
    host: str
    kind: str                       # "render" | "client"
    #: node ids of interest; None means the whole scene
    interests: set[int] | None = None
    #: called with each relevant update (keeps remote copies in sync)
    on_update: Callable[[SceneUpdate], None] | None = None
    updates_delivered: int = 0

    def interested_in(self, update: SceneUpdate,
                      touched_ids: set[int] | None = None) -> bool:
        """``touched_ids`` may be pre-expanded to the touched subtrees (an
        update to an ancestor affects every descendant's rendering)."""
        if self.interests is None:
            return True
        touched = (touched_ids if touched_ids is not None
                   else update.touched_ids())
        return bool(self.interests & touched)


@dataclass
class DataSession:
    """One collaborative session hosted by a data service."""

    session_id: str
    tree: SceneTree
    trail: AuditTrail = field(default_factory=AuditTrail)
    sequence: int = 0
    subscribers: dict[str, Subscription] = field(default_factory=dict)
    #: wire snapshot of the tree as imported — the audit trail replays on
    #: top of this ("the data are intermittently streamed to disk")
    initial_snapshot: dict = field(default_factory=dict)
    #: autosave destination and cadence (updates between checkpoints);
    #: None disables
    autosave_path: str | None = None
    autosave_every: int = 25
    autosaves_written: int = 0
    #: for mirror clones: how many of the primary's trail entries were
    #: already baked into this session's snapshot at registration time
    mirror_baseline: int = 0
    #: the container's factory instance holding the session
    instance_id: str = ""

    def subscriber(self, name: str) -> Subscription:
        try:
            return self.subscribers[name]
        except KeyError:
            raise SessionError(
                f"{name!r} is not subscribed to {self.session_id!r}"
            ) from None


class DataService:
    """A data service deployed in a container on one host."""

    #: SOAP handshakes per subscription (subscribe + socket negotiation)
    HANDSHAKE_ROUND_TRIPS = 2

    def __init__(self, name: str, container: ServiceContainer,
                 policy=None) -> None:
        from repro.services.security import AccessPolicy
        from repro.services.wsdl import DATA_SERVICE_WSDL

        self.name = name
        self.container = container
        self.endpoint = container.deploy(DATA_SERVICE_WSDL)
        self._sessions: dict[str, DataSession] = {}
        self.mirrors: list[DataService] = []
        #: who may subscribe (§3.2.2: "resources may need to have access
        #: permissions modified to permit new users")
        self.policy = policy if policy is not None else AccessPolicy.open()
        #: per-service registry + event stream, scraped by the monitor
        self.telemetry = ServiceTelemetry(name, container.host,
                                          SERVICE_DATA)
        self._touch()

    def _touch(self) -> None:
        """Push the gauges wherever a session, subscriber or mirror changes."""
        registry = self.telemetry.registry
        registry.gauge("rave_ds_sessions").set(len(self._sessions))
        registry.gauge("rave_ds_subscribers").set(
            sum(len(s.subscribers) for s in self._sessions.values()))
        registry.gauge("rave_ds_mirrors").set(len(self.mirrors))

    @property
    def host(self) -> str:
        return self.container.host

    @property
    def network(self):
        return self.container.network

    # -- sessions -----------------------------------------------------------------

    def create_session(self, session_id: str, tree: SceneTree,
                       charge_time: bool = True) -> DataSession:
        """Import a dataset as a new session (a factory instance)."""
        if session_id in self._sessions:
            raise SessionError(f"session {session_id!r} already exists")
        instance = self.container.create_instance(
            "data", label=session_id, charge_time=charge_time)
        session = DataSession(session_id=session_id, tree=tree,
                              initial_snapshot=tree.to_wire(),
                              instance_id=instance.instance_id)
        self._sessions[session_id] = session
        self._touch()
        return session

    def close_session(self, session_id: str) -> None:
        """End a session and its factory instance (no simulated time)."""
        self.container.destroy_instance(self.session(session_id).instance_id)
        del self._sessions[session_id]
        self._touch()

    def session(self, session_id: str) -> DataSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(
                f"no session {session_id!r} on data service "
                f"{self.name!r}") from None

    def sessions(self) -> list[DataSession]:
        return list(self._sessions.values())

    # -- subscription & bootstrap ------------------------------------------------------

    def subscribe(self, session_id: str, subscriber_name: str, host: str,
                  kind: str = SERVICE_RENDER,
                  interests: set[int] | None = None,
                  on_update: Callable[[SceneUpdate], None] | None = None,
                  introspective: bool = True,
                  subscriber_cpu_factor: float = 1.0,
                  certificate=None,
                  ) -> tuple[SceneTree, BootstrapTiming]:
        """Subscribe and bootstrap: ship the (interest-filtered) scene tree.

        Returns the subscriber's own copy of the tree plus the timing
        breakdown Table 5 reports.  ``introspective`` selects the
        marshaller — True reproduces the published bottleneck, False the
        future-work binary stream.  The access policy is enforced first
        (SOAP fault on denial); GT3 containers additionally charge the GSI
        mutual-authentication handshake.
        """
        session = self.session(session_id)
        self.policy.authorize(subscriber_name, certificate)
        if self.container.flavor == "gt3":
            from repro.services.security import gt3_handshake_seconds

            self.network.sim.clock.advance(
                gt3_handshake_seconds(self.container.cpu_factor))
        if subscriber_name in session.subscribers:
            raise SessionError(
                f"{subscriber_name!r} already subscribed to {session_id!r}")

        # SOAP handshakes (subscribe + socket negotiation)
        from repro.network.transport import SoapChannel

        t0 = self.network.sim.clock.now
        channel = SoapChannel(self.network, host, self.host,
                              cpu_factor=self.container.cpu_factor)
        for _ in range(self.HANDSHAKE_ROUND_TRIPS):
            channel.request(
                ("subscribe", {"sessionId": session_id,
                               "subscriber": subscriber_name}),
                ("subscribeResponse", {"accepted": True}))
        handshake = self.network.sim.clock.now - t0

        # data transfer: marshal on this host, move, demarshal on subscriber
        if interests is None:
            payload_tree = session.tree
        else:
            payload_tree = session.tree.extract_subtree(sorted(interests))
        wire = payload_tree.to_wire()
        marshaller = (IntrospectionMarshaller(self.container.cpu_factor)
                      if introspective
                      else BinaryMarshaller(self.container.cpu_factor))
        result = marshaller.marshal(wire)
        self.network.sim.clock.advance(result.cpu_seconds)
        transfer = self.network.transfer_time(self.host, host, result.nbytes)
        self.network.sim.clock.advance(transfer)
        sub_marshaller = (IntrospectionMarshaller(subscriber_cpu_factor)
                          if introspective
                          else BinaryMarshaller(subscriber_cpu_factor))
        decoded, demarshal = sub_marshaller.demarshal(result.data)
        self.network.sim.clock.advance(demarshal)

        session.subscribers[subscriber_name] = Subscription(
            name=subscriber_name, host=host, kind=kind,
            interests=set(interests) if interests is not None else None,
            on_update=on_update)
        self._touch()
        self.telemetry.registry.counter("rave_ds_subscriptions_total").inc()
        self.telemetry.event(TELEMETRY_SUBSCRIBE, self.network.sim.clock.now,
                             f"{subscriber_name} -> {session_id}")
        timing = BootstrapTiming(
            instance_seconds=0.0,
            handshake_seconds=handshake,
            marshal_seconds=result.cpu_seconds,
            transfer_seconds=transfer,
            demarshal_seconds=demarshal,
            nbytes=result.nbytes,
        )
        return SceneTree.from_wire(decoded), timing

    def unsubscribe(self, session_id: str, subscriber_name: str) -> None:
        session = self.session(session_id)
        if subscriber_name not in session.subscribers:
            raise SessionError(
                f"{subscriber_name!r} is not subscribed to {session_id!r}")
        del session.subscribers[subscriber_name]
        self._touch()

    def set_interests(self, session_id: str, subscriber_name: str,
                      interests: set[int] | None) -> None:
        """Re-mark the dataset sections a subscriber must be updated about."""
        sub = self.session(session_id).subscriber(subscriber_name)
        sub.interests = set(interests) if interests is not None else None

    # -- update distribution --------------------------------------------------------------

    def publish_update(self, session_id: str, update: SceneUpdate,
                       ) -> dict[str, float]:
        """Apply an update to the master tree and multicast it out.

        Returns subscriber name → delivery time (simulated seconds after
        publication).  The originator (``update.origin``) is skipped — it
        already has the change.  Mirrors receive every update.
        """
        session = self.session(session_id)
        # Expand the touched set to whole subtrees *before* applying (a
        # transform on an ancestor re-orients every descendant; a removal
        # must reach whoever held any of the removed nodes).
        touched = set(update.touched_ids())
        for nid in list(touched):
            if nid in session.tree:
                touched.update(
                    n.node_id
                    for n in session.tree.node(nid).iter_subtree())
        update.apply(session.tree)
        session.sequence += 1
        session.trail.record(self.network.sim.clock.now, update)

        targets = [
            sub for sub in session.subscribers.values()
            if sub.name != update.origin
            and sub.interested_in(update, touched)
        ]
        nbytes = update.payload_bytes
        times = self.network.multicast_times(
            self.host, [s.host for s in targets], nbytes)
        deliveries: dict[str, float] = {}
        for sub in targets:
            if sub.on_update is not None:
                sub.on_update(update)
            sub.updates_delivered += 1
            deliveries[sub.name] = times[sub.host]
        registry = self.telemetry.registry
        registry.counter("rave_ds_updates_total").inc()
        registry.counter("rave_ds_update_bytes_total").inc(nbytes)
        registry.counter("rave_ds_deliveries_total").inc(len(targets))
        for mirror in self.mirrors:
            mirror._replicate(session_id, update)
        if (session.autosave_path is not None
                and session.sequence % session.autosave_every == 0):
            self.save_session(session_id, session.autosave_path)
            session.autosaves_written += 1
        return deliveries

    def enable_autosave(self, session_id: str, path,
                        every_n_updates: int = 25) -> None:
        """Intermittently stream the session to disk (§3.1.1).

        Every ``every_n_updates`` published updates, the full session
        (snapshot + audit trail) is checkpointed to ``path``; a crashed
        data service resumes from the last checkpoint via
        :meth:`load_session`.
        """
        if every_n_updates < 1:
            raise SessionError("checkpoint cadence must be >= 1")
        session = self.session(session_id)
        session.autosave_path = str(path)
        session.autosave_every = every_n_updates

    # -- persistence ---------------------------------------------------------------------

    def save_session(self, session_id: str, path) -> int:
        """Stream the session to disk: initial snapshot + audit trail.

        The snapshot is the imported dataset; the trail replays on top of
        it, so any point in the session's history is reconstructible.
        """
        from pathlib import Path

        from repro.network.marshalling import encode_value

        session = self.session(session_id)
        blob = encode_value({
            "format": "rave-session-1",
            "snapshot": session.initial_snapshot,
            "trail": [
                {"time": t, "update": u.to_wire()}
                for t, u in session.trail
            ],
        })
        Path(path).write_bytes(blob)
        return len(blob)

    def load_session(self, session_id: str, path,
                     charge_time: bool = False) -> DataSession:
        """Recreate a session by replaying its recorded audit trail over
        the stored snapshot."""
        from pathlib import Path

        from repro.errors import DataFormatError
        from repro.network.marshalling import decode_value
        from repro.scenegraph.updates import update_from_wire

        blob = decode_value(Path(path).read_bytes())
        if not isinstance(blob, dict) or blob.get("format") != \
                "rave-session-1":
            raise DataFormatError(f"{path}: not a RAVE session file")
        trail = AuditTrail()
        for rec in blob["trail"]:
            trail.record(rec["time"], update_from_wire(rec["update"]))
        tree = trail.playback(tree=SceneTree.from_wire(blob["snapshot"]))
        session = self.create_session(session_id, tree,
                                      charge_time=charge_time)
        session.trail = trail
        session.initial_snapshot = blob["snapshot"]
        return session

    # -- mirroring (future work, implemented) -----------------------------------------------

    def add_mirror(self, mirror: DataService) -> None:
        """Register a mirror that replicates every session and update."""
        if mirror is self:
            raise SessionError("a data service cannot mirror itself")
        for session in self.sessions():
            if session.session_id not in mirror._sessions:
                clone = SceneTree.from_wire(session.tree.to_wire())
                msession = mirror.create_session(session.session_id, clone,
                                                 charge_time=False)
                # The clone already contains every applied update; align the
                # counters so failover only replays what the mirror missed.
                msession.sequence = session.sequence
                msession.mirror_baseline = len(session.trail)
        self.mirrors.append(mirror)
        self._touch()

    def _replicate(self, session_id: str, update: SceneUpdate) -> None:
        if session_id not in self._sessions:
            return
        session = self.session(session_id)
        update.apply(session.tree)
        session.sequence += 1
        session.trail.record(self.network.sim.clock.now, update)

    def failover_to(self, session_id: str) -> DataService:
        """Pick a mirror holding the session and hand it the live state.

        The mirror inherits the session's **subscribers** (with their
        interest sets and update callbacks — without this the mirror would
        never multicast updates to the session's existing render services)
        and replays any audit-trail entries it missed, so no update is
        lost across the failover.
        """
        for mirror in self.mirrors:
            if session_id in mirror._sessions:
                self._hand_over(session_id, mirror)
                return mirror
        raise SessionError(
            f"no mirror holds session {session_id!r}")

    def _hand_over(self, session_id: str, mirror: DataService) -> None:
        """Transfer a session's subscribers + missing trail to a mirror."""
        session = self._sessions.get(session_id)
        if session is None:
            return
        msession = mirror.session(session_id)
        # Replay whatever the mirror missed (a crash can land between the
        # primary applying an update and replicating it — anywhere in the
        # stream, not just at the end).  Entries baked into the mirror's
        # snapshot at registration are skipped via ``mirror_baseline``;
        # everything after it is matched against the mirror's own trail.
        seen = {id(u) for _, u in msession.trail}
        floor = max((t for t, _ in msession.trail), default=0.0)
        for time, update in list(session.trail)[msession.mirror_baseline:]:
            if id(update) in seen:
                continue
            update.apply(msession.tree)
            msession.sequence += 1
            # clamp so late-replayed gap entries keep the trail monotonic
            floor = max(floor, time)
            msession.trail.record(floor, update)
        for name, sub in session.subscribers.items():
            if name not in msession.subscribers:
                msession.subscribers[name] = Subscription(
                    name=sub.name, host=sub.host, kind=sub.kind,
                    interests=(set(sub.interests)
                               if sub.interests is not None else None),
                    on_update=sub.on_update,
                    updates_delivered=sub.updates_delivered)
        mirror._touch()

    def __repr__(self) -> str:
        return (f"DataService(name={self.name!r}, host={self.host!r}, "
                f"sessions={sorted(self._sessions)})")
