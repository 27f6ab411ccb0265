"""Data-service federation: sharding sessions across data servers.

Paper §6: "Finally, we will consider the distribution of the data across
several data servers, to match our render service workload distribution.
This will alleviate any bottleneck in our system, and also support a
fail-safe mechanism, where data servers could mirror each other."

Mirroring lives in :class:`~repro.services.data_service.DataService`
(``add_mirror`` / ``failover_to``); this module adds the sharding half:

- :meth:`DataFederation.create_session` splits a scene's geometry across
  member data services (each shard is a self-contained subtree with its
  ancestor chain, exactly like render-side dataset distribution);
- :meth:`DataFederation.subscribe` bootstraps a subscriber from **all
  shards concurrently** — the marshalling bottleneck parallelises across
  data servers, which is the paper's "alleviate any bottleneck";
- :meth:`DataFederation.publish_update` routes each update to the shard
  that owns the touched nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.cost import node_cost
from repro.errors import RaveError, SessionError
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import SceneUpdate
from repro.services.data_service import BootstrapTiming, DataService


@dataclass
class ShardInfo:
    """One shard of a federated session."""

    member: DataService
    shard_session_id: str
    node_ids: set[int] = field(default_factory=set)


@dataclass
class FederatedSession:
    session_id: str
    shards: list[ShardInfo] = field(default_factory=list)

    def shard_for(self, node_id: int) -> ShardInfo:
        for shard in self.shards:
            if node_id in shard.node_ids:
                return shard
        raise SessionError(
            f"no shard owns node {node_id} in {self.session_id!r}")


class DataFederation:
    """A group of data services jointly hosting sharded sessions."""

    def __init__(self, name: str, members: list[DataService]) -> None:
        if len(members) < 1:
            raise SessionError("a federation needs at least one member")
        names = [m.name for m in members]
        if len(set(names)) != len(names):
            raise SessionError(f"duplicate member names: {names}")
        self.name = name
        self.members = list(members)
        self._sessions: dict[str, FederatedSession] = {}

    @property
    def network(self):
        return self.members[0].network

    def session(self, session_id: str) -> FederatedSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(
                f"no federated session {session_id!r}") from None

    # -- sharding ----------------------------------------------------------------

    def create_session(self, session_id: str, tree: SceneTree,
                       charge_time: bool = False) -> FederatedSession:
        """Split a scene's geometry across the members, balanced by
        payload bytes (the bootstrap-marshalling driver)."""
        if session_id in self._sessions:
            raise SessionError(f"session {session_id!r} already exists")
        geometry = tree.geometry_nodes()
        if not geometry:
            raise SessionError("nothing to shard: the scene has no geometry")
        # greedy balance by payload bytes, largest first
        loads = [0] * len(self.members)
        assignment: list[set[int]] = [set() for _ in self.members]
        for node in sorted(geometry,
                           key=lambda n: -node_cost(n).payload_bytes):
            k = loads.index(min(loads))
            assignment[k].add(node.node_id)
            loads[k] += node_cost(node).payload_bytes

        session = FederatedSession(session_id=session_id)
        for member, ids in zip(self.members, assignment):
            if not ids:
                continue
            shard_id = f"{session_id}#{member.name}"
            shard_tree = tree.extract_subtree(sorted(ids))
            member.create_session(shard_id, shard_tree,
                                  charge_time=charge_time)
            session.shards.append(ShardInfo(
                member=member, shard_session_id=shard_id,
                node_ids=set(ids)))
        self._sessions[session_id] = session
        return session

    # -- subscription -----------------------------------------------------------------

    def subscribe(self, session_id: str, subscriber_name: str, host: str,
                  introspective: bool = True,
                  subscriber_cpu_factor: float = 1.0,
                  on_update=None) -> tuple[SceneTree, BootstrapTiming]:
        """Bootstrap from every shard concurrently; merge the subtrees.

        The returned timing reports the *parallel* critical path: shards
        marshal on their own data servers simultaneously, so the combined
        bootstrap takes max-over-shards, not sum — the federation's point.
        """
        session = self.session(session_id)
        joined: list[ShardInfo] = []

        def join(shard: ShardInfo) -> tuple[SceneTree, BootstrapTiming]:
            part = shard.member.subscribe(
                shard.shard_session_id, subscriber_name, host,
                introspective=introspective,
                subscriber_cpu_factor=subscriber_cpu_factor,
                on_update=on_update)
            joined.append(shard)
            return part

        try:
            # one branch per shard: the members genuinely proceed in
            # parallel and the clock advances by the critical path only
            parts = self.network.sim.fork_join(
                [partial(join, shard) for shard in session.shards])
        except RaveError:
            # all or nothing: a half-joined subscriber could never retry
            # under the same name
            for shard in joined:
                shard.member.unsubscribe(shard.shard_session_id,
                                         subscriber_name)
            raise
        merged: SceneTree | None = None
        totals = dict(handshake=0.0, marshal=0.0, transfer=0.0,
                      demarshal=0.0)
        nbytes = 0
        for tree, timing in parts:
            totals["handshake"] += timing.handshake_seconds
            totals["marshal"] += timing.marshal_seconds
            totals["transfer"] += timing.transfer_seconds
            totals["demarshal"] += timing.demarshal_seconds
            nbytes += timing.nbytes
            merged = tree if merged is None else _merge_trees(merged, tree)
        assert merged is not None
        timing = BootstrapTiming(
            instance_seconds=0.0,
            handshake_seconds=totals["handshake"],
            marshal_seconds=totals["marshal"],
            transfer_seconds=totals["transfer"],
            demarshal_seconds=totals["demarshal"],
            nbytes=nbytes,
        )
        return merged, timing

    # -- updates ----------------------------------------------------------------------

    def publish_update(self, session_id: str,
                       update: SceneUpdate) -> dict[str, float]:
        """Route an update to the owning shard(s)."""
        session = self.session(session_id)
        touched = update.touched_ids()
        deliveries: dict[str, float] = {}
        routed = False
        for shard in session.shards:
            if touched & shard.node_ids:
                deliveries.update(shard.member.publish_update(
                    shard.shard_session_id, update))
                routed = True
        if not routed:
            raise SessionError(
                f"update touches nodes {sorted(touched)} owned by no shard "
                f"of {session_id!r}")
        return deliveries


def _merge_trees(a: SceneTree, b: SceneTree) -> SceneTree:
    """Union of two shard subtrees of the same original scene.

    Shards preserve original node ids and ancestor chains, so merging is
    id-keyed: nodes of ``b`` missing from ``a`` are grafted under their
    (already present or also grafted) parents.
    """
    from repro.scenegraph.nodes import node_from_wire, node_to_wire

    for node in b.root.iter_subtree():
        if node is b.root or node.node_id in a:
            continue
        parent_id = node.parent.node_id  # type: ignore[union-attr]
        parent = a.root if parent_id == b.root.node_id else (
            a.node(parent_id) if parent_id in a else None)
        if parent is None:
            # parent appears later in pre-order only if b's ordering is
            # broken; extract_subtree always yields parents first
            raise SessionError(
                f"shard merge missing parent {parent_id} for node "
                f"{node.node_id}")
        clone = node_from_wire(node_to_wire(node))
        parent.add_child(clone)
        a._register(clone, node.node_id)
    return a
