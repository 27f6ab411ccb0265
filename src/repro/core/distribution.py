"""The two workload-distribution modes.

Paper §3.2.5: "There are two approaches to workload distribution: dataset
distribution and framebuffer distribution."

**Dataset distribution** (:class:`DatasetDistributor`): the data service
hands each render service a subset of the scene tree (with ancestor chain
and the client camera), each renders its subset with the shared camera,
and the client's service depth-composites the framebuffers.  Oversized
mesh nodes are *exploded* into spatial pieces so assignments can match
per-service budgets at fine grain.

**Framebuffer distribution** (:class:`FramebufferDistributor`): the
requesting service splits its target framebuffer into tiles, keeps one,
and farms the rest out to assistants, which render to off-screen buffers
forwarded "directly to the requesting render service".  Tile areas are
sized proportionally to each service's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import NodeCost, node_cost
from repro.errors import SceneGraphError
from repro.render.framebuffer import Tile
from repro.scenegraph.nodes import GroupNode, MeshNode, SceneNode
from repro.scenegraph.tree import SceneTree


# --------------------------------------------------------------------------
# dataset distribution
# --------------------------------------------------------------------------


@dataclass
class DistributionPlan:
    """Which node ids go to which render service."""

    #: service name → set of node ids it is responsible for
    shares: dict[str, set[int]] = field(default_factory=dict)
    #: service name → assigned cost
    costs: dict[str, NodeCost] = field(default_factory=dict)

    def share_of(self, service_name: str) -> set[int]:
        return self.shares.get(service_name, set())


def explode_mesh_node(tree: SceneTree, node_id: int,
                      n_parts: int) -> list[int]:
    """Replace one mesh node by a group of spatially-split sub-meshes.

    Returns the new leaf node ids.  The group keeps the original node's id
    so existing interests/assignments keep working.
    """
    node = tree.node(node_id)
    if not isinstance(node, MeshNode):
        raise SceneGraphError(f"node {node_id} is not a mesh")
    if n_parts < 2:
        return [node_id]
    pieces = node.mesh.split_spatially(n_parts)
    parent = node.parent
    if parent is None:
        raise SceneGraphError("cannot explode the root")
    tree.remove(node)
    group = GroupNode(name=f"{node.name}:exploded")
    tree.add(group, parent=parent, node_id=node_id)
    new_ids = []
    for i, piece in enumerate(pieces):
        child = MeshNode(piece, name=f"{node.name}:part{i}")
        tree.add(child, parent=group)
        new_ids.append(child.node_id)
    return new_ids


def explode_to_grain(tree: SceneTree, node_ids, grain: int) -> list[int]:
    """Explode each mesh among ``node_ids`` above ``grain`` polygons into
    ``ceil(polygons / grain)`` even pieces; returns the new leaf ids."""
    created: list[int] = []
    for nid in node_ids:
        node = tree.node(nid)
        if isinstance(node, MeshNode) and node.n_polygons > grain:
            n_parts = int(np.ceil(node.n_polygons / grain))
            created.extend(explode_mesh_node(tree, nid, n_parts))
    return created


class DatasetDistributor:
    """Plan scene-subset assignments against per-service polygon budgets."""

    def __init__(self, max_grain_polygons: int = 50_000) -> None:
        #: meshes larger than this are exploded for fine-grain assignment
        self.max_grain_polygons = max_grain_polygons

    @staticmethod
    def _polygon_equivalent(node: SceneNode) -> int:
        """Render weight in polygon units: points cost ~1/3 polygon each
        (capacity quotes point throughput at 3x the triangle rate)."""
        cost = node_cost(node)
        return cost.polygons + -(-cost.points // 3)

    def plan(self, tree: SceneTree, budgets: dict[str, float],
             volume_hosts: set[str] | None = None) -> DistributionPlan:
        """Assign geometry nodes to services, respecting polygon budgets.

        ``budgets`` maps service name → polygon budget.  Greedy
        largest-node-first into the service with the most remaining budget
        (LPT scheduling); oversized meshes are exploded first so no single
        node exceeds the largest budget or the grain limit.  Point clouds
        weigh in at a third of a polygon per point; volume nodes are only
        placed on services named in ``volume_hosts`` ("support for
        hardware assisted volume rendering" is a capacity metric).
        """
        if not budgets:
            raise ValueError("no services to distribute over")
        volumes = [n for n in tree.geometry_nodes() if n.n_voxels]
        if volumes:
            hosts = volume_hosts if volume_hosts is not None else set()
            missing = hosts - set(budgets)
            if missing:
                raise ValueError(
                    f"volume hosts {sorted(missing)} not in budgets")
            if not hosts:
                raise SceneGraphError(
                    "the scene contains volumes but no service supports "
                    "hardware volume rendering")
        total_budget = sum(budgets.values())
        demand = sum(self._polygon_equivalent(n)
                     for n in tree.geometry_nodes())
        if demand > total_budget:
            raise SceneGraphError(
                f"dataset demands {demand} polygon-equivalents but "
                f"budgets total {total_budget:.0f}")

        # Grain: parts must fit the *smallest* budget, or LPT packing can
        # strand a piece with no bin large enough.  On a packing failure
        # (fragmentation), retry at half the grain; then once at
        # slack / (k - 1) for k budgets, where LPT cannot fail: before
        # each piece of weight w the budgets left sum to at least
        # w + slack, so the most-spare one holds (w + slack) / k >= w.
        positive = [b for b in budgets.values() if b > 0]
        if not positive:
            raise SceneGraphError("every service has zero budget")
        grain = min(self.max_grain_polygons, max(min(positive), 1.0))
        grains = [max(1.0, grain / 2 ** i) for i in range(4)]
        guaranteed = (total_budget - demand) // max(len(positive) - 1, 1)
        if guaranteed >= 1:
            grains.append(guaranteed)
        for grain in grains:
            explode_to_grain(tree, [n.node_id for n in tree.geometry_nodes()],
                             int(grain))
            plan = self._assign(tree, budgets, volume_hosts or set())
            if plan is not None:
                return plan
        raise SceneGraphError(f"could not pack dataset at grain {grain:.0f}")

    def _assign(self, tree: SceneTree, budgets: dict[str, float],
                volume_hosts: set[str]) -> DistributionPlan | None:
        """LPT packing; None when fragmentation defeats it at this grain."""
        plan = DistributionPlan(
            shares={name: set() for name in budgets},
            costs={name: NodeCost() for name in budgets})
        leaves = list(tree.geometry_nodes())
        leaves.sort(key=lambda n: -self._polygon_equivalent(n))
        remaining = dict(budgets)
        for node in leaves:
            cost = node_cost(node)
            weight = self._polygon_equivalent(node)
            if cost.voxels:
                # volumes go to the volume-capable service with the most
                # remaining budget (voxel work is fill-bound, not counted
                # against the polygon budget)
                candidates = {k: remaining[k] for k in volume_hosts}
                if not candidates:
                    return None
                name = max(candidates, key=lambda k: candidates[k])
            else:
                name = max(remaining, key=lambda k: remaining[k])
                if weight > remaining[name] + 1e-9:
                    return None
                remaining[name] -= weight
            plan.shares[name].add(node.node_id)
            plan.costs[name] = plan.costs[name] + cost
        return plan


# --------------------------------------------------------------------------
# framebuffer distribution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TileAssignment:
    tile: Tile
    service_name: str
    #: True for the requester's locally-rendered tile
    local: bool


@dataclass
class TilePlan:
    width: int
    height: int
    assignments: list[TileAssignment] = field(default_factory=list)


class FramebufferDistributor:
    """Split a target framebuffer into capacity-proportional column tiles.

    Columns (full-height vertical strips) keep the assembly trivial and
    match the paper's two-tile galleon demonstration; the requester always
    takes the first strip ("a single tile is rendered locally, whilst the
    remaining tiles are rendered remotely").
    """

    def plan(self, width: int, height: int, local_service: str,
             assistants: dict[str, float],
             local_share: float | None = None) -> TilePlan:
        """``assistants`` maps service name → relative capacity weight."""
        if width <= 0 or height <= 0:
            raise ValueError("target size must be positive")
        if any(w <= 0 for w in assistants.values()):
            raise ValueError("assistant weights must be positive")
        weights: list[tuple[str, float, bool]] = []
        local_w = (local_share if local_share is not None
                   else (sum(assistants.values()) / max(1, len(assistants))
                         if assistants else 1.0))
        weights.append((local_service, local_w, True))
        for name, w in assistants.items():
            weights.append((name, w, False))
        total = sum(w for _, w, _ in weights)
        # proportional column split with rounding correction
        edges = [0]
        acc = 0.0
        for _, w, _ in weights:
            acc += w
            edges.append(int(round(width * acc / total)))
        edges[-1] = width
        plan = TilePlan(width=width, height=height)
        for (name, _, is_local), x0, x1 in zip(weights, edges[:-1],
                                               edges[1:]):
            if x1 <= x0:
                raise ValueError(
                    f"tile for {name!r} would be empty; fewer assistants "
                    "or a wider target needed")
            plan.assignments.append(TileAssignment(
                tile=Tile(x0=x0, y0=0, width=x1 - x0, height=height),
                service_name=name, local=is_local))
        return plan
