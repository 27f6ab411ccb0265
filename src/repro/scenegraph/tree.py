"""The scene tree: id registry, traversal, transforms, subtree extraction.

Subtree extraction is load-bearing for workload distribution: "the render
service ... is thus given a subset of the scene tree, *including the parent
nodes to orientate the scene subset in the world*, along with the client's
camera" (paper §3.2.5).  :meth:`SceneTree.extract_subtree` implements
exactly that contract.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import reduce

import numpy as np

from repro.errors import SceneGraphError
from repro.scenegraph.nodes import (
    CameraNode,
    GroupNode,
    MeshNode,
    PointCloudNode,
    SceneNode,
    TransformNode,
    VolumeNode,
    node_from_wire,
    node_to_wire,
)


class SceneTree:
    """A rooted scene graph with stable integer node ids."""

    def __init__(self, name: str = "scene") -> None:
        self.name = name
        self.root = GroupNode(name="root")
        self._next_id = 0
        self._nodes: dict[int, SceneNode] = {}
        self._register(self.root)

    # -- registry -------------------------------------------------------------

    def _register(self, node: SceneNode, node_id: int | None = None) -> int:
        if node_id is None:
            node_id = self._next_id
        if node_id in self._nodes:
            raise SceneGraphError(f"node id {node_id} already in use")
        node.node_id = node_id
        self._nodes[node_id] = node
        self._next_id = max(self._next_id, node_id + 1)
        return node_id

    def node(self, node_id: int) -> SceneNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SceneGraphError(f"no node with id {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[SceneNode]:
        return self.root.iter_subtree()

    # -- mutation --------------------------------------------------------------

    def add(self, node: SceneNode, parent: SceneNode | int | None = None,
            node_id: int | None = None) -> SceneNode:
        """Attach ``node`` (and any pre-built children) under ``parent``."""
        parent_node = self._resolve(parent) if parent is not None else self.root
        if parent_node.node_id not in self._nodes:
            raise SceneGraphError(f"parent {parent_node!r} is not in this tree")
        parent_node.add_child(node)
        self._register(node, node_id)
        for child in node.children:
            for sub in child.iter_subtree():
                self._register(sub)
        return node

    def remove(self, node: SceneNode | int) -> SceneNode:
        """Detach a subtree; all its ids are released."""
        target = self._resolve(node)
        if target is self.root:
            raise SceneGraphError("cannot remove the root node")
        if target.node_id not in self._nodes:
            raise SceneGraphError(f"{target!r} is not in this tree")
        assert target.parent is not None
        target.parent.remove_child(target)
        for sub in target.iter_subtree():
            self._nodes.pop(sub.node_id, None)
            sub.node_id = -1
        return target

    def _resolve(self, ref: SceneNode | int) -> SceneNode:
        return self.node(ref) if isinstance(ref, int) else ref

    # -- queries ----------------------------------------------------------------

    def find(self, predicate: Callable[[SceneNode], bool]) -> list[SceneNode]:
        return [n for n in self if predicate(n)]

    def find_by_name(self, name: str) -> list[SceneNode]:
        return self.find(lambda n: n.name == name)

    def geometry_nodes(self) -> list[SceneNode]:
        """All renderable payload nodes (meshes, points, volumes)."""
        return self.find(
            lambda n: isinstance(n, (MeshNode, PointCloudNode, VolumeNode)))

    def cameras(self) -> list[CameraNode]:
        return [n for n in self if isinstance(n, CameraNode)]

    def _transform_chain(self, node: SceneNode | int) -> list[np.ndarray]:
        """Matrices of the transform nodes from the root down to ``node``."""
        chain: list[np.ndarray] = []
        cur: SceneNode | None = self._resolve(node)
        while cur is not None:
            if isinstance(cur, TransformNode):
                chain.append(cur.matrix)
            cur = cur.parent
        return chain[::-1]

    def world_transform(self, node: SceneNode | int) -> np.ndarray:
        """Accumulated 4x4 transform from the root down to ``node``."""
        return reduce(np.matmul, self._transform_chain(node), np.eye(4))

    def placement(self, node: SceneNode | int) -> np.ndarray | None:
        """:meth:`world_transform`, or None where it moves nothing.

        A node with no transform node above it is where its payload says
        by construction; only a chain that exists is multiplied out and
        compared with the identity (``np.allclose`` tolerance).
        """
        chain = self._transform_chain(node)
        if not chain:
            return None
        world = reduce(np.matmul, chain, np.eye(4))
        return None if np.allclose(world, np.eye(4)) else world

    def total_polygons(self) -> int:
        """Polygons in the whole tree: the root's kept subtree count."""
        return self.root.subtree_polygons

    def total_payload_bytes(self) -> int:
        return sum(n.payload_bytes for n in self)

    def path_to_root(self, node: SceneNode | int) -> list[SceneNode]:
        """Node, its parent, ... up to and including the root."""
        target = self._resolve(node)
        path = [target]
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        return path

    # -- subtree extraction (workload distribution contract) ---------------------

    def extract_subtree(self, node_ids: list[int],
                        camera: CameraNode | None = None) -> SceneTree:
        """Build a self-contained tree holding the requested nodes.

        The extracted tree preserves every ancestor on the path from the
        root to each requested node — in particular the transform chain —
        "to orientate the scene subset in the world".  Non-requested
        geometry siblings are omitted.  If ``camera`` is given, a copy is
        attached at the root (the client's camera rides along with the
        subset).
        """
        wanted: set[int] = set()
        for nid in node_ids:
            node = self.node(nid)
            # the node's whole subtree...
            for sub in node.iter_subtree():
                wanted.add(sub.node_id)
            # ...plus the ancestor chain
            for anc in self.path_to_root(node):
                wanted.add(anc.node_id)

        out = SceneTree(name=f"{self.name}[subset]")
        clones: dict[int, SceneNode] = {self.root.node_id: out.root}
        # Walk in pre-order so parents are cloned before children.
        for node in self.root.iter_subtree():
            if node is self.root or node.node_id not in wanted:
                continue
            clone = node_from_wire(node_to_wire(node))
            parent_clone = clones[node.parent.node_id]  # type: ignore[union-attr]
            parent_clone.add_child(clone)
            out._register(clone, node.node_id)
            clones[node.node_id] = clone
        if camera is not None:
            cam = node_from_wire(node_to_wire(camera))
            out.root.add_child(cam)
            out._register(cam)
        return out

    # -- whole-tree serialisation ---------------------------------------------

    def to_wire(self) -> dict:
        """Serialise the whole tree (used for bootstrap transfers)."""
        nodes = []
        for node in self.root.iter_subtree():
            if node is self.root:
                continue
            parent_id = node.parent.node_id  # type: ignore[union-attr]
            nodes.append({
                "id": node.node_id,
                "parent": parent_id,
                **node_to_wire(node),
            })
        return {"name": self.name, "nodes": nodes}

    @classmethod
    def from_wire(cls, payload: dict) -> SceneTree:
        tree = cls(name=str(payload.get("name", "scene")))
        for entry in payload.get("nodes", []):
            parent_id = int(entry["parent"])
            parent = tree.root if parent_id == tree.root.node_id else tree.node(
                parent_id)
            node = node_from_wire(entry)
            parent.add_child(node)
            tree._register(node, int(entry["id"]))
        return tree

    def __repr__(self) -> str:
        return (f"SceneTree(name={self.name!r}, nodes={len(self)}, "
                f"polygons={self.total_polygons()})")
