"""SceneTree: ids, traversal, transforms, subtree extraction, serialisation,
and the polygon counts nodes keep."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.meshes import Mesh
from repro.errors import SceneGraphError
from repro.scenegraph.nodes import (
    GroupNode,
    MeshNode,
    TransformNode,
)
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import (
    AddNode,
    ModifyGeometry,
    RemoveNode,
    SetProperty,
)


class TestRegistry:
    def test_root_has_id_zero(self):
        tree = SceneTree()
        assert tree.root.node_id == 0
        assert 0 in tree

    def test_ids_unique_and_stable(self, quad):
        tree = SceneTree()
        a = tree.add(GroupNode("a"))
        b = tree.add(MeshNode(quad), parent=a)
        assert a.node_id != b.node_id
        assert tree.node(b.node_id) is b

    def test_add_prebuilt_subtree_registers_all(self, quad):
        tree = SceneTree()
        group = GroupNode("g")
        group.add_child(MeshNode(quad))
        tree.add(group)
        assert len(tree) == 3  # root + group + mesh
        assert all(n.node_id >= 0 for n in tree)

    def test_remove_releases_ids(self, quad):
        tree = SceneTree()
        g = tree.add(GroupNode("g"))
        m = tree.add(MeshNode(quad), parent=g)
        mid = m.node_id
        tree.remove(g)
        assert mid not in tree
        assert m.node_id == -1

    def test_cannot_remove_root(self):
        tree = SceneTree()
        with pytest.raises(SceneGraphError):
            tree.remove(tree.root)

    def test_unknown_id_raises(self):
        with pytest.raises(SceneGraphError):
            SceneTree().node(42)

    def test_explicit_id(self):
        tree = SceneTree()
        n = tree.add(GroupNode(), node_id=77)
        assert n.node_id == 77
        with pytest.raises(SceneGraphError):
            tree.add(GroupNode(), node_id=77)

    def test_detached_parent_rejected(self):
        tree = SceneTree()
        orphan = GroupNode()
        with pytest.raises(SceneGraphError):
            tree.add(GroupNode(), parent=orphan)


class TestQueries:
    def test_find_by_name(self, simple_tree):
        assert len(simple_tree.find_by_name("quad")) == 1

    def test_geometry_nodes(self, simple_tree):
        geo = simple_tree.geometry_nodes()
        assert len(geo) == 1
        assert geo[0].name == "quad"

    def test_cameras(self, simple_tree):
        assert len(simple_tree.cameras()) == 1

    def test_total_polygons(self, simple_tree):
        assert simple_tree.total_polygons() == 2

    def test_path_to_root(self, simple_tree):
        mesh = simple_tree.find_by_name("quad")[0]
        path = simple_tree.path_to_root(mesh)
        assert path[0] is mesh
        assert path[-1] is simple_tree.root
        assert len(path) == 3


class TestWorldTransforms:
    def test_identity_for_untransformed(self, simple_tree):
        cam = simple_tree.cameras()[0]
        assert np.allclose(simple_tree.world_transform(cam), np.eye(4))

    def test_single_transform(self, simple_tree):
        mesh = simple_tree.find_by_name("quad")[0]
        w = simple_tree.world_transform(mesh)
        assert np.allclose(w[:3, 3], [1, 0, 0])

    def test_nested_transforms_compose(self, quad):
        tree = SceneTree()
        outer = tree.add(TransformNode.from_translation((1, 0, 0)))
        inner = tree.add(TransformNode.from_scale(2.0), parent=outer)
        mesh = tree.add(MeshNode(quad), parent=inner)
        w = tree.world_transform(mesh)
        # scale applied inside translation
        p = w @ np.array([1.0, 0, 0, 1.0])
        assert np.allclose(p[:3], [3, 0, 0])

    def test_placement_is_none_where_nothing_moves(self, simple_tree, quad):
        cam = simple_tree.cameras()[0]
        assert simple_tree.placement(cam) is None      # no transform above
        mesh = simple_tree.find_by_name("quad")[0]
        assert np.array_equal(simple_tree.placement(mesh),
                              simple_tree.world_transform(mesh))
        tree = SceneTree()
        there = tree.add(TransformNode.from_translation((1, 0, 0)))
        back = tree.add(TransformNode.from_translation((-1, 0, 1e-12)),
                        parent=there)
        still = tree.add(MeshNode(quad), parent=back)
        assert tree.placement(still) is None           # within tolerance
        assert tree.placement(there) is not None


class TestSubtreeExtraction:
    def test_parent_chain_preserved(self, simple_tree):
        mesh = simple_tree.find_by_name("quad")[0]
        sub = simple_tree.extract_subtree([mesh.node_id])
        names = {n.name for n in sub}
        assert "xf" in names                 # the orienting transform
        assert "quad" in names
        assert "cam" not in names            # unrelated sibling omitted

    def test_world_transform_equal_in_subset(self, simple_tree):
        """The extracted subset must orient geometry exactly as the
        original — the workload-distribution correctness contract."""
        mesh = simple_tree.find_by_name("quad")[0]
        sub = simple_tree.extract_subtree([mesh.node_id])
        sub_mesh = sub.find_by_name("quad")[0]
        assert np.allclose(simple_tree.world_transform(mesh),
                           sub.world_transform(sub_mesh))

    def test_ids_preserved(self, simple_tree):
        mesh = simple_tree.find_by_name("quad")[0]
        sub = simple_tree.extract_subtree([mesh.node_id])
        assert mesh.node_id in sub
        assert sub.node(mesh.node_id).name == "quad"

    def test_camera_rides_along(self, simple_tree):
        mesh = simple_tree.find_by_name("quad")[0]
        cam = simple_tree.cameras()[0]
        sub = simple_tree.extract_subtree([mesh.node_id], camera=cam)
        assert len(sub.cameras()) == 1

    def test_whole_subtree_included(self, quad):
        tree = SceneTree()
        g = tree.add(GroupNode("g"))
        tree.add(MeshNode(quad, name="m1"), parent=g)
        tree.add(MeshNode(quad, name="m2"), parent=g)
        sub = tree.extract_subtree([g.node_id])
        assert sub.total_polygons() == 4

    def test_extraction_is_a_copy(self, simple_tree):
        mesh = simple_tree.find_by_name("quad")[0]
        sub = simple_tree.extract_subtree([mesh.node_id])
        sub.find_by_name("quad")[0].name = "renamed"
        assert simple_tree.find_by_name("quad")  # original untouched


class TestSerialisation:
    def test_roundtrip_structure(self, simple_tree):
        back = SceneTree.from_wire(simple_tree.to_wire())
        assert len(back) == len(simple_tree)
        assert back.total_polygons() == simple_tree.total_polygons()
        assert {n.name for n in back} == {n.name for n in simple_tree}

    def test_roundtrip_preserves_ids(self, simple_tree):
        back = SceneTree.from_wire(simple_tree.to_wire())
        for node in simple_tree:
            if node is simple_tree.root:
                continue
            assert node.node_id in back
            assert back.node(node.node_id).TYPE == node.TYPE

    def test_roundtrip_transform_values(self, simple_tree):
        back = SceneTree.from_wire(simple_tree.to_wire())
        xf = back.find_by_name("xf")[0]
        assert np.allclose(xf.matrix[:3, 3], [1, 0, 0])

    def test_empty_tree(self):
        back = SceneTree.from_wire(SceneTree("empty").to_wire())
        assert len(back) == 1
        assert back.name == "empty"


def mesh_of(n_triangles: int) -> Mesh:
    return Mesh(np.eye(3, dtype=np.float32),
                np.tile(np.array([[0, 1, 2]], np.int32), (n_triangles, 1)))


def assert_counts_kept(tree: SceneTree) -> None:
    """Every node's kept subtree count equals a walk of its subtree."""
    for node in tree:
        walked = sum(n.n_polygons for n in node.iter_subtree())
        assert node.subtree_polygons == walked, node
    assert tree.total_polygons() == sum(n.n_polygons for n in tree)


#: (what, a node index, another node index, a triangle count)
scene_edits = st.lists(
    st.tuples(st.sampled_from(["add-mesh", "add-group", "remove", "move",
                               "modify", "set-faces"]),
              st.integers(0, 63), st.integers(0, 63), st.integers(0, 9)),
    max_size=30)


class TestKeptPolygonCounts:
    """``subtree_polygons`` is kept where the scene changes: attaching and
    detaching subtrees, moving one, and replacing a mesh payload."""

    @given(scene_edits)
    @settings(max_examples=150, deadline=None)
    def test_every_edit_keeps_every_count(self, edits):
        tree = SceneTree()
        for what, a, b, n in edits:
            nodes = list(tree)
            node, other = nodes[a % len(nodes)], nodes[b % len(nodes)]
            if what == "add-mesh":
                AddNode.of(MeshNode(mesh_of(n)), parent_id=node.node_id,
                           node_id=max(x.node_id for x in nodes) + 1
                           ).apply(tree)
            elif what == "add-group":
                group = GroupNode("g")
                group.add_child(MeshNode(mesh_of(n)))
                tree.add(group, parent=node)
            elif what == "remove" and node is not tree.root:
                RemoveNode(node_id=node.node_id).apply(tree)
            elif what == "move" and node is not tree.root:
                try:
                    other.add_child(node)
                except SceneGraphError:
                    pass            # into its own subtree: refused whole
            elif what == "modify" and isinstance(node, MeshNode):
                ModifyGeometry(node_id=node.node_id, fields={
                    "vertices": np.eye(3), "faces": mesh_of(n).faces},
                ).apply(tree)
            elif what == "set-faces" and isinstance(node, MeshNode):
                SetProperty(node_id=node.node_id, field_name="faces",
                            value=mesh_of(n).faces).apply(tree)
            assert_counts_kept(tree)
        copy = SceneTree.from_wire(tree.to_wire())
        assert_counts_kept(copy)
        assert copy.total_polygons() == tree.total_polygons()
        meshes = [n.node_id for n in tree.geometry_nodes()]
        assert_counts_kept(tree.extract_subtree(meshes[:2]))

    def test_a_payload_assignment_moves_every_ancestor(self, quad):
        tree = SceneTree()
        group = tree.add(GroupNode("g"))
        mesh = tree.add(MeshNode(quad), parent=group)
        mesh.mesh = mesh_of(7)
        assert (tree.root.subtree_polygons, group.subtree_polygons,
                mesh.subtree_polygons) == (7, 7, 7)
        tree.remove(group)
        assert tree.total_polygons() == 0
        assert group.subtree_polygons == 7      # the detached subtree's own
