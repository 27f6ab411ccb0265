"""The scheduler (placement + refusal) and the two distributors."""

import pytest

from repro.core.cost import NodeCost, tree_cost
from repro.core.distribution import (
    DatasetDistributor,
    FramebufferDistributor,
    explode_mesh_node,
)
from repro.core.scheduler import RenderServiceScheduler
from repro.data.generators import galleon, skeleton
from repro.errors import InsufficientResources, SceneGraphError
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree


@pytest.fixture
def pool(testbed):
    return [testbed.render_service(h)
            for h in ("centrino", "athlon", "onyx", "xeon", "v880z")]


class TestScheduler:
    def test_single_placement_when_it_fits(self, testbed, pool):
        sched = RenderServiceScheduler(testbed.data_service, target_fps=10)
        placement = sched.place(NodeCost(polygons=100_000), pool)
        assert placement.mode == "single"
        assert len(placement.assignments) == 1

    def test_best_fit_prefers_smallest_sufficient(self, testbed, pool):
        """Small datasets must not hog the Onyx/Xeon."""
        sched = RenderServiceScheduler(testbed.data_service, target_fps=10)
        placement = sched.place(NodeCost(polygons=100_000), pool)
        chosen = placement.assignments[0].service.name
        assert chosen == "rs-centrino"      # smallest polygon budget

    def test_distributed_when_too_big_for_one(self, testbed, pool):
        sched = RenderServiceScheduler(testbed.data_service, target_fps=10)
        # 5M polygons: largest single budget is xeon's 4M
        placement = sched.place(NodeCost(polygons=5_000_000), pool)
        assert placement.mode == "dataset-distributed"
        assert placement.total_polygons == 5_000_000
        assert len(placement.assignments) >= 2

    def test_distribution_respects_headroom(self, testbed, pool):
        sched = RenderServiceScheduler(testbed.data_service, target_fps=10)
        placement = sched.place(NodeCost(polygons=5_000_000), pool)
        for a in placement.assignments:
            assert a.polygons <= a.report.headroom(10) + 1

    def test_refusal_with_explanation(self, testbed, pool):
        """The paper's refusal path: explanatory error message."""
        sched = RenderServiceScheduler(testbed.data_service, target_fps=10)
        with pytest.raises(InsufficientResources) as info:
            sched.place(NodeCost(polygons=10**9), pool)
        err = info.value
        assert err.required == 10**9
        assert err.available > 0
        assert "polygons" in str(err)

    def test_recruitment_rescues_placement(self, testbed):
        """With only the PDA-adjacent laptop connected, a big dataset
        forces a UDDI recruitment pass."""
        recruiter = testbed.recruiter()
        sched = RenderServiceScheduler(testbed.data_service, target_fps=10,
                                       recruiter=recruiter)
        only = [testbed.render_service("centrino")]
        placement = sched.place(NodeCost(polygons=3_000_000), only)
        assert placement.recruited
        assert placement.total_polygons == 3_000_000

    def test_volume_dataset_needs_volume_service(self, testbed, pool):
        sched = RenderServiceScheduler(testbed.data_service, target_fps=10)
        cost = NodeCost(polygons=1000, voxels=50_000)
        placement = sched.place(cost, pool)
        for a in placement.assignments:
            assert a.report.capacity.volume_support

    def test_zero_cost_rejected(self, testbed, pool):
        sched = RenderServiceScheduler(testbed.data_service)
        with pytest.raises(ValueError):
            sched.place(NodeCost(), pool)


class TestDatasetDistributor:
    def big_tree(self, n=60_000):
        tree = SceneTree("big")
        tree.add(MeshNode(skeleton(n).normalized(), name="skel"))
        return tree

    def test_plan_respects_budgets(self):
        tree = self.big_tree()
        total = tree_cost(tree).polygons
        budgets = {"a": total * 0.6, "b": total * 0.6}
        plan = DatasetDistributor(max_grain_polygons=5_000).plan(tree,
                                                                 budgets)
        for name, cost in plan.costs.items():
            assert cost.polygons <= budgets[name] + 1

    def test_plan_covers_everything(self):
        tree = self.big_tree()
        total = tree_cost(tree).polygons
        plan = DatasetDistributor(max_grain_polygons=5_000).plan(
            tree, {"a": total, "b": total})
        assert sum(c.polygons for c in plan.costs.values()) == \
            tree_cost(tree).polygons  # tree re-measured after explosion

    def test_oversized_mesh_exploded(self):
        tree = self.big_tree()
        before = len(list(tree.geometry_nodes()))
        plan = DatasetDistributor(max_grain_polygons=5_000).plan(
            tree, {"a": 1e9, "b": 1e9})
        leaves = list(tree.geometry_nodes())
        assert len(leaves) > before     # the 60k mesh had to be split
        assert all(n.n_polygons <= 5_000 for n in leaves)
        assert set().union(*plan.shares.values()) \
            == {n.node_id for n in leaves}

    def test_impossible_budgets_rejected(self):
        tree = self.big_tree()
        with pytest.raises(SceneGraphError):
            DatasetDistributor().plan(tree, {"a": 10.0})

    def test_no_services_rejected(self):
        with pytest.raises(ValueError):
            DatasetDistributor().plan(SceneTree(), {})

    def test_subtree_for_renders_assigned_share(self):
        """Extracted subtrees contain exactly the assigned polygons."""
        tree = self.big_tree(20_000)
        total = tree_cost(tree).polygons
        dist = DatasetDistributor(max_grain_polygons=2_000)
        plan = dist.plan(tree, {"a": total * 0.55, "b": total * 0.55})
        got = 0
        for name in ("a", "b"):
            sub = tree.extract_subtree(sorted(plan.share_of(name)))
            assert sub.total_polygons() == plan.costs[name].polygons
            got += sub.total_polygons()
        assert got == tree_cost(tree).polygons

    def test_explode_preserves_geometry(self, quad):
        tree = SceneTree()
        big = tree.add(MeshNode(galleon().normalized(), name="ship"))
        original_id = big.node_id
        before = tree.total_polygons()
        new_ids = explode_mesh_node(tree, original_id, 4)
        assert len(new_ids) == 4
        assert tree.total_polygons() == before
        # the replacement group keeps the original id
        assert original_id in tree
        assert tree.node(original_id).TYPE == "group"

    def test_explode_non_mesh_rejected(self, simple_tree):
        cam = simple_tree.cameras()[0]
        with pytest.raises(SceneGraphError):
            explode_mesh_node(simple_tree, cam.node_id, 2)

    def test_explode_one_part_noop(self):
        tree = SceneTree()
        m = tree.add(MeshNode(galleon()))
        assert explode_mesh_node(tree, m.node_id, 1) == [m.node_id]


class TestFramebufferDistributor:
    def test_tiles_cover_target(self):
        from repro.render.compositor import check_tiling

        plan = FramebufferDistributor().plan(
            200, 200, "local", {"a": 1.0, "b": 2.0})
        check_tiling(200, 200, [a.tile for a in plan.assignments])

    def test_local_tile_first(self):
        plan = FramebufferDistributor().plan(200, 200, "local", {"a": 1.0})
        assert plan.assignments[0].local
        assert plan.assignments[0].service_name == "local"
        assert plan.assignments[0].tile.x0 == 0

    def test_capacity_proportional_widths(self):
        plan = FramebufferDistributor().plan(
            300, 100, "local", {"fast": 3.0, "slow": 1.0},
            local_share=1.0)
        widths = {a.service_name: a.tile.width for a in plan.assignments}
        assert widths["fast"] > widths["slow"]
        assert widths["fast"] == pytest.approx(3 * widths["slow"],
                                               rel=0.2)

    def test_no_assistants_single_tile(self):
        plan = FramebufferDistributor().plan(100, 100, "local", {})
        assert len(plan.assignments) == 1
        assert plan.assignments[0].tile.width == 100

    def test_too_many_assistants_rejected(self):
        with pytest.raises(ValueError):
            FramebufferDistributor().plan(
                4, 4, "local", {f"s{i}": 1.0 for i in range(10)})

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            FramebufferDistributor().plan(100, 100, "l", {"a": 0.0})
