"""Workload migration: load tracking, thresholds, fine-grain node moves."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.migration import (
    SPLIT_FLOOR,
    LoadSample,
    LoadTracker,
    WorkloadMigrator,
)
from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.obs.vocab import ALERT_OVERLOAD, ALERT_UNDERLOAD
from repro.scenegraph.nodes import GroupNode, MeshNode
from repro.scenegraph.tree import SceneTree
from repro.testbed import build_testbed
from tests.conftest import FakeService, FakeSession


class TestLoadTracker:
    def test_smoothing(self):
        t = LoadTracker()
        for i, fps in enumerate([10.0, 20.0, 30.0]):
            t.record(LoadSample(time=float(i), fps=fps, utilisation=0.5))
        assert t.smoothed_fps() == pytest.approx(20.0)
        assert t.smoothed_utilisation() == pytest.approx(0.5)

    def test_window_eviction(self):
        t = LoadTracker(window_seconds=5.0)
        t.record(LoadSample(0.0, fps=1.0, utilisation=0.1))
        t.record(LoadSample(10.0, fps=9.0, utilisation=0.9))
        assert t.n_samples == 1
        assert t.smoothed_fps() == 9.0

    def test_time_ordering_enforced(self):
        t = LoadTracker()
        t.record(LoadSample(5.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            t.record(LoadSample(4.0, 1.0, 0.5))

    def test_empty_tracker_defaults(self):
        t = LoadTracker()
        assert t.smoothed_fps() == float("inf")
        assert t.smoothed_utilisation() == 0.0
        assert not t.sustained_below_fps(100, 1.0)

    def test_sustained_needs_duration(self):
        """A single slow spike must NOT trigger ('smooth out spikes')."""
        t = LoadTracker()
        t.record(LoadSample(0.0, fps=100.0, utilisation=0.1))
        t.record(LoadSample(1.0, fps=2.0, utilisation=0.9))
        assert not t.sustained_below_fps(8.0, duration=3.0)

    def test_sustained_fires_after_duration(self):
        t = LoadTracker()
        for i in range(6):
            t.record(LoadSample(float(i), fps=2.0, utilisation=0.95))
        assert t.sustained_below_fps(8.0, duration=3.0)

    def test_recovery_resets(self):
        t = LoadTracker()
        for i in range(4):
            t.record(LoadSample(float(i), fps=2.0, utilisation=0.9))
        t.record(LoadSample(4.0, fps=50.0, utilisation=0.2))
        assert not t.sustained_below_fps(8.0, duration=3.0)

    def test_sustained_underutilisation(self):
        t = LoadTracker()
        for i in range(6):
            t.record(LoadSample(float(i), fps=60.0, utilisation=0.05))
        assert t.sustained_below_utilisation(0.3, duration=3.0)

    def test_window_spanning_exactly_duration_is_eligible(self):
        """span == duration is enough history — not a spike."""
        t = LoadTracker()
        for i in range(4):                       # t = 0..3, span == 3.0
            t.record(LoadSample(float(i), fps=2.0, utilisation=0.9))
        assert t.sustained_below_fps(8.0, duration=3.0)
        assert t.sustained_below_utilisation(0.95, duration=3.0)

    def test_sample_exactly_at_cutoff_counts(self):
        """A fast sample landing exactly ``duration`` ago must veto."""
        t = LoadTracker()
        t.record(LoadSample(0.0, fps=2.0, utilisation=0.9))
        t.record(LoadSample(2.0, fps=100.0, utilisation=0.9))  # at cutoff
        for time in (3.0, 4.0, 5.0):
            t.record(LoadSample(time, fps=2.0, utilisation=0.9))
        # cutoff = 5.0 - 3.0 = 2.0; the t=2.0 sample is inside the window
        assert not t.sustained_below_fps(8.0, duration=3.0)
        # whereas a strictly older fast sample is outside and ignored
        assert t.sustained_below_fps(8.0, duration=2.5)

    def test_fps_and_utilisation_share_one_rule(self):
        """Both detectors are the same sustained-below rule on
        different keys — identical histories give identical verdicts."""
        t = LoadTracker()
        for i in range(5):
            t.record(LoadSample(float(i), fps=2.0, utilisation=2.0))
        assert (t.sustained_below_fps(8.0, 3.0)
                == t.sustained_below_utilisation(8.0, 3.0))


class TestNodeSelection:
    """The fine-grain knapsack: 'we do not want to add 100k polygons by
    mistake'."""

    def make_tree(self, sizes):
        tree = SceneTree()
        ids = []
        for i, size in enumerate(sizes):
            node = tree.add(MeshNode(skeleton(max(600, size)).normalized(),
                                     name=f"n{i}"))
            ids.append(node.node_id)
        return tree, ids

    def test_moves_enough_work(self):
        tree, ids = self.make_tree([2000, 2000, 2000])
        sizes = {nid: tree.node(nid).n_polygons for nid in ids}
        chosen, moved = WorkloadMigrator.select_nodes(
            tree, set(ids), polygons_needed=3000,
            receiver_headroom=10**6)
        assert moved >= 3000
        assert moved == sum(sizes[nid] for nid in chosen)

    def test_never_overshoots_receiver(self):
        tree, ids = self.make_tree([5000, 5000])
        chosen, moved = WorkloadMigrator.select_nodes(
            tree, set(ids), polygons_needed=100_000,
            receiver_headroom=6000)
        assert moved <= 6000

    def test_fine_grain_rule(self):
        """Needing ~2k with a 100k node available and little headroom must
        NOT move the 100k node (the paper's 5k-vs-100k example)."""
        tree, ids = self.make_tree([100_000, 2000])
        small_polys = min(tree.node(n).n_polygons for n in ids)
        chosen, moved = WorkloadMigrator.select_nodes(
            tree, set(ids), polygons_needed=small_polys,
            receiver_headroom=small_polys * 2)
        big = max(ids, key=lambda n: tree.node(n).n_polygons)
        assert big not in chosen
        assert 0 < moved <= small_polys * 2

    def test_nothing_needed(self):
        tree, ids = self.make_tree([1000])
        chosen, moved = WorkloadMigrator.select_nodes(
            tree, set(ids), polygons_needed=0, receiver_headroom=10**6)
        assert chosen == [] and moved == 0

    def test_missing_nodes_skipped(self):
        tree, ids = self.make_tree([1000])
        chosen, _ = WorkloadMigrator.select_nodes(
            tree, {999_999}, polygons_needed=100, receiver_headroom=10**6)
        assert chosen == []


class TestMigrationPolicy:
    def build(self):
        tree = SceneTree()
        ids = []
        for i in range(6):
            node = tree.add(MeshNode(skeleton(2000).normalized(),
                                     name=f"part{i}"))
            ids.append(node.node_id)
        per_node = tree.node(ids[0]).n_polygons
        overloaded = FakeService("slow", rate=3e4,
                                 committed=per_node * 6)   # way over budget
        idle = FakeService("fast", rate=1e7, committed=0.0)
        shares = {"slow": set(ids), "fast": set()}
        session = FakeSession(tree, [overloaded, idle], shares)
        return session, overloaded, idle

    def feed_overload(self, migrator, service):
        for i in range(8):
            migrator.tracker(service.name).record(
                LoadSample(float(i), fps=2.0,
                           utilisation=service.utilisation()))

    def test_overload_triggers_move(self):
        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10, overload_fps=8.0,
                                    smoothing_seconds=3.0)
        self.feed_overload(migrator, slow)
        actions = migrator.plan(session)
        assert actions
        action = actions[0]
        assert action.source == "slow" and action.destination == "fast"
        assert action.reason == "overload"
        assert session.moves

    def test_no_move_without_sustained_overload(self):
        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10, overload_fps=8.0,
                                    smoothing_seconds=3.0)
        migrator.tracker(slow.name).record(LoadSample(0.0, 2.0, 2.0))
        assert migrator.plan(session) == []

    def test_underload_pulls_work(self):
        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10,
                                    underload_utilisation=0.3,
                                    smoothing_seconds=3.0)
        for i in range(8):
            migrator.tracker(fast.name).record(
                LoadSample(float(i), fps=200.0, utilisation=0.0))
        actions = migrator.plan(session)
        assert any(a.reason == "underload" and a.destination == "fast"
                   for a in actions)

    def test_actions_logged(self):
        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10, overload_fps=8.0,
                                    smoothing_seconds=3.0)
        self.feed_overload(migrator, slow)
        migrator.plan(session)
        assert migrator.actions

    def test_overloaded_service_with_empty_share_is_a_noop(self):
        """Overload with nothing assigned: the policy must not plan a
        move (there are no nodes to shed) and must not crash."""
        session, slow, fast = self.build()
        session._shares["slow"] = set()
        migrator = WorkloadMigrator(target_fps=10, overload_fps=8.0,
                                    smoothing_seconds=3.0)
        self.feed_overload(migrator, slow)
        assert migrator.plan(session) == []
        assert session.moves == []

    def test_recruitment_returning_nothing_is_a_noop(self):
        """No peer with headroom and a recruiter that finds nobody:
        the pass completes without actions."""
        tree = SceneTree()
        ids = []
        for i in range(3):
            node = tree.add(MeshNode(skeleton(2000).normalized(),
                                     name=f"part{i}"))
            ids.append(node.node_id)
        per_node = tree.node(ids[0]).n_polygons
        slow = FakeService("slow", rate=3e4, committed=per_node * 3)
        # the only peer is itself saturated: zero headroom
        busy = FakeService("busy", rate=3e4, committed=per_node * 3)
        session = FakeSession(tree, [slow, busy],
                              {"slow": set(ids), "busy": set()})
        session.recruiter = object()        # non-None: recruiting allowed
        recruit_calls = []
        session.recruit_more = lambda limit=None: recruit_calls.append(1) or []
        migrator = WorkloadMigrator(target_fps=10, overload_fps=8.0,
                                    smoothing_seconds=3.0)
        for i in range(8):
            migrator.tracker(slow.name).record(
                LoadSample(float(i), fps=2.0, utilisation=2.0))
        assert migrator.plan(session) == []
        assert recruit_calls            # it did try to recruit
        assert session.moves == []


class TestUnderloadConvergence:
    """Underload pulls must leave the donor above the underload threshold,
    or two lightly loaded peers ping-pong the same nodes forever."""

    def build_lightly_loaded_pair(self):
        tree = SceneTree()
        shares = {"a": set(), "b": set()}
        for i in range(8):
            node = tree.add(MeshNode(skeleton(2000).normalized(),
                                     name=f"part{i}"))
            shares["a" if i < 4 else "b"].add(node.node_id)
        per_node = tree.node(next(iter(shares["a"]))).n_polygons
        # budget at 10 fps is 1e5 each; both sit near 0.08 utilisation —
        # far below the 0.3 underload threshold
        a = FakeService("a", rate=1e6, committed=per_node * 4)
        b = FakeService("b", rate=1e6, committed=per_node * 4)
        session = FakeSession(tree, [a, b], shares)
        migrator = WorkloadMigrator(target_fps=10,
                                    underload_utilisation=0.3,
                                    smoothing_seconds=3.0)
        for service in (a, b):
            for i in range(8):
                migrator.tracker(service.name).record(
                    LoadSample(float(i), fps=200.0,
                               utilisation=service.utilisation()))
        return session, migrator

    def test_consecutive_passes_converge(self):
        session, migrator = self.build_lightly_loaded_pair()
        passes = [migrator.plan(session) for _ in range(4)]
        # a donor below the threshold has no spare to give: the first
        # pass must already be stable, and nothing may oscillate later
        assert passes == [[], [], [], []]
        assert session.moves == []

    def test_pull_never_drags_donor_below_the_threshold(self):
        tree = SceneTree()
        ids = []
        for i in range(8):
            node = tree.add(MeshNode(skeleton(2000).normalized(),
                                     name=f"part{i}"))
            ids.append(node.node_id)
        per_node = tree.node(ids[0]).n_polygons
        # donor at ~0.45 utilisation, puller idle: a pull is legitimate
        # but must stop at the donor's spare above the 0.3 floor
        donor = FakeService("donor", rate=per_node * 8 / 0.45 * 10,
                            committed=per_node * 8)
        idle = FakeService("idle", rate=1e7, committed=0.0)
        session = FakeSession(tree, [donor, idle],
                              {"donor": set(ids), "idle": set()})
        migrator = WorkloadMigrator(target_fps=10,
                                    underload_utilisation=0.3,
                                    smoothing_seconds=3.0)
        for i in range(8):
            migrator.tracker("idle").record(
                LoadSample(float(i), fps=200.0, utilisation=0.0))
        actions = migrator.plan(session)
        assert any(a.reason == "underload" and a.destination == "idle"
                   for a in actions)
        floor = 0.3 * donor.capacity().polygon_budget(10.0)
        assert donor._committed >= floor
        # and the system settles: repeated passes stop moving work
        for _ in range(3):
            migrator.plan(session)
        assert donor._committed >= floor


class TestOneDirectionPerPass:
    """Within one ``plan()`` pass a service gives work or takes it, never
    both: a shed ``a -> b`` is not undone in the same pass by ``b``
    shedding back, by ``a`` pulling back, and it bars ``a`` as a receiver
    and ``b`` as a donor for everyone else."""

    def build(self):
        session = FakeSession(SceneTree(), [], {})
        # a: one big node just over its budget, so shedding it leaves a
        # the most headroom; b: room for it, and small nodes to give back
        a = self.join(session, "a", rate=1.0, sizes=(20000,))
        a._rate = 9 * a._committed
        self.join(session, "b", rate=4e5, sizes=(600,) * 6)
        migrator = WorkloadMigrator(target_fps=10, overload_fps=8.0,
                                    underload_utilisation=0.3,
                                    smoothing_seconds=3.0)
        return session, migrator

    @staticmethod
    def join(session, name, rate, sizes=()):
        """Add service ``name`` holding one new node per skeleton size."""
        tree = session.master_tree
        ids = {tree.add(MeshNode(skeleton(size).normalized(),
                                 name=f"{name}{i}")).node_id
               for i, size in enumerate(sizes)}
        service = FakeService(name, rate=rate, committed=sum(
            tree.node(n).n_polygons for n in ids))
        session.render_services.append(service)
        session._shares[name] = ids
        return service

    @staticmethod
    def plan(session, migrator, **alerted):
        """One pass under ``{service: alert kind}``; its moves, asserted
        one-way."""
        actions = migrator.plan(session, alerts=[
            SimpleNamespace(kind=kind, service=name)
            for name, kinds in alerted.items() for kind in kinds])
        sources = {a.source for a in actions}
        assert not sources & {a.destination for a in actions}, actions
        return [(a.source, a.destination, a.reason) for a in actions]

    def test_an_overload_receiver_does_not_shed_back(self):
        session, migrator = self.build()
        assert self.plan(session, migrator,
                         a=[ALERT_OVERLOAD], b=[ALERT_OVERLOAD]) \
            == [("a", "b", ALERT_OVERLOAD)]

    def test_an_overload_donor_receives_nothing(self):
        session, migrator = self.build()
        self.join(session, "d", rate=7800, sizes=(600,))
        assert self.plan(session, migrator,
                         a=[ALERT_OVERLOAD], d=[ALERT_OVERLOAD]) \
            == [("a", "b", ALERT_OVERLOAD), ("d", "b", ALERT_OVERLOAD)]

    def test_an_overload_shed_is_not_pulled_back(self):
        session, migrator = self.build()
        assert self.plan(session, migrator,
                         a=[ALERT_OVERLOAD, ALERT_UNDERLOAD]) \
            == [("a", "b", ALERT_OVERLOAD)]

    def test_an_overload_receiver_donates_nothing(self):
        session, migrator = self.build()
        self.join(session, "c", rate=5e4)
        assert self.plan(session, migrator,
                         a=[ALERT_OVERLOAD], c=[ALERT_UNDERLOAD]) \
            == [("a", "b", ALERT_OVERLOAD)]


class TestAlertDrivenPullsSettle:
    """An under-alerted service pulls no further than the donor's own
    utilisation: pulling past it leaves the puller the more loaded one,
    and the donor — alerted too — pulls the same nodes straight back."""

    def test_the_second_pass_returns_nothing_the_first_moved(self):
        mesh = skeleton(2000).normalized()
        tree = SceneTree()
        per_node = mesh.n_triangles
        budget = 50 * per_node
        # "low" sits at 0.1 of its budget, "high" at 0.66; high's nodes
        # carry the larger ids, so a largest-first pull back takes them
        shares = {name: {tree.add(MeshNode(mesh, name=f"{name}{i}")).node_id
                         for i in range(n)}
                  for name, n in (("low", 5), ("high", 33))}
        high = FakeService("high", rate=budget * 10, committed=per_node * 33)
        low = FakeService("low", rate=budget * 10, committed=per_node * 5)
        session = FakeSession(tree, [high, low], shares)
        migrator = WorkloadMigrator(target_fps=10,
                                    underload_utilisation=0.3,
                                    smoothing_seconds=3.0)
        alerts = [SimpleNamespace(kind=ALERT_UNDERLOAD, service=name)
                  for name in ("high", "low")]
        first = migrator.plan(session, alerts=alerts)
        assert [(a.source, a.destination) for a in first] \
            == [("high", "low")]
        assert low.utilisation() <= high.utilisation()
        moved = set(first[0].node_ids)
        second = migrator.plan(session, alerts=alerts)
        assert not [a for a in second
                    if a.destination == "high" and moved & set(a.node_ids)]


class TestSplitOnDemand:
    """When every node is too big for the receiver, the move splits one
    mesh — the smallest one above the knapsack's budget — and no more."""

    @staticmethod
    def build(donor_sizes):
        """A donor holding one mesh per size and a receiver holding one
        small mesh, with 5 k polygons of headroom left on the receiver."""
        tree = SceneTree()
        donor_ids = [tree.add(MeshNode(skeleton(size).normalized(),
                                       name=f"d{i}")).node_id
                     for i, size in enumerate(donor_sizes)]
        own = tree.add(MeshNode(skeleton(600).normalized(), name="own"))
        donor = FakeService("donor", rate=1e6, committed=sum(
            tree.node(n).n_polygons for n in donor_ids))
        receiver = FakeService("receiver", rate=(own.n_polygons + 5000) * 10,
                               committed=own.n_polygons)
        session = FakeSession(tree, [donor, receiver],
                              {"donor": set(donor_ids),
                               "receiver": {own.node_id}})
        migrator = WorkloadMigrator(target_fps=10, overload_fps=8.0,
                                    smoothing_seconds=3.0)
        return session, migrator, donor_ids, own

    @staticmethod
    def shed(session, migrator):
        return migrator.plan(session, alerts=[
            SimpleNamespace(kind=ALERT_OVERLOAD, service="donor")])

    def test_the_paper_case_moves_at_most_the_headroom(self):
        """'capacity for another 5k polygons ... we do not want to add
        100k polygons by mistake'."""
        session, migrator, (big,), own = self.build([100_000])
        tree = session.master_tree
        big_polys, own_polys = tree.node(big).n_polygons, own.n_polygons
        (action,) = self.shed(session, migrator)
        assert action.destination == "receiver"
        assert 0 < action.polygons <= 5000
        assert isinstance(tree.node(big), GroupNode)
        pieces = tree.node(big).children
        assert len(pieces) == math.ceil(big_polys / 5000)
        assert all(p.n_polygons <= 5000 for p in pieces)
        assert set(action.node_ids) <= {p.node_id for p in pieces}
        # nothing but the one mesh was split
        assert tree.node(own.node_id).n_polygons == own_polys
        assert len(list(tree.geometry_nodes())) == 1 + len(pieces)

    def test_only_the_smallest_oversized_mesh_is_split(self):
        session, migrator, (big, medium), _ = self.build([100_000, 20_000])
        big_polys = session.master_tree.node(big).n_polygons
        (action,) = self.shed(session, migrator)
        tree = session.master_tree
        assert isinstance(tree.node(big), MeshNode)
        assert tree.node(big).n_polygons == big_polys
        assert isinstance(tree.node(medium), GroupNode)
        assert 0 < action.polygons <= 5000

    def test_a_budget_under_the_floor_splits_nothing(self):
        session, migrator, (big,), own = self.build([100_000])
        floor = SPLIT_FLOOR * 1e6 / 10
        receiver = session.render_services[1]
        receiver._rate = (own.n_polygons + 2 * floor - 1) * 10
        nodes = len(session.master_tree)
        assert self.shed(session, migrator) == []
        assert len(session.master_tree) == nodes
        assert session.moves == []


_MESHES = {}


def _mesh(size):
    if size not in _MESHES:
        _MESHES[size] = skeleton(size).normalized()
    return _MESHES[size]


_ALERTS = st.sampled_from([(), (ALERT_OVERLOAD,), (ALERT_UNDERLOAD,),
                           (ALERT_OVERLOAD, ALERT_UNDERLOAD)])
_HOSTS = ("centrino", "athlon", "onyx")


class TestSplitBound:
    """After any sequence of load samples and alerts, migration splits
    keep the master tree bounded: every piece a split creates holds at
    least the split floor of some donor's budget, so the geometry nodes
    number at most the placed ones plus total polygons / that floor."""

    @settings(max_examples=30, deadline=None)
    @example(sizes=[6000, 6000, 6000], target_fps=1500,
             steps=[(1.0, ((), (), (ALERT_UNDERLOAD,)))])
    @given(sizes=st.lists(st.sampled_from([600, 2000, 6000]),
                          min_size=1, max_size=3),
           target_fps=st.sampled_from([600, 1500]),
           steps=st.lists(st.tuples(st.floats(1.0, 60.0),
                                    st.tuples(_ALERTS, _ALERTS, _ALERTS)),
                          min_size=1, max_size=6))
    def test_migration_splits_stay_above_the_floor(self, sizes, target_fps,
                                                   steps):
        tb = build_testbed()
        tree = SceneTree("bounded")
        for i, size in enumerate(sizes):
            tree.add(MeshNode(_mesh(size), name=f"m{i}"))
        tb.publish_tree("bounded", tree)
        cs = CollaborativeSession(tb.data_service, "bounded",
                                  target_fps=target_fps)
        services = [tb.render_service(host) for host in _HOSTS]
        for service in services:
            cs.connect(service)
        cs.place_dataset()
        tree = cs.master_tree
        placed = {n.node_id for n in tree.geometry_nodes()}
        total = sum(n.n_polygons for n in tree.geometry_nodes())
        floor = min(max(1, math.ceil(
            SPLIT_FLOOR * s.capacity().polygon_budget(cs.target_fps)))
            for s in services)
        for t, (fps, kinds) in enumerate(steps):
            for service in services:
                cs.migrator.record_frame(service, float(t), fps)
            cs.rebalance(alerts=[
                SimpleNamespace(kind=kind, service=service.name)
                for service, alerted in zip(services, kinds)
                for kind in alerted])
            geometry = list(tree.geometry_nodes())
            assert len(geometry) <= len(placed) + total // floor
            assert all(n.n_polygons >= floor for n in geometry
                       if n.node_id not in placed)
            # every geometry node is still owned by exactly one service
            owned = [nid for s in services for nid in cs.share_of(s)]
            assert sorted(owned) == sorted(n.node_id for n in geometry)
