"""Workload migration: sustained thresholds, fine-grain node moves."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.migration import SPLIT_FLOOR, WorkloadMigrator
from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.obs.rules import AlertRule, RuleEngine
from repro.obs.vocab import ALERT_OVERLOAD, ALERT_UNDERLOAD
from repro.scenegraph.nodes import GroupNode, MeshNode
from repro.scenegraph.tree import SceneTree
from repro.testbed import build_testbed
from tests.conftest import FakeService, FakeSession, load_alerts


def _rule(metric="rave_rs_fps", below=8.0, duration=3.0,
          kind=ALERT_OVERLOAD):
    return AlertRule(name=f"{metric}-below", metric=metric, kind=kind,
                     below=below, for_seconds=duration)


def _fires(engine, service="rs"):
    """The rule names firing for ``service``."""
    return {a.rule for a in engine.firing() if a.service == service}


class TestLoadTracker:
    """The migrator's load tracking is the monitor's :class:`RuleEngine`:
    a rule fires only when the window spans its duration and every
    sample in the trailing duration violates (paper §3.2.7, "for a given
    amount of time, to smooth out spikes")."""

    @staticmethod
    def engine(*samples, duration=3.0, window_seconds=None):
        """A one-rule engine (fps below 8) fed ``(time, fps)`` samples."""
        engine = RuleEngine([_rule(duration=duration)],
                            window_seconds=window_seconds)
        for time, fps in samples:
            engine.observe("rs", time, {"rave_rs_fps": fps})
        return engine

    def test_smoothing(self):
        """Samples that dip below the threshold and recover never fire,
        and a sustained run reports its window and latest value."""
        flapping = self.engine(*[(float(i), (2.0, 20.0)[i % 2])
                                 for i in range(12)])
        assert flapping.firing() == []
        (alert,) = self.engine(*[(float(i), 2.0 + i / 10)
                                 for i in range(6)]).firing()
        assert (alert.since, alert.last_time) == (2.0, 5.0)
        assert alert.value == pytest.approx(2.5)

    def test_window_eviction(self):
        """A sample older than the window no longer counts as history."""
        engine = self.engine((0.0, 1.0), (10.0, 1.0), window_seconds=5.0)
        assert engine.firing() == []          # span 0: the t=0 one is gone
        engine.observe("rs", 13.0, {"rave_rs_fps": 1.0})
        assert _fires(engine) == {"rave_rs_fps-below"}

    def test_time_ordering_enforced(self):
        engine = self.engine((5.0, 1.0))
        with pytest.raises(ValueError):
            engine.observe("rs", 4.0, {"rave_rs_fps": 1.0})

    def test_empty_tracker_defaults(self):
        """No history never fires, nor does a value the rule ignores."""
        engine = RuleEngine()
        assert engine.firing() == []
        for i in range(6):
            engine.observe("rs", float(i), {"cpu_load": 0.0})
        assert engine.firing() == []

    def test_sustained_needs_duration(self):
        """A single slow spike must NOT trigger ('smooth out spikes')."""
        assert self.engine((0.0, 100.0), (1.0, 2.0)).firing() == []

    def test_sustained_fires_after_duration(self):
        engine = self.engine(*[(float(i), 2.0) for i in range(6)])
        assert _fires(engine) == {"rave_rs_fps-below"}

    def test_recovery_resets(self):
        engine = self.engine(*[(float(i), 2.0) for i in range(4)],
                             (4.0, 50.0))
        assert engine.firing() == []

    def test_sustained_underutilisation(self):
        """The default rules: sustained low utilisation is an underload
        alert, and nothing else fires while the frame rate is healthy."""
        engine = RuleEngine()
        for i in range(6):
            engine.observe("rs", float(i), {"rave_rs_fps": 60.0,
                                            "rave_rs_utilisation": 0.05})
        assert [a.kind for a in engine.firing()] == [ALERT_UNDERLOAD]

    def test_window_spanning_exactly_duration_is_eligible(self):
        """span == duration is enough history — not a spike."""
        engine = self.engine(*[(float(i), 2.0) for i in range(4)])
        assert _fires(engine) == {"rave_rs_fps-below"}

    def test_sample_exactly_at_cutoff_counts(self):
        """A fast sample landing exactly ``duration`` ago must veto."""
        samples = [(0.0, 2.0), (2.0, 100.0), (3.0, 2.0), (4.0, 2.0),
                   (5.0, 2.0)]
        # cutoff = 5.0 - 3.0 = 2.0; the t=2.0 sample is inside the window
        assert self.engine(*samples).firing() == []
        # whereas a strictly older fast sample is outside and ignored
        assert _fires(self.engine(*samples, duration=2.5)) \
            == {"rave_rs_fps-below"}

    def test_fps_and_utilisation_share_one_rule(self):
        """The default overload and underload rules are the same
        sustained-below rule on different gauges — histories that
        violate both give identical verdicts at every step."""
        engine = RuleEngine()
        for i in range(8):
            low = i != 2
            engine.observe("rs", float(i), {
                "rave_rs_fps": 2.0 if low else 20.0,
                "rave_rs_utilisation": 0.1 if low else 0.9})
            kinds = [a.kind for a in engine.firing()]
            assert kinds in ([], [ALERT_OVERLOAD, ALERT_UNDERLOAD])

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(
               st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 11.0]),
               st.sampled_from(["a", "b"]),
               st.sampled_from([1.0, 7.5, 8.0, 30.0]),
               st.sampled_from([0.1, 0.3, 0.6])), max_size=24),
           duration=st.sampled_from([0.0, 0.5, 1.0, 3.0, 5.0]),
           window=st.sampled_from([None, 5.0, 10.0, 15.0]))
    def test_firing_matches_a_brute_force_reference(self, steps, duration,
                                                    window):
        """For any time-ordered samples, a rule fires for a service iff
        some sample inside the window lies at least ``duration`` before
        that service's latest one, and every sample in the trailing
        ``duration`` violates.  Times are dyadic, so sums are exact."""
        rules = [_rule(duration=duration),
                 _rule(metric="rave_rs_utilisation", below=0.3,
                       duration=duration, kind=ALERT_UNDERLOAD)]
        engine = RuleEngine(rules, window_seconds=window)
        seen = {"a": [], "b": []}
        now = 0.0
        for dt, service, fps, utilisation in steps:
            now += dt
            values = {"rave_rs_fps": fps, "rave_rs_utilisation": utilisation}
            engine.observe(service, now, values)
            seen[service].append((now, values))
        span = engine.window_seconds
        expected = set()
        for service, samples in seen.items():
            if not samples:
                continue
            last = samples[-1][0]
            kept = [(t, v) for t, v in samples if t >= last - span]
            for rule in rules:
                if (any(t <= last - duration for t, _ in kept)
                        and all(v[rule.metric] < rule.below
                                for t, v in kept if t >= last - duration)):
                    expected.add((rule.name, service))
        assert {(a.rule, a.service) for a in engine.firing()} == expected

    @staticmethod
    def walked_firing(engine):
        """``RuleEngine.firing()`` as it was when every call walked every
        sample of every history, kept as the reference."""
        def sustained(rule, history):
            if not history:
                return None
            span = history[-1][0] - history[0][0]
            if span < rule.for_seconds:
                return None
            cutoff = history[-1][0] - rule.for_seconds
            tail = [(t, v) for t, v in history if t >= cutoff]
            if not all(rule.violates(v) for _, v in tail):
                return None
            return tail[0][0], history[-1][0], history[-1][1]

        alerts = []
        for (rule_name, service), history in sorted(engine._history.items()):
            rule = next(r for r in engine.rules if r.name == rule_name)
            hit = sustained(rule, history)
            if hit is not None:
                alerts.append((rule.name, rule.kind, service, *hit,
                               rule.severity))
        return alerts

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(
               st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 11.0]),
               st.sampled_from(["a", "b", "forget a"]),
               st.sampled_from([1.0, 8.0, 30.0, math.nan, math.inf]),
               st.sampled_from([0.1, 0.3, math.nan])), max_size=30),
           duration=st.sampled_from([0.0, 0.5, 2.0, 3.0, 5.0]),
           window=st.sampled_from([None, 1.0, 5.0, 10.0]))
    @example(steps=[(0.0, "a", 1.0, 0.1), (2.0, "a", 30.0, 0.1),
                    (1.0, "a", 1.0, 0.1), (0.0, "a", 1.0, 0.1),
                    (2.0, "a", 1.0, 0.1)], duration=3.0, window=None)
    def test_firing_equals_the_full_walk(self, steps, duration, window):
        """Tied times, a sample exactly on the cutoff, NaN values and
        ``forget``: at every step ``firing()`` is the alert list the
        full walk of every history gives."""
        rules = [_rule(duration=duration),
                 _rule(metric="rave_rs_utilisation", below=0.3,
                       duration=duration + 1.0, kind=ALERT_UNDERLOAD),
                 AlertRule(name="fps-above", metric="rave_rs_fps",
                           kind="custom", above=10.0, for_seconds=duration)]
        engine = RuleEngine(rules, window_seconds=window)
        now = 0.0
        for dt, service, fps, utilisation in steps:
            now += dt
            if service == "forget a":
                engine.forget("a")
            else:
                engine.observe(service, now, {
                    "rave_rs_fps": fps, "rave_rs_utilisation": utilisation})
            assert [(a.rule, a.kind, a.service, a.since, a.last_time,
                     a.value, a.severity) for a in engine.firing()] \
                == self.walked_firing(engine)


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

    def test_overload_triggers_move(self):
        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10)
        actions = migrator.plan(session, load_alerts(slow, fps=2.0))
        assert actions
        action = actions[0]
        assert action.source == "slow" and action.destination == "fast"
        assert action.reason == "overload"
        assert session.moves

    def test_no_move_without_sustained_overload(self):
        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10)
        alerts = load_alerts(slow, fps=2.0, utilisation=2.0, samples=1)
        assert alerts == []
        assert migrator.plan(session, alerts) == []

    def test_underload_pulls_work(self):
        session, slow, fast = self.build()
        migrator = WorkloadMigrator(target_fps=10)
        actions = migrator.plan(session, load_alerts(fast, fps=200.0))
        assert any(a.reason == "underload" and a.destination == "fast"
                   for a in actions)

    def test_overloaded_service_with_empty_share_is_a_noop(self):
        """Overload with nothing assigned: the policy must not plan a
        move (there are no nodes to shed) and must not crash."""
        session, slow, fast = self.build()
        session._shares["slow"] = set()
        migrator = WorkloadMigrator(target_fps=10)
        assert migrator.plan(session, load_alerts(slow, fps=2.0)) == []
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
        migrator = WorkloadMigrator(target_fps=10)
        alerts = load_alerts(slow, fps=2.0, utilisation=2.0)
        assert migrator.plan(session, alerts) == []
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
        return session, load_alerts(a, b, fps=200.0)

    def test_consecutive_passes_converge(self):
        session, alerts = self.build_lightly_loaded_pair()
        migrator = WorkloadMigrator(target_fps=10)
        passes = [migrator.plan(session, alerts) for _ in range(4)]
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
        migrator = WorkloadMigrator(target_fps=10)
        alerts = load_alerts(idle, fps=200.0)
        actions = migrator.plan(session, alerts)
        assert any(a.reason == "underload" and a.destination == "idle"
                   for a in actions)
        floor = 0.3 * donor.capacity().polygon_budget(10.0)
        assert donor._committed >= floor
        # and the system settles: repeated passes stop moving work
        for _ in range(3):
            migrator.plan(session, alerts)
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
        return session, WorkloadMigrator(target_fps=10)

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
        migrator = WorkloadMigrator(target_fps=10)
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
        migrator = WorkloadMigrator(target_fps=10)
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
        engine = RuleEngine()
        for t, (fps, kinds) in enumerate(steps):
            for service in services:
                engine.observe(service.name, float(t), {
                    "rave_rs_fps": fps,
                    "rave_rs_utilisation": service.utilisation()})
            cs.rebalance(engine.firing() + [
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
