"""Load-triggered workload migration.

Paper §3.2.7: "When a render service becomes overloaded (i.e. its rendering
rate drops below a given threshold), it informs the data server.  The data
server then examines available render services to find which service has
spare capacity ... removing nodes or tiles from the overloaded service and
adding them to an alternate service. ... When a render service is
significantly underloaded (for a given amount of time, to smooth out spikes
of usage), the data service again redistributes data. ... Nodes must [be]
carefully selected to perform a fine-grain movement of work.  If an
underloaded service has capacity for another 5k polygons/sec and still
maintain its current interactive frame rate, we do not want to add 100k
polygons by mistake."

Detection is the monitoring plane's: :class:`repro.obs.rules.RuleEngine`
fires an ``overload`` / ``underload`` alert only when a threshold holds
for the rule's whole duration (the "smooth out spikes" requirement).
:class:`WorkloadMigrator` is the policy that acts on those alerts: pick a
peer with headroom, and choose the node set to move with a greedy
knapsack over per-node costs that never overshoots the receiver's
headroom (the fine-grain guarantee).  When every node is too big for
it, the move splits the donor's smallest mesh into pieces that fit
(placement's own ``explode_to_grain``), unless those pieces would fall
under :data:`SPLIT_FLOOR`; then it moves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.capacity import DEFAULT_TARGET_FPS
from repro.core.cost import node_cost
from repro.obs import active as _obs
from repro.obs.rules import DEFAULT_UNDERLOAD_UTILISATION
from repro.obs.vocab import ALERT_OVERLOAD, ALERT_UNDERLOAD, EVENT_MIGRATION

#: The smallest piece a migration split may cut, as a share of the donor's
#: polygon budget at the target frame rate: the paper's grain is "another
#: 5k polygons" on services drawing hundreds of thousands, and every piece
#: is one more node each later hand-off marshals.  An even split's pieces
#: are over half its grain, so a grain under twice the floor is refused.
SPLIT_FLOOR = 0.01

#: The least work an overload shed asks for, as a share of the
#: overloaded service's polygon budget at the target frame rate.
SHED_QUANTUM = 0.1


@dataclass(frozen=True)
class MigrationAction:
    """A planned movement of work between two render services."""

    source: str
    destination: str
    node_ids: tuple[int, ...]
    polygons: int
    reason: str          # "overload" | "underload"


def _directions(actions) -> tuple[set[str], set[str]]:
    """The services that gave and the services that took work so far."""
    return ({a.source for a in actions}, {a.destination for a in actions})


class WorkloadMigrator:
    """The data service's migration policy engine."""

    def __init__(self, target_fps: float = DEFAULT_TARGET_FPS) -> None:
        self.target_fps = target_fps

    # -- node selection (the fine-grain knapsack) -------------------------------------

    @staticmethod
    def select_nodes(tree, candidate_ids: set[int], polygons_needed: float,
                     receiver_headroom: float,
                     hard_cap: float | None = None) -> tuple[list[int], int]:
        """Choose nodes to move: total ≥ needed, never above headroom.

        Greedy largest-first up to the need, then smallest-first to top up;
        nodes that would overshoot the receiver's headroom are skipped —
        the "do not want to add 100k polygons by mistake" rule.
        ``hard_cap`` additionally bounds the total moved even below the
        smallest-node override — the donor-protection limit on underload
        pulls.  Returns (node ids, polygons moved).
        """
        if polygons_needed <= 0:
            return [], 0
        costed = []
        for nid in candidate_ids:
            if nid not in tree:
                continue
            polys = node_cost(tree.node(nid)).polygons
            if polys > 0:
                costed.append((polys, nid))
        if not costed:
            return [], 0
        # The budget tracks the need, but always admits the smallest
        # movable node (otherwise coarse scenes could never make progress)
        # and never exceeds what the receiver can absorb.
        smallest = min(p for p, _ in costed)
        budget = min(receiver_headroom,
                     max(polygons_needed * 1.5, smallest))
        if hard_cap is not None:
            budget = min(budget, hard_cap)
        costed.sort(reverse=True)
        chosen: list[int] = []
        moved = 0
        for polys, nid in costed:
            if moved >= polygons_needed:
                break
            if moved + polys > budget:
                continue
            chosen.append(nid)
            moved += polys
        return chosen, moved

    # -- the rebalancing pass ------------------------------------------------------------

    def plan(self, session, alerts,
             recruit_limit: int | None = None) -> list[MigrationAction]:
        """One policy pass over a :class:`CollaborativeSession`.

        Overloaded services shed work to the peer with the most headroom
        (recruiting via the session when nobody has spare capacity);
        underloaded services take work from the most loaded peer.  Work
        moves one way per service per pass: a service that gave work
        receives none, and one that received gives none, so one pass never
        sends the same nodes back and forth.

        ``alerts`` — the sustained ``overload`` / ``underload`` alerts
        (:class:`repro.obs.rules.Alert`) a monitor's
        :class:`~repro.obs.rules.RuleEngine` fired; only the services
        they name are overloaded or underloaded.

        ``recruit_limit`` — how many services the recruiting fallback may
        attach over the whole pass (``0``: none; ``None``: no cap).
        """
        obs = _obs()
        over_alerted = {a.service for a in alerts
                        if a.kind == ALERT_OVERLOAD}
        under_alerted = {a.service for a in alerts
                         if a.kind == ALERT_UNDERLOAD}
        actions: list[MigrationAction] = []
        services = list(session.render_services)

        for service in services:
            if service.name not in over_alerted:
                continue
            if obs.enabled:
                obs.metrics.counter("rave_migration_triggers_total",
                                    "sustained threshold crossings",
                                    kind=ALERT_OVERLOAD).inc()
            gave, took = _directions(actions)
            if service.name in took:
                continue
            # work to shed: enough to get back to the target frame time
            over = (service.committed_pps() / self.target_fps
                    - service.capacity().polygon_budget(self.target_fps))
            needed = max(over,
                         SHED_QUANTUM * service.capacity().polygon_budget(
                             self.target_fps))
            receiver = self._best_receiver(services, service, gave)
            if receiver is None and session.recruiter is not None \
                    and recruit_limit != 0:
                recruited = session.recruit_more(recruit_limit)
                if recruit_limit is not None:
                    recruit_limit -= len(recruited)
                if recruited:
                    services = list(session.render_services)
                    receiver = self._best_receiver(services, service, gave)
            if receiver is None:
                continue
            action = self._move(session, service, receiver, needed,
                                reason=ALERT_OVERLOAD)
            if action is not None:
                actions.append(action)

        for service in list(services):
            if service.name not in under_alerted:
                continue
            if obs.enabled:
                obs.metrics.counter("rave_migration_triggers_total",
                                    "sustained threshold crossings",
                                    kind=ALERT_UNDERLOAD).inc()
            gave, took = _directions(actions)
            if service.name in gave:
                continue
            donor = self._most_loaded(services, service, took)
            if donor is None:
                continue
            headroom = service.headroom(self.target_fps)
            if headroom <= 0:
                continue
            # Donating must never push the donor below the underload
            # threshold, nor leave the puller more utilised than the
            # donor: either way the next plan() pass pulls the same nodes
            # back.  The second cap solves (puller's load + x) / budget
            # == (given - x) / donor_budget for x, every load in
            # polygons at the target frame rate.
            fps = self.target_fps
            budget = service.capacity().polygon_budget(fps)
            donor_budget = donor.capacity().polygon_budget(fps)
            given = donor.committed_pps() / fps
            cap = min(given - DEFAULT_UNDERLOAD_UTILISATION * donor_budget,
                      (budget * given
                       - donor_budget * (service.committed_pps() / fps))
                      / (budget + donor_budget))
            if cap <= 0:
                continue
            action = self._move(session, donor, service,
                                polygons_needed=min(headroom * 0.5, cap),
                                reason=ALERT_UNDERLOAD, hard_cap=cap)
            if action is not None:
                actions.append(action)

        if obs.enabled and actions:
            m = obs.metrics
            data_service = getattr(session, "data_service", None)
            now = (data_service.network.sim.now
                   if data_service is not None else 0.0)
            for action in actions:
                m.counter("rave_migration_actions_total",
                          "planned work movements",
                          reason=action.reason).inc()
                m.counter("rave_migration_polygons_moved_total",
                          "polygons migrated between services"
                          ).inc(action.polygons)
                obs.recorder.note(
                    EVENT_MIGRATION, time=now,
                    detail=f"{action.source} -> {action.destination}: "
                           f"{action.polygons} polygons ({action.reason})")
        return actions

    # -- helpers ----------------------------------------------------------------------

    def _best_receiver(self, services, exclude, gave: set[str]):
        candidates = [s for s in services
                      if s is not exclude and s.name not in gave
                      and s.headroom(self.target_fps) > 0]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda s: s.headroom(self.target_fps))

    def _most_loaded(self, services, exclude, took: set[str]):
        candidates = [s for s in services
                      if s is not exclude and s.name not in took
                      and s.committed_pps() > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.utilisation())

    def _move(self, session, source, destination, polygons_needed: float,
              reason: str,
              hard_cap: float | None = None) -> MigrationAction | None:
        tree = session.master_tree
        share = session.share_of(source)
        if not share:
            return None
        headroom = destination.headroom(self.target_fps)
        node_ids, moved = self.select_nodes(
            tree, share, polygons_needed,
            receiver_headroom=headroom, hard_cap=hard_cap)
        if not node_ids:
            # Every node is above the knapsack's budget, which is then
            # min(headroom, hard_cap): split the smallest node into pieces
            # within it, unless they would fall under the floor.
            grain = int(headroom if hard_cap is None
                        else min(headroom, hard_cap))
            floor = max(1, math.ceil(SPLIT_FLOOR * (
                source.capacity().polygon_budget(self.target_fps))))
            sizes = [(tree.node(n).n_polygons, n) for n in share
                     if n in tree and tree.node(n).n_polygons]
            if sizes and grain >= 2 * floor:
                session.split_node(source, min(sizes)[1], grain)
                node_ids, moved = self.select_nodes(
                    tree, session.share_of(source), polygons_needed,
                    receiver_headroom=headroom, hard_cap=hard_cap)
        if not node_ids:
            return None
        session.reassign_nodes(source, destination, node_ids)
        return MigrationAction(
            source=source.name, destination=destination.name,
            node_ids=tuple(sorted(node_ids)), polygons=moved, reason=reason)
