"""Seeded chaos suites: whole sessions under scripted fault schedules.

Each scenario drives the full stack — testbed, heartbeats, retries,
recovery — from one seed and asserts the system invariants:

- frames keep arriving throughout the schedule;
- after recovery, every scene node is owned by exactly one live service;
- data-service failover loses no updates;
- the same seed replays the same story.
"""

import json
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.network.faults import FaultInjector
from repro.render.camera import Camera
from repro.scenegraph.nodes import GroupNode, MeshNode
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import AddNode, SetProperty
from repro.services.clients import ThinClient
from repro.services.container import ServiceContainer
from repro.services.data_service import DataService
from repro.services.retry import RetryPolicy
from repro.testbed import build_testbed

THREE_HOSTS = ("onyx", "v880z", "centrino")


def build_session(tb, n_meshes=6, mesh_size=6000, hosts=THREE_HOSTS,
                  spread=True):
    """A collaborative session with every host holding part of the scene."""
    tree = SceneTree("chaos")
    for i in range(n_meshes):
        tree.add(MeshNode(skeleton(mesh_size).normalized(), name=f"m{i}"))
    tb.publish_tree("chaos", tree)
    cs = CollaborativeSession(tb.data_service, "chaos",
                              recruiter=tb.recruiter())
    for host in hosts:
        cs.connect(tb.render_service(host))
    cs.place_dataset()
    if spread:
        # guarantee all three hold work, whatever the scheduler decided
        services = [tb.render_service(h) for h in hosts]
        holders = [s for s in services if cs.share_of(s)]
        for starved in (s for s in services if not cs.share_of(s)):
            donor = max(holders, key=lambda s: len(cs.share_of(s)))
            nid = next(iter(cs.share_of(donor)))
            cs.reassign_nodes(donor, starved, [nid])
    return cs


def owned_nodes(cs):
    """Every node id owned by some attachment, asserting exactly-once."""
    owned = set()
    for service in cs.render_services:
        share = cs.share_of(service)
        assert not (share & owned), "node owned by two services"
        owned |= share
    return owned


class TestKillOneOfThree:
    """The acceptance scenario: one of three render services dies
    mid-session; the session must finish with every node reassigned and
    clean frames."""

    def run_scenario(self, seed):
        tb = build_testbed(render_hosts=THREE_HOSTS)
        inj = FaultInjector(tb.network, seed=seed)
        cs = build_session(tb)
        cs.enable_fault_tolerance(heartbeat_interval=0.25,
                                  suspect_after=1.0, dead_after=3.0)
        nodes_before = set(owned_nodes(cs))
        victim = tb.render_service("v880z")
        assert cs.share_of(victim)

        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        sim = tb.network.sim
        start = sim.now
        inj.schedule_crash(at=start + 2.0, host="v880z")

        frames = []
        # a frame every simulated second, across the crash and recovery
        for tick in range(1, 9):
            sim.run_until(start + tick)
            fb, _ = cs.render_composite(cam, 64, 64)
            frames.append((sim.now, cs.last_frame_degraded, fb))
        return tb, cs, victim, nodes_before, frames

    def test_session_completes_with_full_reassignment(self):
        tb, cs, victim, nodes_before, frames = self.run_scenario(seed=42)
        assert victim.name in cs.failed_services
        assert len(cs.recoveries) == 1
        report = cs.recoveries[0]
        assert report.failed == victim.name
        assert report.nodes_recovered > 0
        # every node owned by exactly one live service, nothing lost
        assert owned_nodes(cs) == nodes_before
        for service in cs.render_services:
            assert cs.service_live(service)
        assert victim.name not in [s.name for s in cs.render_services]

    def test_frames_keep_arriving_and_recover_cleanly(self):
        tb, cs, victim, nodes_before, frames = self.run_scenario(seed=42)
        assert len(frames) == 8              # one per tick, none missing
        recovery_time = cs.recoveries[0].time
        post = [degraded for t, degraded, fb in frames
                if t > recovery_time]
        assert post, "no frames after recovery"
        assert not any(post), "degraded frame after recovery"
        # post-recovery frames show actual content, not an empty buffer
        last_fb = frames[-1][2]
        assert last_fb.coverage() > 0

    def test_tiled_frames_have_no_stale_or_empty_tiles(self):
        tb, cs, victim, nodes_before, frames = self.run_scenario(seed=42)
        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        local = cs.render_services[0]
        fb, plan, _ = cs.render_tiled(cam, 96, 96, local_service=local)
        assert not cs.last_frame_degraded
        # the dead service gets no tile in the new plan
        assert victim.name not in {a.service_name for a in plan.assignments}
        # pixel-identical to a single-service render: no stale tiles
        holder = cs.render_services[0]
        reference, _, _ = cs.render_tiled(cam, 96, 96,
                                          local_service=holder)
        assert (fb.color == reference.color).all()

    def test_same_seed_same_story(self):
        _, cs1, _, _, frames1 = self.run_scenario(seed=7)
        _, cs2, _, _, frames2 = self.run_scenario(seed=7)
        assert [r.reassigned for r in cs1.recoveries] == \
               [r.reassigned for r in cs2.recoveries]
        assert [r.time for r in cs1.recoveries] == \
               [r.time for r in cs2.recoveries]
        assert [(t, d) for t, d, _ in frames1] == \
               [(t, d) for t, d, _ in frames2]


class TestDataServiceChaos:
    """Mirror failover mid-update-stream: zero lost updates."""

    def test_failover_loses_no_updates(self):
        tb = build_testbed(render_hosts=THREE_HOSTS)
        FaultInjector(tb.network, seed=3)
        cs = build_session(tb)
        mirror = DataService(
            "rave-mirror", ServiceContainer("onyx", tb.network,
                                            http_port=9750))
        tb.data_service.add_mirror(mirror)

        published = []
        next_id = 500
        for i in range(10):
            update = AddNode.of(GroupNode(name=f"u{i}"), parent_id=0,
                                node_id=next_id + i)
            if i == 7:
                # the crash lands between apply and replicate: the mirror
                # never sees this one until failover replays the trail
                tb.data_service.mirrors.remove(mirror)
                tb.data_service.publish_update("chaos", update)
                tb.data_service.mirrors.append(mirror)
            else:
                tb.data_service.publish_update("chaos", update)
            published.append(f"u{i}")

        backup = cs.handle_data_failure()
        assert backup is mirror
        names = {n.name for n in mirror.session("chaos").tree}
        assert set(published) <= names, "updates lost in failover"

        # the session keeps working against the mirror: updates flow to
        # share holders and frames still composite
        holder = next(s for s in cs.render_services if cs.share_of(s))
        nid = next(iter(cs.share_of(holder)))
        deliveries = mirror.publish_update(
            "chaos", SetProperty(node_id=nid, field_name="name",
                                 value="post-failover"))
        assert any(name.startswith(f"{holder.name}/")
                   for name in deliveries)
        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        fb, _ = cs.render_composite(cam, 64, 64)
        assert not cs.last_frame_degraded

    def test_render_service_sees_replayed_updates(self):
        """The failover-replayed tail reaches the render services' scene
        copies once they re-point at the mirror."""
        tb = build_testbed(render_hosts=THREE_HOSTS)
        cs = build_session(tb)
        mirror = DataService(
            "rave-mirror", ServiceContainer("onyx", tb.network,
                                            http_port=9751))
        tb.data_service.add_mirror(mirror)
        tb.data_service.mirrors.remove(mirror)
        tb.data_service.publish_update(
            "chaos", AddNode.of(GroupNode(name="gap"), parent_id=0,
                                node_id=700))
        tb.data_service.mirrors.append(mirror)
        cs.handle_data_failure()
        assert "gap" in {n.name for n in mirror.session("chaos").tree}
        # a post-failover update still lands on every subscriber copy
        rs = next(s for s in cs.render_services if cs.share_of(s))
        nid = next(iter(cs.share_of(rs)))
        mirror.publish_update(
            "chaos", SetProperty(node_id=nid, field_name="name",
                                 value="renamed"))
        cache = rs._scene_cache[(mirror.name, "chaos")]
        assert cache.node(nid).name == "renamed"


class TestThinClientUnderChaos:
    def test_frames_survive_link_flaps_with_retries(self):
        tb = build_testbed(render_hosts=("centrino", "athlon"))
        inj = FaultInjector(tb.network, seed=9)
        tree = SceneTree("pda")
        tree.add(MeshNode(skeleton(2000).normalized(), name="skel"))
        tb.publish_tree("pda", tree)
        rs = tb.render_service("centrino")
        rsession, _ = rs.create_render_session(tb.data_service, "pda")

        client = ThinClient(
            "pda-user", "zaurus", tb.network,
            retry_policy=RetryPolicy(max_attempts=6, timeout_s=0.5,
                                     base_backoff_s=0.25, jitter=0.2),
            retry_seed=9)
        client.attach(rs, rsession.render_session_id)

        sim = tb.network.sim
        start = sim.now
        # flap the wireless uplink repeatedly while frames stream
        for k in range(3):
            inj.schedule_flap(at=start + 0.9 + 2.0 * k,
                              a="zaurus", b="switch", down_for=0.6)
        received = 0
        for i in range(6):
            if i % 2 == 0:
                # walk into the outage so the request starts mid-flap
                sim.run_until(start + 0.95 + 2.0 * (i // 2))
            fb, timing = client.request_frame(160, 120)
            received += 1
            assert fb.coverage() >= 0       # a real frame came back
        assert received == 6                 # no frame was ever lost
        assert client.frame_retries > 0      # the flaps really bit
        assert inj.events("link-down")

    def test_partition_healing_before_lease_death_needs_no_recovery(self):
        tb = build_testbed(render_hosts=THREE_HOSTS)
        inj = FaultInjector(tb.network, seed=13)
        cs = build_session(tb)
        cs.enable_fault_tolerance(heartbeat_interval=0.25,
                                  suspect_after=1.0, dead_after=6.0)
        sim = tb.network.sim
        start = sim.now
        # isolate v880z for 2 s: long enough to suspect, not to kill
        inj.schedule_partition(at=start + 1.0, group={"v880z"},
                               heal_after=2.0, name="blip")
        suspected = []
        cs.health.on_suspect.append(suspected.append)
        sim.run_until(start + 12.0)
        assert "rs-v880z" in suspected       # the blip was noticed
        assert cs.recoveries == []           # but nobody was declared dead
        assert cs.health.state("rs-v880z") == "alive"
        assert "rs-v880z" in [s.name for s in cs.render_services]


class TestFlightRecorderUnderChaos:
    """An injected crash leaves exactly ONE post-mortem dump telling the
    whole story: the fault, the lease transitions that noticed it, and
    the recovery that reassigned the work — deterministically."""

    def run_scenario(self, seed):
        tb = build_testbed(render_hosts=THREE_HOSTS)
        with obs.observed(clock=tb.clock) as bundle:
            inj = FaultInjector(tb.network, seed=seed)
            cs = build_session(tb)
            cs.enable_fault_tolerance(heartbeat_interval=0.25,
                                      suspect_after=1.0, dead_after=3.0)
            sim = tb.network.sim
            start = sim.now
            inj.schedule_crash(at=start + 2.0, host="v880z")
            # run across the crash, the lease death, the recovery, and
            # the crash dump's full 10 s grace window
            sim.run_until(start + 15.0)
            dumps = [dict(d) for d in bundle.recorder.dumps]
            return cs, dumps

    def test_exactly_one_dump_with_the_full_story(self):
        cs, dumps = self.run_scenario(seed=11)
        # the heartbeat-death dump subsumed the deferred crash dump
        assert len(dumps) == 1
        dump = dumps[0]
        assert dump["reason"] == "heartbeat-death:rs-v880z"
        kinds = [e["kind"] for e in dump["events"]]
        assert "fault:crash" in kinds
        transitions = [e for e in dump["events"]
                       if e["kind"] == "lease-transition"]
        details = " | ".join(e["detail"] for e in transitions)
        assert "alive -> suspected" in details
        assert "suspected -> dead" in details
        assert "recovery" in kinds          # reassignments made the dump
        # causal order: the fault precedes the transitions, the
        # transitions precede the recovery
        assert kinds.index("fault:crash") \
            < kinds.index("lease-transition") \
            < kinds.index("recovery")
        # and the session really did recover
        assert "rs-v880z" not in [s.name for s in cs.render_services]
        owned_nodes(cs)

    def test_crash_without_health_monitoring_still_dumps(self):
        tb = build_testbed(render_hosts=THREE_HOSTS)
        with obs.observed(clock=tb.clock) as bundle:
            inj = FaultInjector(tb.network, seed=11)
            build_session(tb)               # no enable_fault_tolerance
            sim = tb.network.sim
            inj.schedule_crash(at=sim.now + 2.0, host="v880z")
            sim.run_until(sim.now + 15.0)   # past the 10 s grace
            assert len(bundle.recorder.dumps) == 1
            dump = bundle.recorder.dumps[0]
            assert dump["reason"] == "crash:v880z"
            assert "fault:crash" in [e["kind"] for e in dump["events"]]

    def test_same_seed_same_dump(self):
        _, first = self.run_scenario(seed=23)
        _, replay = self.run_scenario(seed=23)
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(replay, sort_keys=True)


class TestMonitorUnderServiceRestart:
    def test_counter_reset_does_not_swallow_post_restart_events(self):
        """A watched service replaced by a restarted instance resets its
        ``events_seen`` counter.  The monitor's forwarding watermark must
        start over with the new instance — otherwise everything the
        replacement emits, starting with its *first* payload, is silently
        dropped from the flight recorder."""
        from repro.obs.telemetry import ServiceTelemetry

        tb = build_testbed(monitor_host="registry-host")
        with obs.observed(clock=tb.clock) as bundle:
            original = tb.render_service("onyx").telemetry
            for i in range(5):
                original.event("render-session-created", time=float(i),
                               detail=f"pre-restart-{i}")
            sim = tb.network.sim
            sim.run_until(sim.now + 3.0)
            assert tb.monitor._forwarded["rs-onyx", original.instance] == 5

            # the host "restarts": a fresh instance under the same
            # service name, telemetry counter back at zero
            restarted = ServiceTelemetry("rs-onyx", "onyx", "render")
            restarted.event("render-session-created", time=sim.now,
                            detail="post-restart")
            tb.monitor.watch(SimpleNamespace(telemetry=restarted))
            sim.run_until(sim.now + 3.0)

            details = [e.detail for e in
                       bundle.recorder.events("telemetry:"
                                              "render-session-created")]
            assert any("post-restart" in d for d in details), \
                "the replacement's first events never reached the recorder"
            # and the watermark tracks the new instance, not the old one
            assert tb.monitor._forwarded["rs-onyx", restarted.instance] == 1


class TestMonitorCursorUnderFaults:
    """The scrape cursor is acknowledged state: it moves when a frame
    arrives, so whatever the network does to a scrape, the next one
    covers it."""

    KIND = "render-session-created"

    def forwarded(self, bundle):
        return [e.detail for e in
                bundle.recorder.events("telemetry:" + self.KIND)
                if e.detail.startswith("rs-onyx: n")]

    def test_a_dropped_scrape_loses_no_event(self):
        tb = build_testbed(monitor_host="registry-host")
        inj = FaultInjector(tb.network, seed=5)
        with obs.observed(clock=tb.clock) as bundle:
            telemetry = tb.render_service("onyx").telemetry
            key = ("rs-onyx", telemetry.instance)
            sim = tb.network.sim
            sim.run_until(sim.now + 1.5)           # first contact made
            cursor = tb.monitor._forwarded[key]
            telemetry.event(self.KIND, time=sim.now, detail="n0")
            # one tick with the link down (no route), one with every
            # frame lost in flight, then the network heals
            inj.set_link("onyx", "switch", up=False)
            sim.run_until(sim.now + 1.0)
            inj.set_link("onyx", "switch", up=True)
            inj.set_loss("onyx", "registry-host", 1.0)
            telemetry.event(self.KIND, time=sim.now, detail="n1")
            failures = tb.monitor.scrape_failures
            sim.run_until(sim.now + 1.0)
            assert tb.monitor.scrape_failures > failures
            assert tb.monitor._forwarded[key] == cursor
            assert self.forwarded(bundle) == []
            inj.set_loss("onyx", "registry-host", 0.0)
            sim.run_until(sim.now + 1.5)
            assert self.forwarded(bundle) == ["rs-onyx: n0", "rs-onyx: n1"]
            assert tb.monitor._forwarded[key] == cursor + 2
            # and the scrape after that has nothing left to ship
            sim.run_until(sim.now + 1.0)
            assert tb.monitor._latest["rs-onyx"]["events"] == []

    def test_two_scrapes_in_flight_forward_no_event_twice(self):
        tb = build_testbed(monitor_host="registry-host")
        with obs.observed(clock=tb.clock) as bundle:
            telemetry = tb.render_service("onyx").telemetry
            key = ("rs-onyx", telemetry.instance)
            sim = tb.network.sim
            sim.run_until(sim.now + 1.5)
            tb.monitor.stop()
            cursor = tb.monitor._forwarded[key]
            telemetry.event(self.KIND, time=sim.now, detail="n0")
            tb.monitor.scrape_one(telemetry)
            telemetry.event(self.KIND, time=sim.now, detail="n1")
            # the first frame has not arrived: same cursor, so the second
            # frame carries n0 again
            tb.monitor.scrape_one(telemetry)
            assert tb.monitor._forwarded[key] == cursor
            sim.run_until(sim.now + 1.0)
            assert self.forwarded(bundle) == ["rs-onyx: n0", "rs-onyx: n1"]
            assert tb.monitor._forwarded[key] == cursor + 2
