"""The fault-tolerance stack, layer by layer.

Fault injection (crashes, flaps, spikes, loss, partitions), the thin
client's frame retries, heartbeat-lease failure detection, and the
session-level recovery paths — each exercised in isolation before
``test_chaos.py`` runs them together.
"""

import random

import pytest

from repro.core.health import (
    ALIVE,
    DEAD,
    SUSPECTED,
    HeartbeatMonitor,
    HeartbeatSource,
)
from repro.errors import NetworkError, ServiceError
from repro.network.clock import Simulator
from repro.network.faults import FaultInjector
from repro.network.simnet import Network
from repro.services.clients import ThinClient
from repro.services.retry import RetryPolicy


def star_network():
    """Four hosts on a switch, one extra direct link for reroute tests."""
    net = Network()
    for name in ("a", "b", "c", "d"):
        net.add_host(name)
    net.add_ethernet_segment(["a", "b", "c", "d"], "hub",
                             bandwidth_bps=100e6)
    net.add_link("a", "b", bandwidth_bps=10e6, latency_s=0.01)
    return net


class TestFaultInjectorHosts:
    def test_crash_stops_routing(self):
        net = star_network()
        inj = FaultInjector(net)
        assert net.transfer_time("a", "c", 1000) > 0
        inj.crash_host("c")
        assert not net.host_is_up("c")
        with pytest.raises(NetworkError):
            net.transfer_time("a", "c", 1000)
        inj.restart_host("c")
        assert net.transfer_time("a", "c", 1000) > 0

    def test_crashed_intermediate_host_forces_reroute(self):
        net = star_network()
        inj = FaultInjector(net)
        # sever the direct a-b link: traffic goes via the hub
        net.set_link_up("a", "b", False)
        assert "hub" in net.path("a", "b")
        net.set_link_up("a", "b", True)
        inj.crash_host("hub")
        # the hub is down: only the direct link remains
        assert net.path("a", "b") == ["a", "b"]
        with pytest.raises(NetworkError):
            net.path("a", "c")

    def test_scheduled_crash_and_restart(self):
        net = star_network()
        inj = FaultInjector(net)
        inj.schedule_crash(at=1.0, host="c", restart_after=2.0)
        net.sim.run_until(1.5)
        assert not net.host_is_up("c")
        net.sim.run_until(3.5)
        assert net.host_is_up("c")
        kinds = [e.kind for e in inj.log]
        assert kinds == ["crash", "restart"]

    def test_event_log_records_times(self):
        net = star_network()
        inj = FaultInjector(net)
        inj.schedule_crash(at=2.5, host="b")
        net.sim.run_until(5.0)
        (event,) = inj.events("crash")
        assert event.time == pytest.approx(2.5)
        assert event.detail == "b"


class TestFaultInjectorLinks:
    def test_flap_schedule(self):
        net = star_network()
        inj = FaultInjector(net)
        inj.schedule_flap(at=1.0, a="a", b="b", down_for=1.0)
        net.sim.run_until(1.5)
        assert not net.link_between("a", "b").up
        net.sim.run_until(2.5)
        assert net.link_between("a", "b").up

    def test_latency_spike_and_clear(self):
        net = star_network()
        inj = FaultInjector(net)
        assert net.path("a", "c") == ["a", "hub", "c"]
        base = net.transfer_time("a", "c", 1000)
        inj.schedule_latency_spike(at=0.5, a="a", b="hub",
                                   extra_s=0.2, duration=1.0)
        net.sim.run_until(0.6)
        assert net.transfer_time("a", "c", 1000) == pytest.approx(
            base + 0.2)
        net.sim.run_until(2.0)
        assert net.transfer_time("a", "c", 1000) == pytest.approx(base)

    def test_partition_and_heal(self):
        net = star_network()
        inj = FaultInjector(net)
        severed = inj.partition({"a", "b"}, name="split")
        assert severed
        # inside each side still routes; across the cut does not
        assert net.path("a", "b")
        assert net.path("c", "d")
        with pytest.raises(NetworkError):
            net.path("a", "c")
        inj.heal("split")
        assert net.path("a", "c")

    def test_heal_restores_only_what_partition_severed(self):
        net = star_network()
        inj = FaultInjector(net)
        net.set_link_up("a", "b", False)     # independently down
        inj.partition({"a"}, name="iso")
        inj.heal("iso")
        assert not net.link_between("a", "b").up   # stays down


class TestFaultInjectorLoss:
    def test_certain_loss_drops_transfer(self):
        net = star_network()
        inj = FaultInjector(net, seed=1)
        inj.set_loss("a", "c", 1.0)
        outcomes = []
        net.send("a", "c", 10_000,
                 on_complete=lambda r: outcomes.append("ok"),
                 on_drop=lambda r: outcomes.append("drop"))
        net.sim.run()
        assert outcomes == ["drop"]
        assert inj.transfers_lost == 1

    def test_zero_loss_never_drops(self):
        net = star_network()
        FaultInjector(net, seed=1)
        outcomes = []
        for _ in range(20):
            net.send("a", "c", 1000,
                     on_complete=lambda r: outcomes.append("ok"),
                     on_drop=lambda r: outcomes.append("drop"))
        net.sim.run()
        assert outcomes == ["ok"] * 20

    def test_seeded_loss_is_reproducible(self):
        def run(seed):
            net = star_network()
            inj = FaultInjector(net, seed=seed)
            inj.set_default_loss(0.5)
            return [inj.roll_loss("a", "c") for _ in range(32)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_dropped_transfer_still_occupies_links(self):
        net = star_network()
        inj = FaultInjector(net, seed=1)
        inj.set_loss("a", "c", 1.0)
        record = net.send("a", "c", 10_000)
        assert record.dropped
        assert net.link_between("a", "hub").active == 1
        net.sim.run()
        assert net.link_between("a", "hub").active == 0


class TestPathCache:
    def test_repeated_path_hits_cache(self):
        net = star_network()
        p1 = net.path("a", "c")
        p2 = net.path("a", "c")
        assert p1 is p2                    # the cached list itself

    def test_link_change_invalidates(self):
        net = star_network()
        assert net.path("a", "b") == ["a", "hub", "b"]
        net.set_link_up("a", "hub", False)
        assert net.path("a", "b") == ["a", "b"]   # falls back to direct
        net.set_link_up("a", "hub", True)
        assert net.path("a", "b") == ["a", "hub", "b"]

    def test_host_change_invalidates(self):
        net = star_network()
        net.path("a", "c")
        net.set_host_up("c", False)
        with pytest.raises(NetworkError):
            net.path("a", "c")
        net.set_host_up("c", True)
        assert net.path("a", "c")


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_s=1.0, backoff_multiplier=2.0,
                             max_backoff_s=4.0, jitter=0.0)
        rng = random.Random(0)
        backoffs = [policy.backoff_seconds(i, rng) for i in (1, 2, 3, 4)]
        assert backoffs == [1.0, 2.0, 4.0, 4.0]

    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(base_backoff_s=1.0, jitter=0.25)
        values = [policy.backoff_seconds(1, random.Random(s))
                  for s in range(20)]
        assert all(0.75 <= v <= 1.25 for v in values)
        assert (policy.backoff_seconds(1, random.Random(3))
                == policy.backoff_seconds(1, random.Random(3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestThinClientRetry:
    """The one retry loop: ``ThinClient.request_frame`` under a policy.

    The PDA's wireless uplink is cut, so every attempt fails at the
    request; each failure burns the attempt timeout, then a seeded backoff.
    """

    def attached_client(self, testbed, policy, seed=0):
        from repro.data.generators import skeleton
        from repro.scenegraph.nodes import MeshNode
        from repro.scenegraph.tree import SceneTree

        tree = SceneTree("pda")
        tree.add(MeshNode(skeleton(2000).normalized(), name="skel"))
        testbed.publish_tree("pda", tree)
        rs = testbed.render_service("centrino")
        rsession, _ = rs.create_render_session(testbed.data_service, "pda")
        client = ThinClient("pda-user", "zaurus", testbed.network,
                            retry_policy=policy, retry_seed=seed)
        client.attach(rs, rsession.render_session_id)
        return client

    def expected_waits(self, policy, seed, failures):
        rng = random.Random(seed)
        return [policy.timeout_s + policy.backoff_seconds(attempt, rng)
                for attempt in range(1, failures + 1)]

    def test_events_fire_during_backoff_waits(self, small_testbed):
        """A simulator-scheduled link restoration lands mid-backoff and
        the next attempt sees it: the waits pump the event queue."""
        net = small_testbed.network
        policy = RetryPolicy(max_attempts=5, timeout_s=0.5,
                             base_backoff_s=0.5, jitter=0.0)
        client = self.attached_client(small_testbed, policy)
        net.set_link_up("zaurus", "switch", False)
        start = net.sim.now
        net.sim.schedule_at(start + 0.75,
                            lambda: net.set_link_up("zaurus", "switch", True))
        fb, timing = client.request_frame(80, 60)
        assert client.frame_retries == 1
        assert client.frames_received == 1
        assert timing.retry_seconds == pytest.approx(1.0)

    def test_exhausted_attempts_reraise_after_every_wait(self, small_testbed):
        net = small_testbed.network
        policy = RetryPolicy(max_attempts=3, timeout_s=0.5,
                             base_backoff_s=0.25, jitter=0.2)
        client = self.attached_client(small_testbed, policy, seed=7)
        net.set_link_up("zaurus", "switch", False)
        start = net.sim.now
        with pytest.raises(NetworkError):
            client.request_frame(80, 60)
        assert client.frame_retries == policy.max_attempts
        assert client.frames_received == 0
        # no wait after the last attempt: it re-raises at once
        assert net.sim.now - start == pytest.approx(
            sum(self.expected_waits(policy, 7, policy.max_attempts - 1)))

    def test_retry_seconds_is_the_clock_before_the_last_attempt(
            self, small_testbed):
        net = small_testbed.network
        policy = RetryPolicy(max_attempts=4, timeout_s=0.5,
                             base_backoff_s=0.25, jitter=0.2)
        client = self.attached_client(small_testbed, policy, seed=3)
        waits = self.expected_waits(policy, 3, 2)
        net.set_link_up("zaurus", "switch", False)
        start = net.sim.now
        # restored during the second backoff: two attempts fail
        net.sim.schedule_at(start + waits[0] + policy.timeout_s + 0.01,
                            lambda: net.set_link_up("zaurus", "switch", True))
        fb, timing = client.request_frame(80, 60)
        attempt_latency = timing.total_latency - timing.retry_seconds
        assert client.frame_retries == 2
        assert timing.retry_seconds == pytest.approx(sum(waits))
        assert timing.retry_seconds == pytest.approx(
            net.sim.now - start - attempt_latency)


class TestHeartbeatMonitor:
    def make(self, sim=None):
        sim = sim or Simulator()
        return sim, HeartbeatMonitor(sim, suspect_after=1.0,
                                     dead_after=3.0)

    def test_transitions_alive_suspected_dead(self):
        sim, mon = self.make()
        mon.watch("rs-a")
        assert mon.state("rs-a") == ALIVE
        sim.clock.advance(1.5)
        mon.poll()
        assert mon.state("rs-a") == SUSPECTED
        sim.clock.advance(2.0)
        mon.poll()
        assert mon.state("rs-a") == DEAD
        assert mon.dead_services() == ["rs-a"]

    def test_beat_recovers_suspected(self):
        sim, mon = self.make()
        recovered = []
        mon.on_recover.append(recovered.append)
        mon.watch("rs-a")
        sim.clock.advance(1.5)
        mon.poll()
        mon.beat("rs-a")
        assert mon.state("rs-a") == ALIVE
        assert recovered == ["rs-a"]

    def test_callbacks_fire_once_per_transition(self):
        sim, mon = self.make()
        suspected, dead = [], []
        mon.on_suspect.append(suspected.append)
        mon.on_dead.append(dead.append)
        mon.watch("rs-a")
        sim.clock.advance(5.0)
        mon.poll()
        mon.poll()
        mon.poll()
        assert suspected == ["rs-a"]
        assert dead == ["rs-a"]

    def test_recurring_poll_via_simulator(self):
        sim, mon = self.make()
        dead = []
        mon.on_dead.append(dead.append)
        mon.watch("rs-a")
        mon.start(period=0.5)
        sim.run_until(10.0)
        assert dead == ["rs-a"]
        mon.stop()

    def test_a_restart_inside_one_period_polls_once_per_period(self):
        sim, mon = self.make()
        mon.watch("rs-a")
        mon.start(period=0.5)
        sim.run_until(0.25)
        mon.stop()
        mon.start(period=0.5)
        sim.run_until(5.25)
        assert mon.polls == 10

    def test_invalid_thresholds_rejected(self):
        sim = Simulator()
        with pytest.raises(ServiceError):
            HeartbeatMonitor(sim, suspect_after=2.0, dead_after=1.0)


class TestHeartbeatSource:
    def test_beats_keep_service_alive(self):
        net = star_network()
        mon = HeartbeatMonitor(net.sim, suspect_after=1.0, dead_after=3.0)
        source = HeartbeatSource(monitor=mon, network=net, name="rs-a",
                                 host="a", monitor_host="c",
                                 interval=0.25).start()
        mon.start(period=0.5)
        net.sim.run_until(10.0)
        assert mon.state("rs-a") == ALIVE
        assert source.beats_sent > 0
        source.stop()
        mon.stop()

    def test_stopped_source_beats_again_after_restart(self):
        """Satellite regression: ``stop()`` then ``start()`` must beat.

        ``stop()`` parks the tick loop by raising ``_stopped``, but
        ``start()`` never cleared it — a restarted source scheduled a
        tick loop that exited on its first fire, so the service's lease
        silently died even though the service was healthy.
        """
        net = star_network()
        mon = HeartbeatMonitor(net.sim, suspect_after=1.0, dead_after=3.0)
        source = HeartbeatSource(monitor=mon, network=net, name="rs-a",
                                 host="a", monitor_host="c",
                                 interval=0.25).start()
        mon.start(period=0.5)
        net.sim.run_until(2.0)
        assert source.beats_sent > 0
        source.stop()
        baseline = source.beats_sent
        source.start()
        net.sim.run_until(6.0)
        assert source.beats_sent > baseline
        assert mon.state("rs-a") == ALIVE
        source.stop()
        mon.stop()

    def test_a_restart_inside_one_interval_beats_once_per_interval(self):
        """A restart used to leave the parked loop beating beside the
        new one: 20 beats in 5 s instead of 10."""
        net = star_network()
        mon = HeartbeatMonitor(net.sim, suspect_after=1.0, dead_after=3.0)
        source = HeartbeatSource(monitor=mon, network=net, name="rs-a",
                                 host="a", monitor_host="c",
                                 interval=0.5).start()
        net.sim.run_until(0.25)
        source.stop()
        source.start()
        net.sim.run_until(5.25)
        assert source.beats_sent == 10

    def test_crash_silences_beats_and_kills_lease(self):
        net = star_network()
        inj = FaultInjector(net)
        mon = HeartbeatMonitor(net.sim, suspect_after=1.0, dead_after=3.0)
        source = HeartbeatSource(monitor=mon, network=net, name="rs-a",
                                 host="a", monitor_host="c",
                                 interval=0.25).start()
        mon.start(period=0.5)
        inj.schedule_crash(at=2.0, host="a")
        net.sim.run_until(10.0)
        assert mon.state("rs-a") == DEAD
        assert source.beats_lost > 0
        source.stop()
        mon.stop()

    def test_restart_recovers_lease(self):
        net = star_network()
        inj = FaultInjector(net)
        mon = HeartbeatMonitor(net.sim, suspect_after=1.0, dead_after=3.0)
        HeartbeatSource(monitor=mon, network=net, name="rs-a",
                        host="a", monitor_host="c", interval=0.25).start()
        mon.start(period=0.5)
        inj.schedule_crash(at=2.0, host="a", restart_after=6.0)
        net.sim.run_until(7.0)
        assert mon.state("rs-a") == DEAD
        net.sim.run_until(12.0)
        assert mon.state("rs-a") == ALIVE


class TestDataServiceFailover:
    """The mirror-failover fix: subscribers transfer, no update is lost."""

    def build(self, testbed):
        from repro.data.generators import skeleton
        from repro.scenegraph.nodes import MeshNode
        from repro.scenegraph.tree import SceneTree
        from repro.services.container import ServiceContainer
        from repro.services.data_service import DataService

        tree = SceneTree("demo")
        tree.add(MeshNode(skeleton(2000).normalized(), name="skel"))
        testbed.publish_tree("demo", tree)
        mirror = DataService(
            "mirror", ServiceContainer("athlon", testbed.network,
                                       http_port=9901))
        return mirror

    def test_scraped_subscriber_count_is_a_recount(self, small_testbed):
        tb = small_testbed
        mirror = self.build(tb)
        tb.data_service.add_mirror(mirror)

        def check():
            for ds in (tb.data_service, mirror):
                scraped = ds.telemetry.scrape(now=0.0)["metrics"]
                assert scraped["rave_ds_subscribers"]["series"][0][
                    "value"] == sum(len(s.subscribers)
                                    for s in ds.sessions())

        check()
        tb.data_service.subscribe("demo", "ann", "athlon")
        tb.data_service.subscribe("demo", "bob", "athlon")
        check()
        tb.data_service.unsubscribe("demo", "ann")
        check()
        assert tb.data_service.failover_to("demo") is mirror
        check()
        mirror.unsubscribe("demo", "bob")
        check()
        assert mirror.telemetry.scrape(now=0.0)["metrics"][
            "rave_ds_subscribers"]["series"][0]["value"] == 0.0

    def test_subscribers_move_to_mirror(self, small_testbed):
        from repro.scenegraph.updates import SetProperty

        tb = small_testbed
        mirror = self.build(tb)
        tb.data_service.add_mirror(mirror)
        rs = tb.render_service("centrino")
        rs.create_render_session(tb.data_service, "demo")
        assert tb.data_service.session("demo").subscribers
        backup = tb.data_service.failover_to("demo")
        assert backup is mirror
        assert set(mirror.session("demo").subscribers) == set(
            tb.data_service.session("demo").subscribers)
        # updates published on the mirror reach the transferred subscriber
        node_id = next(iter(rs._scene_cache[("rave-data", "demo")])).node_id
        deliveries = mirror.publish_update(
            "demo", SetProperty(node_id=node_id, field_name="name",
                                value="after"))
        assert deliveries

    def test_late_mirror_does_not_replay_snapshot_updates(self,
                                                          small_testbed):
        """A mirror added mid-session starts from a snapshot that already
        contains every applied update; failover must not re-apply them."""
        from repro.scenegraph.nodes import GroupNode
        from repro.scenegraph.updates import AddNode

        tb = small_testbed
        mirror = self.build(tb)
        tb.data_service.publish_update(
            "demo", AddNode.of(GroupNode(name="extra"), parent_id=0,
                               node_id=900))
        tb.data_service.add_mirror(mirror)        # late: snapshot has it
        backup = tb.data_service.failover_to("demo")
        names = [n.name for n in backup.session("demo").tree]
        assert names.count("extra") == 1

    def test_missed_trail_tail_replays_on_failover(self, small_testbed):
        """Updates the mirror never saw (crash between apply and
        replicate) are replayed from the primary's audit trail."""
        from repro.scenegraph.nodes import GroupNode
        from repro.scenegraph.updates import AddNode

        tb = small_testbed
        mirror = self.build(tb)
        tb.data_service.add_mirror(mirror)
        # simulate the replication gap: detach, publish, reattach
        tb.data_service.mirrors.remove(mirror)
        tb.data_service.publish_update(
            "demo", AddNode.of(GroupNode(name="missed"), parent_id=0,
                               node_id=901))
        tb.data_service.mirrors.append(mirror)
        backup = tb.data_service.failover_to("demo")
        names = [n.name for n in backup.session("demo").tree]
        assert names.count("missed") == 1
        assert (backup.session("demo").sequence
                == tb.data_service.session("demo").sequence)


class TestSessionRecovery:
    def build(self, testbed, hosts=("onyx", "v880z", "centrino")):
        from repro.core.session import CollaborativeSession
        from repro.data.generators import skeleton
        from repro.scenegraph.nodes import MeshNode
        from repro.scenegraph.tree import SceneTree

        tree = SceneTree("big")
        for i in range(6):
            tree.add(MeshNode(skeleton(4000).normalized(), name=f"m{i}"))
        testbed.publish_tree("big", tree)
        cs = CollaborativeSession(testbed.data_service, "big",
                                  recruiter=testbed.recruiter())
        for host in hosts:
            cs.connect(testbed.render_service(host))
        cs.place_dataset()
        return cs

    def test_failure_reassigns_every_orphan(self, testbed):
        cs = self.build(testbed)
        victim = testbed.render_service("onyx")
        # make sure the victim owns something to orphan
        if not cs.share_of(victim):
            donor = next(s for s in cs.render_services if cs.share_of(s))
            nid = next(iter(cs.share_of(donor)))
            cs.reassign_nodes(donor, victim, [nid])
        before = {s.name: set(cs.share_of(s)) for s in cs.render_services}
        all_before = set().union(*before.values())
        report = cs.handle_service_failure(victim)
        assert report.failed == victim.name
        assert report.nodes_recovered == len(before[victim.name])
        after = set()
        shares = [set(cs.share_of(s)) for s in cs.render_services]
        for share in shares:
            assert not (share & after)          # owned exactly once
            after |= share
        assert after == all_before              # nothing lost

    def test_failed_service_unsubscribed_and_not_rerecruited(self, testbed):
        cs = self.build(testbed)
        victim = testbed.render_service("onyx")
        cs.handle_service_failure(victim)
        session = testbed.data_service.session("big")
        assert not any(name.startswith(f"{victim.name}/")
                       for name in session.subscribers)
        recruited = cs.recruit_more()
        assert victim.name not in [s.name for s in recruited]

    def test_failure_of_unattached_service_rejected(self, testbed):
        from repro.errors import SessionError

        cs = self.build(testbed)
        with pytest.raises(SessionError):
            cs.handle_service_failure("rs-nonexistent")

    def test_composite_skips_dead_service_and_flags_frame(self, testbed):
        from repro.render.camera import Camera

        cs = self.build(testbed)
        inj = FaultInjector(testbed.network)
        # make sure at least two services hold shares
        holder = next(s for s in cs.render_services if cs.share_of(s))
        other = next(s for s in cs.render_services if s is not holder)
        if not cs.share_of(other):
            nid = next(iter(cs.share_of(holder)))
            cs.reassign_nodes(holder, other, [nid])
        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        cs.render_composite(cam, 48, 48)
        assert not cs.last_frame_degraded
        inj.crash_host(other.host)
        fb, _ = cs.render_composite(cam, 48, 48)
        assert cs.last_frame_degraded
        assert cs.degraded_frames == 1

    def test_tiled_frame_reuses_last_good_tile(self, testbed):
        from repro.render.camera import Camera

        cs = self.build(testbed)
        inj = FaultInjector(testbed.network)
        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        local = cs.render_services[0]
        fb1, plan1, _ = cs.render_tiled(cam, 96, 96, local_service=local)
        assert not cs.last_frame_degraded
        remote = next(s for s in cs.render_services if s is not local)
        inj.crash_host(remote.host)
        fb2, plan2, _ = cs.render_tiled(cam, 96, 96, local_service=local)
        assert cs.last_frame_degraded
        # same camera, same plan shape: cached tiles make the degraded
        # frame pixel-identical to the good one — no hole, no tear
        assert (fb2.color == fb1.color).all()

    def test_tiled_hole_on_a_cold_cache_is_background(self, testbed):
        from repro.render.camera import Camera
        from repro.render.framebuffer import BACKGROUND

        cs = self.build(testbed)
        inj = FaultInjector(testbed.network)
        # looking away from the model: every rendered pixel is background
        cam = Camera.looking_at((0, 0, 5), (0, 0, 10))
        local = cs.render_services[0]
        remote = next(s for s in cs.render_services if s is not local)
        inj.crash_host(remote.host)
        fb, plan, _ = cs.render_tiled(cam, 96, 96, local_service=local)
        assert cs.last_frame_degraded
        hole = next(a.tile for a in plan.assignments
                    if a.service_name == remote.name)
        rows, cols = hole.slices
        assert (fb.color[rows, cols] == BACKGROUND).all()
        assert (fb.color == BACKGROUND).all()

    @staticmethod
    def split(cs):
        """Make sure the first two attached services both hold a share."""
        first, second = cs.render_services[:2]
        for service in (first, second):
            if not cs.share_of(service):
                donor = max(cs.render_services,
                            key=lambda s: len(cs.share_of(s)))
                cs.reassign_nodes(donor, service,
                                  [next(iter(cs.share_of(donor)))])
        return first, second

    @staticmethod
    def render(cs, mode, cam, local):
        if mode == "composite":
            _, latency = cs.render_composite(cam, 96, 96)
        else:
            _, _, latency = cs.render_tiled(cam, 96, 96, local_service=local)
        return latency

    @pytest.mark.parametrize("mode", ["composite", "tiled",
                                      "tiled-assistant-down"])
    def test_clock_advances_by_the_frame_latency(self, testbed, mode):
        """Shares overlap in simulated time: the clock advance, the
        returned latency and the frame's span chain agree."""
        from repro import obs
        from repro.render.camera import Camera

        cs = self.build(testbed)
        local, assistant = self.split(cs)
        if mode == "tiled-assistant-down":
            FaultInjector(testbed.network).crash_host(assistant.host)
        sim = testbed.network.sim
        cam = Camera.looking_at((0, 0, 5), (0, 0, 0))
        with obs.observed():
            for frame in range(2):
                start = sim.now
                latency = self.render(cs, mode.split("-")[0], cam, local)
                assert sim.now - start == latency
                chain = cs.frame_timeline()[frame]
                assert chain[0].start == start
                assert chain[-1].end - start == pytest.approx(latency,
                                                              rel=1e-12)
                assert cs.last_frame_degraded == mode.endswith("down")

    @pytest.mark.parametrize("mode", ["composite", "tiled"])
    def test_unreachable_share_is_skipped_and_flags_frame(self, testbed,
                                                          mode):
        """A share whose host stays up but has every link cut renders,
        cannot deliver, and is skipped in either mode; its branch still
        costs the render it did before the transfer failed."""
        from repro.render.camera import Camera

        cs = self.build(testbed)
        local, assistant = self.split(cs)
        FaultInjector(testbed.network).partition({assistant.host})
        frame_seconds = assistant.telemetry.registry.histogram(
            "rave_rs_frame_seconds")
        rendered = frame_seconds.sum
        sim = testbed.network.sim
        start = sim.now
        latency = self.render(cs, mode,
                              Camera.looking_at((0, 0, 5), (0, 0, 0)), local)
        assert cs.last_frame_degraded
        assert cs.degraded_frames == 1
        assert sim.now - start == latency
        assert latency >= frame_seconds.sum - rendered > 0

    def test_heartbeat_death_triggers_auto_recovery(self, testbed):
        inj = FaultInjector(testbed.network, seed=11)
        cs = self.build(testbed)
        cs.enable_fault_tolerance(heartbeat_interval=0.25,
                                  suspect_after=1.0, dead_after=3.0)
        victim = next(s for s in cs.render_services if cs.share_of(s))
        now = testbed.network.sim.now
        inj.schedule_crash(at=now + 1.0, host=victim.host)
        testbed.network.sim.run_until(now + 10.0)
        assert victim.name in cs.failed_services
        assert len(cs.recoveries) == 1
        assert victim.name not in [s.name for s in cs.render_services]

    def test_data_failure_repoints_every_attachment(self, testbed):
        from repro.scenegraph.updates import SetProperty
        from repro.services.container import ServiceContainer
        from repro.services.data_service import DataService

        cs = self.build(testbed)
        mirror = DataService(
            "mirror", ServiceContainer("athlon", testbed.network,
                                       http_port=9902))
        testbed.data_service.add_mirror(mirror)
        mirror_name = mirror.name
        services = list(cs.render_services)
        backup = cs.handle_data_failure()
        assert backup is mirror
        assert cs.data_service is mirror
        for service in services:
            assert (mirror_name, "big") in service._scene_cache
        # an update through the mirror still reaches a share holder
        holder = next(s for s in services if cs.share_of(s))
        nid = next(iter(cs.share_of(holder)))
        deliveries = mirror.publish_update(
            "big", SetProperty(node_id=nid, field_name="name",
                               value="post-failover"))
        assert any(name.startswith(f"{holder.name}/")
                   for name in deliveries)
