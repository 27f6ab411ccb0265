"""Every state gauge is pushed where its state changes.

The render service, the data service, the UDDI registry, the session
grid and the farm queue set each gauge that mirrors their own state at
the mutation, and a scrape recomputes only the values that move without
a write (the starved-job count and the pool's utilisation).  The
reference for what a scrape must read is the scrape-time collector each
owner used to register, kept below as it was, except that the grid's and
the farm's windowed rates are now the monitor's: the reference holds the
counters they are derived from to the owners' own counts instead.  The
property drives public operations on all five owners, interleaved with
scrapes at arbitrary simulated times, and rebuilds every scrape frame
from those collectors: the two must be the same bytes.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.grid import TenantQuota
from repro.core.session import CollaborativeSession
from repro.data.generators import uv_sphere
from repro.errors import RaveError
from repro.farm import RenderJob
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import flatten_metrics
from repro.render.camera import Camera
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import AddNode, RemoveNode
from repro.services.container import ServiceContainer
from repro.services.data_service import DataService
from repro.services.protocol import (
    FarmResult,
    frame_farm_result,
    frame_telemetry,
    unframe_farm_lease,
    unframe_telemetry,
)
from repro.services.uddi import AccessPoint
from repro.services.wsdl import (
    DATA_SERVICE_WSDL,
    FRAME_QUEUE_WSDL,
    MONITOR_SERVICE_WSDL,
    RENDER_SERVICE_WSDL,
)
from repro.testbed import PDA_HOST, build_testbed

# -- the reference: each owner's former scrape-time collector, as it was -------------


def render_collector(self, registry) -> None:
    """Refresh scrape-time gauges from live service state."""
    if self.reported_fps != float("inf"):
        registry.gauge("rave_rs_fps").set(self.reported_fps)
    registry.gauge("rave_rs_utilisation").set(self.utilisation())
    registry.gauge("rave_rs_committed_polygons").set(
        self.committed_polygons())
    registry.gauge("rave_rs_sessions").set(len(self._sessions))


def data_collector(self, registry) -> None:
    """Refresh scrape-time gauges from live service state."""
    registry.gauge("rave_ds_sessions").set(len(self._sessions))
    registry.gauge("rave_ds_subscribers").set(
        sum(len(s.subscribers) for s in self._sessions.values()))
    registry.gauge("rave_ds_mirrors").set(len(self.mirrors))


def uddi_collector(self, registry) -> None:
    registry.gauge("rave_uddi_businesses").set(len(self._businesses))
    registry.gauge("rave_uddi_tmodels").set(len(self._tmodels))
    registry.gauge("rave_uddi_services").set(
        sum(len(b.services) for b in self._businesses.values()))


def grid_collector(self, registry) -> None:
    registry.gauge("rave_queue_depth",
                   "admission queue depth").set(len(self._queue))
    # the rejection rate is derived by the monitor from this counter
    assert self.telemetry.registry.value(
        "rave_admission_rejects_total") == self.rejections
    registry.gauge("rave_admission_sessions",
                   "admitted sessions").set(len(self._sessions))
    registry.gauge("rave_admission_pool_utilisation",
                   "committed fraction of the pool's polygon rate"
                   ).set(self.utilisation())
    # every known tenant: one whose last session ended must read 0
    counts = dict.fromkeys(self.tenants(), 0)
    for gs in self._sessions.values():
        counts[gs.tenant] += 1
    for tenant, count in counts.items():
        registry.gauge("rave_tenant_sessions",
                       "admitted sessions per tenant",
                       tenant=tenant).set(count)


def farm_collector(self, registry) -> None:
    registry.gauge("rave_farm_queue_depth",
                   "pending frames").set(self.queue_depth())
    registry.gauge("rave_farm_active_leases",
                   "frames out on lease").set(self.active_leases())
    # the frame rate is derived by the monitor from this counter
    assert self.telemetry.registry.value(
        "rave_farm_frames_total") == self.frames_completed
    starved = self.starved_jobs()
    # (the farm:starved note that stood here is the one side effect a
    # scrape had; it is not a gauge, and it now happens at the onset)
    registry.gauge("rave_farm_starved_jobs",
                   "jobs with pending frames unserved past the "
                   "starvation threshold").set(len(starved))
    for job in self.jobs():
        registry.gauge("rave_farm_job_progress",
                       "per-job completed fraction",
                       job=job.job_id).set(job.progress)
        registry.gauge("rave_farm_job_priority",
                       "per-job scheduling priority",
                       job=job.job_id,
                       tenant=job.tenant or "-").set(job.priority)


def assert_frame_is_the_reference(owner, collector, shadow, frame):
    """``frame`` equals the frame the reference collector would have let
    the owner build: its gauge families, written into ``shadow`` (the
    gauges as the collectors left them, kept across scrapes), replace
    the scraped ones, and the registry statistics follow."""
    collector(owner, shadow)
    live = owner.telemetry.registry
    assert ({f.name for f in live.families() if f.kind == "gauge"}
            == {f.name for f in shadow.families()})
    payload = unframe_telemetry(frame)
    metrics = {**payload["metrics"], **shadow.snapshot()}
    payload["metrics"] = metrics
    payload["registry"] = {
        "families": len(metrics),
        "series": sum(len(f["series"]) for f in metrics.values()),
        "samples": sum(e["count"] if f["kind"] == "histogram" else 1
                       for f in metrics.values() for e in f["series"]),
    }
    assert frame_telemetry(payload) == frame


# -- a small world holding all five owners ----------------------------------------

HOSTS = ("centrino", "athlon")
SCENE = "scene"
WSDLS = (DATA_SERVICE_WSDL, RENDER_SERVICE_WSDL, MONITOR_SERVICE_WSDL,
         FRAME_QUEUE_WSDL)
SECONDS = (0.5, 3.0, 6.0)


def small_tree(name, sizes=(4, 5, 6)):
    tree = SceneTree(name)
    for i, nu in enumerate(sizes):
        tree.add(MeshNode(uv_sphere(nu=nu, nv=nu), name=f"m{i}"))
    return tree


class World:
    def __init__(self):
        self.tb = tb = build_testbed(
            render_hosts=HOSTS,
            farm={"starvation_after": 5.0, "lease_timeout": 4.0})
        tb.publish_tree(SCENE, small_tree(SCENE))
        self.ds = tb.data_service
        self.mirror = DataService("rave-mirror", ServiceContainer(
            "athlon", tb.network, http_port=9750))
        self.rs = [tb.render_service(h) for h in HOSTS]
        self.cs = CollaborativeSession(self.ds, SCENE, target_fps=50)
        self.grid = tb.session_grid(
            member_hosts=HOSTS, recruit=False, queue_capacity=2,
            queue_timeout=5.0,
            tenants=[TenantQuota(tenant="t0", max_sessions=2,
                                 max_share=0.8)])
        self.queue = tb.farm_queue
        self.owners = [(rs, render_collector) for rs in self.rs] + [
            (self.ds, data_collector), (self.mirror, data_collector),
            (tb.registry, uddi_collector), (self.grid, grid_collector),
            (self.queue, farm_collector)]
        self.shadows = [MetricsRegistry() for _ in self.owners]
        self.ids = itertools.count()
        self.standalone = []        # (render service, render session id)
        self.clients = []           # data-service subscriber names
        self.added = []             # node ids added by scene updates
        self.services = []          # (business key, UDDI service key)
        self.leases = []            # (lease, worker)
        #: render services holding a finite fps no scrape has read yet
        self.unscraped_fps = set()

    @property
    def now(self):
        return self.tb.network.sim.now

    # -- render services ----------------------------------------------------------

    def attached(self, a):
        rs = self.rs[a % 2]
        return rs if rs in self.cs.render_services else None

    def connect(self, a, b):
        if self.attached(a) is None:
            self.cs.connect(self.rs[a % 2])

    def place(self, a, b):
        if self.cs.render_services:
            self.cs.place_dataset()

    def move(self, a, b):
        src, dst = self.attached(a), self.attached(a + 1)
        if src is not None and dst is not None and self.cs.share_of(src):
            share = sorted(self.cs.share_of(src))
            self.cs.reassign_nodes(src, dst, [share[b % len(share)]])

    def split(self, a, b):
        src = self.attached(a)
        if src is not None and self.cs.share_of(src):
            share = sorted(self.cs.share_of(src))
            self.cs.split_node(src, share[b % len(share)], grain=16)

    def disconnect(self, a, b):
        rs = self.attached(a)
        if rs is not None:
            self.cs.disconnect(rs)

    def open(self, a, b):
        rs = self.rs[a % 2]
        session, _ = rs.create_render_session(self.ds, SCENE)
        self.standalone.append((rs, session.render_session_id))

    def close(self, a, b):
        if self.standalone:
            rs, rsid = self.standalone.pop(a % len(self.standalone))
            rs.close_render_session(rsid)

    def render(self, a, b):
        if self.standalone:
            rs, rsid = self.standalone[a % len(self.standalone)]
            rs.render_view(rsid, Camera.looking_at((0, 0, 4), (0, 0, 0)),
                           8, 8)
            self.unscraped_fps.add(self.rs.index(rs))

    def fps(self, a, b):
        fps = (float("inf"), 2.0, 12.5, 30.0)[b % 4]
        if fps == float("inf") and a % 2 in self.unscraped_fps:
            return      # the one declared divergence: see test_fps_reset
        self.rs[a % 2].reported_fps = fps
        if fps != float("inf"):
            self.unscraped_fps.add(a % 2)

    def add(self, a, b):
        node_id = 1000 + next(self.ids)
        self.ds.publish_update(SCENE, AddNode.of(
            MeshNode(uv_sphere(nu=3 + b % 3, nv=3)), parent_id=0,
            node_id=node_id))
        self.added.append(node_id)

    def remove(self, a, b):
        if self.added:
            node_id = self.added.pop(a % len(self.added))
            self.ds.publish_update(SCENE, RemoveNode(node_id=node_id))

    # -- data services ------------------------------------------------------------

    def subscribe(self, a, b):
        name = f"client-{next(self.ids)}"
        self.ds.subscribe(SCENE, name, host=PDA_HOST, kind="client",
                          introspective=False)
        self.clients.append(name)

    def unsubscribe(self, a, b):
        if self.clients:
            self.ds.unsubscribe(SCENE,
                                self.clients.pop(a % len(self.clients)))

    def add_mirror(self, a, b):
        self.ds.add_mirror(self.mirror)

    def failover(self, a, b):
        if self.mirror in self.ds.mirrors:
            self.ds.failover_to(SCENE)

    def ds_session(self, a, b):
        self.ds.create_session(f"extra-{next(self.ids)}",
                               small_tree("extra", (3,)))

    # -- UDDI ---------------------------------------------------------------------

    def business(self, a, b):
        self.tb.registry.register_business(f"biz-{next(self.ids)}")

    def tmodel(self, a, b):
        self.tb.registry.register_tmodel(f"tm-{a}", WSDLS[b % len(WSDLS)])

    def publish(self, a, b):
        uddi = self.tb.registry
        businesses = sorted(uddi._businesses)
        key = businesses[a % len(businesses)]
        tm = uddi.register_tmodel("tm-render", RENDER_SERVICE_WSDL)
        service = uddi.register_service(
            key, f"svc-{next(self.ids)}",
            AccessPoint(url="http://example/rs", host=HOSTS[b % 2]), [tm])
        self.services.append((key, service.service_key))

    def withdraw(self, a, b):
        if self.services:
            key, service_key = self.services.pop(a % len(self.services))
            self.tb.registry.unregister_service(key, service_key)

    # -- the grid -----------------------------------------------------------------

    def request(self, a, b):
        tree = small_tree(f"g-{a}", (4 + b % 3,))
        fps = ((0.2, 0.45, 0.7)[b % 3] * self.grid.pool_pps()
               / tree.total_polygons())
        self.grid.request_session(f"t{a % 3}", f"g{next(self.ids)}", tree,
                                  target_fps=fps)

    def release(self, a, b):
        sessions = self.grid.sessions()
        if sessions:
            self.grid.release_session(sessions[a % len(sessions)].session_id)

    def pump(self, a, b):
        self.grid.pump()

    def shed(self, a, b):
        self.grid.shed()

    def restore(self, a, b):
        self.grid.restore()

    def tenant(self, a, b):
        self.grid.register_tenant(TenantQuota(
            tenant=f"t{a % 4}", max_sessions=1 + b % 3,
            max_share=(0.3, 0.6, 1.0)[b % 3]))

    # -- the farm -----------------------------------------------------------------

    def submit(self, a, b):
        self.queue.submit(RenderJob(
            job_id=f"j{next(self.ids)}", session_id=SCENE, start_frame=1,
            end_frame=1 + a % 4, priority=b % 2,
            tenant=("", "batch")[a % 2]))

    def lease(self, a, b):
        worker = f"w{a % 3}"
        data = self.queue.lease(worker)
        if data is not None:
            self.leases.append((unframe_farm_lease(data), worker))

    def complete(self, a, b):
        if self.leases:
            lease, worker = self.leases.pop(a % len(self.leases))
            self.queue.complete(frame_farm_result(FarmResult(
                job_id=lease.job_id, frame=lease.frame, worker=worker,
                render_seconds=0.01, nbytes=64,
                attempt=lease.attempt - (b % 4 == 0))))

    def requeue(self, a, b):
        if b % 2:
            self.queue.requeue_worker(f"w{a % 3}")
        else:
            self.queue.requeue_expired()

    # -- time and scrapes ---------------------------------------------------------

    def run(self, a, b):
        self.tb.network.sim.run_until(self.now + SECONDS[a % 3])

    def advance(self, a, b):
        self.tb.clock.advance(SECONDS[a % 3])

    def scrape(self, a, b):
        k = a % len(self.owners)
        owner, collector = self.owners[k]
        telemetry = owner.telemetry
        since = telemetry.events_seen if b % 2 else 0
        frame = telemetry.scrape_frame(self.now, since)
        self.unscraped_fps.discard(k)
        assert_frame_is_the_reference(owner, collector, self.shadows[k],
                                      frame)


OPS = ("connect", "place", "move", "split", "disconnect", "open", "close",
       "render", "fps", "add", "remove", "subscribe", "unsubscribe",
       "add_mirror", "failover", "ds_session", "business", "tmodel",
       "publish", "withdraw", "request", "release", "pump", "shed",
       "restore", "tenant", "submit", "lease", "complete", "requeue",
       "run", "advance", "scrape", "scrape", "scrape", "scrape")
STEP = st.tuples(st.sampled_from(OPS), st.integers(0, 11),
                 st.integers(0, 11))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.lists(STEP, min_size=20, max_size=80))
def test_every_scrape_frame_equals_the_collector_reference(steps):
    world = World()
    for name, a, b in steps:
        try:
            getattr(world, name)(a, b)
        except RaveError:
            pass                       # a refused operation is an operation
    for k in range(len(world.owners)):
        world.scrape(k, 0)


def test_fps_reset_keeps_the_last_pushed_fps():
    """The one declared divergence from the collectors.  A finite fps
    reset to ``inf`` by hand (only a hand write resets the estimate)
    leaves the last finite value in the gauge, whether or not a scrape
    read it in between; the collector showed it only if one did."""
    rs = build_testbed(render_hosts=HOSTS).render_service("centrino")
    rs.reported_fps = 12.5
    rs.reported_fps = float("inf")
    flat = flatten_metrics(unframe_telemetry(
        rs.telemetry.scrape_frame())["metrics"])
    assert flat["rave_rs_fps"] == 12.5
