"""Discrete-event network simulator.

Replaces the paper's physical testbed network: 100 Mbit switched ethernet
between the workstations/servers, and an 11 Mbit/s 802.11b wireless cell for
the PDA whose *effective* bandwidth depends on signal quality and sharing
("bandwidth is shared between other network users, and is proportional to
signal quality").

Model choices (documented limitations, adequate for the paper's shapes):

- store-and-forward per link; transfer time on a link is
  ``latency + bytes * 8 / effective_bandwidth``;
- contention uses the link's in-flight transfer count *at transfer start*
  (fluid-flow rate re-negotiation mid-transfer is not modelled);
- 802.11b MAC efficiency defaults to 0.44, matching both real 11 Mbit
  deployments (~4.8 Mbit/s goodput) and the paper's own measurement
  (120 kB frame in ~0.2 s);
- multicast sends the payload once on shared upstream links and fans out
  per-receiver downstream (the data service's "bandwidth-saving" update
  distribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from repro.errors import NetworkError
from repro.network.clock import Simulator
from repro.obs import active as _obs


@dataclass
class Host:
    """A machine on the network."""

    name: str
    #: optional machine-profile key (see repro.hardware.profiles)
    profile: str = ""
    #: False while the machine is crashed (fault injection); change it
    #: through :meth:`Network.set_host_up`, which drops the routing cache
    up: bool = True

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Link:
    """A directed-capacity, bidirectional network segment."""

    a: str
    b: str
    bandwidth_bps: float
    latency_s: float
    kind: str = "ethernet"
    #: live signal quality in (0, 1]; only meaningful for wireless links
    signal_quality: float = 1.0
    #: MAC-layer efficiency (goodput / nominal); 802.11b ≈ 0.44
    mac_efficiency: float = 1.0
    #: number of transfers currently using this link
    active: int = 0
    #: False while the link is down; change it through
    #: :meth:`Network.set_link_up`, which drops the routing cache
    up: bool = True

    def effective_bandwidth(self, extra_flows: int = 1) -> float:
        """Per-transfer goodput for a *new* transfer, in bits/second.

        ``extra_flows`` is how many flows the caller is about to add (the
        hypothetical transfer itself by default); ``active`` counts flows
        already in flight.
        """
        if not self.up:
            return 0.0
        share = max(1, self.active + extra_flows)
        return (self.bandwidth_bps * self.mac_efficiency
                * self.signal_quality / share)

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class TransferRecord:
    """Accounting entry for one completed (or scheduled) transfer."""

    src: str
    dst: str
    nbytes: int
    start: float
    duration: float
    path: tuple[str, ...]
    #: True when fault injection lost this transfer in flight
    dropped: bool = False

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def goodput_bps(self) -> float:
        return self.nbytes * 8.0 / self.duration if self.duration > 0 else 0.0


class WirelessCell:
    """A shared 802.11b cell: every member reaches the access point over the
    same medium, so their links share one contention domain."""

    def __init__(self, network: Network, access_point: str,
                 nominal_bps: float = 11e6, mac_efficiency: float = 0.44,
                 latency_s: float = 0.004) -> None:
        self.network = network
        self.access_point = access_point
        self.nominal_bps = nominal_bps
        self.mac_efficiency = mac_efficiency
        self.latency_s = latency_s
        self.members: list[str] = []

    def join(self, host: str, signal_quality: float = 1.0) -> Link:
        link = self.network.add_link(
            host, self.access_point, self.nominal_bps, self.latency_s,
            kind="wireless", signal_quality=signal_quality,
            mac_efficiency=self.mac_efficiency)
        self.members.append(host)
        return link

    def set_signal_quality(self, host: str, quality: float) -> None:
        """Degrade/restore a member's signal (user walks away from the AP)."""
        if not 0.0 < quality <= 1.0:
            raise ValueError("signal quality must be in (0, 1]")
        self.network.link_between(host, self.access_point).signal_quality = \
            quality


def _shortest_path(adj: dict[str, dict[str, float]], src: str,
                   dst: str) -> list[str] | None:
    """Least-latency route, or None when there is none.

    Bidirectional Dijkstra as ``networkx.shortest_path(weight=...)`` runs
    it — one counter shared by both heaps, directions alternating, the
    meet node replaced only by a strictly shorter total — so tied routes
    resolve exactly as they did when routing was delegated to networkx.
    """
    if src not in adj or dst not in adj:
        return None
    if src == dst:
        return [src]
    c = count()
    fringe = ([(0, next(c), src)], [(0, next(c), dst)])
    seen = ({src: 0}, {dst: 0})
    preds = ({src: None}, {dst: None})
    dists = ({}, {})
    finaldist = meet = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            forward, node = [], meet
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            route, node = forward[::-1], preds[1][meet]
            while node is not None:
                route.append(node)
                node = preds[1][node]
            return route
        for w, cost in adj[v].items():
            length = dist + cost
            if w in dists[direction]:
                continue
            if w not in seen[direction] or length < seen[direction][w]:
                seen[direction][w] = length
                heappush(fringe[direction], (length, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    total = length + seen[1 - direction][w]
                    if finaldist is None or finaldist > total:
                        finaldist, meet = total, w
    return None


class Network:
    """Hosts + links + routing + transfer scheduling."""

    def __init__(self, simulator: Simulator | None = None) -> None:
        self.sim = simulator if simulator is not None else Simulator()
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: host → neighbour → latency, both levels in insertion order
        self._graph: dict[str, dict[str, float]] = {}
        self.transfers: list[TransferRecord] = []
        #: optional :class:`repro.network.faults.FaultInjector`
        self.fault_injector = None
        # Routing cache: the "usable" adjacency (and shortest paths over
        # it) are reused until a topology or liveness setter drops them.
        self._usable_graph: dict[str, dict[str, float]] | None = None
        self._path_cache: dict[tuple[str, str], list[str]] = {}

    def _invalidate_routes(self) -> None:
        self._usable_graph = None
        self._path_cache.clear()

    # -- topology ---------------------------------------------------------------

    def add_host(self, name: str, profile: str = "") -> Host:
        if name in self.hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name=name, profile=profile)
        self.hosts[name] = host
        self._graph[name] = {}
        self._invalidate_routes()
        return host

    def add_link(self, a: str, b: str, bandwidth_bps: float,
                 latency_s: float, kind: str = "ethernet",
                 signal_quality: float = 1.0,
                 mac_efficiency: float = 1.0) -> Link:
        for h in (a, b):
            if h not in self.hosts:
                raise NetworkError(f"unknown host {h!r}")
        if bandwidth_bps <= 0:
            raise NetworkError("bandwidth must be positive")
        link = Link(a=a, b=b, bandwidth_bps=bandwidth_bps,
                    latency_s=latency_s, kind=kind,
                    signal_quality=signal_quality,
                    mac_efficiency=mac_efficiency)
        if link.key in self._links:
            raise NetworkError(f"link {a!r}-{b!r} already exists")
        self._links[link.key] = link
        self._graph[a][b] = self._graph[b][a] = latency_s
        self._invalidate_routes()
        return link

    def add_ethernet_segment(self, hosts: list[str], switch: str,
                             bandwidth_bps: float = 100e6,
                             latency_s: float = 0.0002) -> None:
        """Star topology through a named switch (the testbed's 100 Mbit LAN)."""
        if switch not in self.hosts:
            self.add_host(switch)
        for h in hosts:
            self.add_link(h, switch, bandwidth_bps, latency_s)

    def link_between(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    def set_link_up(self, a: str, b: str, up: bool) -> None:
        self.link_between(a, b).up = up
        self._invalidate_routes()

    def set_host_up(self, name: str, up: bool) -> None:
        """Crash or restart a machine; down hosts route no traffic at all."""
        if name not in self.hosts:
            raise NetworkError(f"unknown host {name!r}")
        self.hosts[name].up = up
        self._invalidate_routes()

    def host_is_up(self, name: str) -> bool:
        if name not in self.hosts:
            raise NetworkError(f"unknown host {name!r}")
        return self.hosts[name].up

    def _usable(self) -> dict[str, dict[str, float]]:
        """The adjacency restricted to live hosts and links (cached).

        Edges are walked node by node, each neighbour not yet visited, so
        every node's neighbours come out in the order routing ties need.
        """
        if self._usable_graph is None:
            usable = {name: {} for name, h in self.hosts.items() if h.up}
            visited = set()
            for a, nbrs in self._graph.items():
                for b, latency in nbrs.items():
                    if (b not in visited and a in usable and b in usable
                            and self._links[(a, b) if a <= b else (b, a)].up):
                        usable[a][b] = usable[b][a] = latency
                visited.add(a)
            self._usable_graph = usable
        return self._usable_graph

    def path(self, src: str, dst: str) -> list[str]:
        for h in (src, dst):
            if h not in self.hosts:
                raise NetworkError(f"unknown host {h!r}")
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        # Route around downed links and crashed hosts.
        route = _shortest_path(self._usable(), src, dst)
        if route is None:
            raise NetworkError(f"no route from {src!r} to {dst!r}")
        self._path_cache[(src, dst)] = route
        return route

    def path_links(self, src: str, dst: str) -> list[Link]:
        nodes = self.path(src, dst)
        return [self.link_between(a, b) for a, b in zip(nodes[:-1], nodes[1:])]

    # -- analytic transfer times ---------------------------------------------------

    def _link_latency(self, link: Link) -> float:
        """Base latency plus any fault-injected spike on this link."""
        extra = 0.0
        if self.fault_injector is not None:
            extra = self.fault_injector.latency_penalty(link)
        return link.latency_s + extra

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Store-and-forward time using *current* contention and signal."""
        if src == dst:
            return 0.0
        return self._price(self.path_links(src, dst), nbytes)

    def _price(self, links: list[Link], nbytes: int) -> float:
        """Store-and-forward time of ``nbytes`` over ``links``, now."""
        if links and nbytes < 0:
            raise NetworkError("nbytes must be non-negative")
        total = 0.0
        for link in links:
            bw = link.effective_bandwidth()
            if bw <= 0:
                raise NetworkError(
                    f"link {link.a!r}-{link.b!r} is down")
            total += self._link_latency(link) + nbytes * 8.0 / bw
        return total

    def round_trip_time(self, src: str, dst: str,
                        request_bytes: int = 512,
                        response_bytes: int = 512) -> float:
        return (self.transfer_time(src, dst, request_bytes)
                + self.transfer_time(dst, src, response_bytes))

    # -- scheduled transfers (contention-aware) --------------------------------------

    def send(self, src: str, dst: str, nbytes: int,
             on_complete=None, on_drop=None) -> TransferRecord:
        """Schedule a transfer in the simulator; links stay busy for its span.

        Effective bandwidth is sampled at start (fluid re-negotiation is not
        modelled); concurrent transfers therefore slow each other only if
        already in flight when a new one begins.  When a fault injector is
        attached, the transfer may be lost in flight: the links stay busy
        for its full span but ``on_drop`` (not ``on_complete``) fires.
        """
        route = self.path(src, dst)
        links = [self.link_between(a, b) for a, b in zip(route, route[1:])]
        # Rate is sampled before this transfer joins the links (the
        # transfer itself counts via effective_bandwidth's extra flow).
        duration = self._price(links, nbytes)
        for link in links:
            link.active += 1
        dropped = (self.fault_injector is not None and links
                   and self.fault_injector.roll_loss(src, dst))
        record = TransferRecord(src=src, dst=dst, nbytes=nbytes,
                                start=self.sim.now, duration=duration,
                                path=tuple(route), dropped=bool(dropped))
        self.transfers.append(record)
        obs = _obs()
        if obs.enabled:
            m = obs.metrics
            m.counter("rave_net_transfers_total",
                      "scheduled transfers started").inc()
            m.counter("rave_net_bytes_total",
                      "payload bytes put on the wire").inc(nbytes)
            m.histogram("rave_net_transfer_seconds",
                        "end-to-end transfer time").observe(duration)
            if dropped:
                m.counter("rave_net_dropped_total",
                          "transfers lost in flight").inc()
            for link in links:
                name = f"{link.key[0]}-{link.key[1]}"
                m.counter("rave_net_link_bytes_total",
                          "bytes carried per link", link=name).inc(nbytes)
                m.counter("rave_net_link_busy_seconds_total",
                          "per-link busy time (utilisation numerator)",
                          link=name).inc(duration)

        def finish() -> None:
            for link in links:
                link.active -= 1
            if record.dropped:
                if on_drop is not None:
                    on_drop(record)
            elif on_complete is not None:
                on_complete(record)

        self.sim.schedule(duration, finish)
        return record

    def multicast_times(self, src: str, dsts: list[str],
                        nbytes: int) -> dict[str, float]:
        """Per-destination completion time for one multicast payload.

        Links shared by several receivers carry the payload once: each
        link's serialisation cost is charged once per multicast, then each
        receiver accumulates the latency+serialisation of the links on its
        own path, with shared prefixes not double-charged.
        """
        charged: set[tuple[str, str]] = set()
        times: dict[str, float] = {}
        for dst in dsts:
            if dst == src:
                times[dst] = 0.0
                continue
            t = 0.0
            for link in self.path_links(src, dst):
                if link.key in charged:
                    # payload already on this segment
                    t += self._link_latency(link)
                else:
                    bw = link.effective_bandwidth()
                    if bw <= 0:
                        raise NetworkError(
                            f"link {link.a!r}-{link.b!r} is down")
                    t += self._link_latency(link) + nbytes * 8.0 / bw
                    charged.add(link.key)
            times[dst] = t
        return times

    # -- accounting -------------------------------------------------------------------

    def bytes_moved(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def __repr__(self) -> str:
        return (f"Network(hosts={len(self.hosts)}, links={len(self._links)}, "
                f"transfers={len(self.transfers)})")
