"""Routing matches ``networkx``, ties included.

``Network.path`` runs its own bidirectional Dijkstra over a plain
adjacency dict.  The route decides which links a transfer is billed to,
so it must be the route ``nx.shortest_path(weight="latency")`` picks on
the graph the network used to build with networkx — equal-latency ties
included, because every same-seed replay depends on them.  networkx is
a test-only reference here (the ``dev`` extra); the runtime never
imports it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.network.simnet import Network
from repro.testbed import build_testbed

nx = pytest.importorskip("networkx")


def reference_graph(net: Network):
    """The usable graph as the network once built it with networkx.

    Every host in the order it was added, then every link in the order
    it was added, with its latency; then the subgraph of live hosts and
    links, walked out of that graph's own edge view.
    """
    graph = nx.Graph()
    graph.add_nodes_from(net.hosts)
    for link in net._links.values():
        graph.add_edge(link.a, link.b, latency=link.latency_s)
    usable = nx.Graph(
        (a, b, d) for a, b, d in graph.edges(data=True)
        if net.link_between(a, b).up and net.hosts[a].up and net.hosts[b].up)
    usable.add_nodes_from(h for h, host in net.hosts.items() if host.up)
    return usable


def reference_path(net: Network, src: str, dst: str,
                   usable=None) -> list[str] | None:
    """The route networkx picks, or None where it raised."""
    if usable is None:
        usable = reference_graph(net)
    try:
        return nx.shortest_path(usable, src, dst, weight="latency")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def routed(net: Network, src: str, dst: str) -> list[str] | None:
    try:
        return net.path(src, dst)
    except NetworkError:
        return None


def assert_all_pairs_match(net: Network) -> None:
    usable = reference_graph(net)
    for src in net.hosts:
        for dst in net.hosts:
            want = reference_path(net, src, dst, usable)
            assert routed(net, src, dst) == want, (src, dst)


@st.composite
def topologies(draw):
    """Up to nine hosts, links in any order and orientation with latencies
    from three values (so ties are common), some hosts and links down."""
    n = draw(st.integers(2, 9))
    # names whose sorted order is not their insertion order
    names = draw(st.permutations([f"h{i}" for i in range(n)]))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in chosen]
    latencies = draw(st.lists(st.sampled_from([0.001, 0.002, 0.003]),
                              min_size=len(edges), max_size=len(edges)))
    down_links = draw(st.lists(st.sampled_from(edges), unique=True)
                      if edges else st.just([]))
    down_hosts = draw(st.lists(st.sampled_from(names), unique=True,
                               max_size=n // 2))
    return names, list(zip(edges, latencies)), down_links, down_hosts


class TestRoutesMatchNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(topologies())
    def test_random_topologies(self, topology):
        names, edges, down_links, down_hosts = topology
        net = Network()
        for name in names:
            net.add_host(name)
        for (a, b), latency in edges:
            net.add_link(a, b, 1e8, latency)
        assert_all_pairs_match(net)
        # the cached routes must follow every liveness change
        for a, b in down_links:
            net.set_link_up(a, b, False)
        for name in down_hosts:
            net.set_host_up(name, False)
        assert_all_pairs_match(net)

    def test_every_pair_of_the_testbed(self):
        tb = build_testbed()
        assert len(tb.network.hosts) > 5
        assert_all_pairs_match(tb.network)

    @pytest.mark.parametrize("hosts,dst,via", [
        # the search meets at x: x's neighbours are relaxed in the order
        # their links were added ...
        (("s", "x", "t", "m1", "m2"), "x", "m2"),
        # ... unless a neighbour joined the network before x did: those
        # come first, in host order (the edge walk networkx did)
        (("s", "m1", "m2", "x", "t"), "x", "m1"),
        # the search meets past x: the heap's insertion counter, not the
        # hosts' names, decides which of m1 / m2 is expanded first
        (("s", "m1", "m2", "x", "t"), "t", "m2"),
    ], ids=["link-order", "host-order", "heap-counter"])
    def test_diamond_ties(self, hosts, dst, via):
        # s-m2-x and s-m1-x cost the same, and s-m2 is added first
        net = Network()
        for name in hosts:
            net.add_host(name)
        for a, b in [("s", "m2"), ("s", "m1"), ("m2", "x"), ("m1", "x"),
                     ("x", "t")]:
            net.add_link(a, b, 1e8, 0.001)
        want = ["s", via, "x", "t"][:3 if dst == "x" else 4]
        assert net.path("s", dst) == want == reference_path(net, "s", dst)
