import random

import networkx as nx
import numpy as np
import pytest

from poplab.errors import BadId, Infeasible, NotConnected, NotSimple
from poplab.graph import (
    GENERATOR_KINDS,
    build_graph,
    dump_edge_list,
    generate_graph,
    load_edge_list,
    maximum_matching,
    metrics,
    parse_edge_list,
    save_edge_list,
)


def test_build_triangle():
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    assert g.m == 3
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_build_path():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.m == 2
    assert g.adjacency[1] == (0, 2)


def test_build_rejects_disconnected():
    with pytest.raises(NotConnected):
        build_graph([(0, 1)], 3)
    with pytest.raises(NotConnected, match=r"^agents \[2, 3, 4\] unreachable from agent 0$"):
        build_graph([(0, 1), (2, 3), (3, 4)], 5)


def test_build_rejects_self_loop_and_duplicates():
    with pytest.raises(NotSimple):
        build_graph([(0, 0), (0, 1)], 2)
    with pytest.raises(NotSimple):
        build_graph([(0, 1), (1, 0)], 2)


def test_build_rejects_bad_ids():
    with pytest.raises(BadId):
        build_graph([(0, 3)], 3)
    with pytest.raises(BadId):
        build_graph([(0, 1)], 1)


def test_generate_complete():
    g = generate_graph("complete", 4)
    assert g.m == 6
    assert g.diameter == 1


def test_generate_path_diameter():
    g = generate_graph("path", 4)
    assert g.m == 3
    assert g.diameter == 3
    assert g.metrics.distance(0, 3) == 3


def test_generate_star():
    g = generate_graph("star", 5)
    assert g.m == 4
    assert g.diameter == 2
    assert g.degree(0) == 4


def test_generate_cycle():
    g = generate_graph("cycle", 5)
    assert g.m == 5
    assert g.diameter == 2
    with pytest.raises(Infeasible):
        generate_graph("cycle", 2)


def test_random_connected_tree_when_m_minimal():
    for seed in range(5):
        g = generate_graph("random_connected", 5, 4, seed=seed)
        assert g.m == 4  # n-1 edges force a tree


def test_random_connected_infeasible():
    with pytest.raises(Infeasible):
        generate_graph("random_connected", 4, 2)
    with pytest.raises(Infeasible):
        generate_graph("random_connected", 4, 7)


def test_generate_deterministic():
    a = generate_graph("random_connected", 7, 10, seed=99)
    b = generate_graph("random_connected", 7, 10, seed=99)
    assert a.edges == b.edges
    c = generate_graph("random_connected", 7, 10, seed=100)
    assert a.edges != c.edges  # overwhelmingly likely for this size


def test_random_connected_thousand_feasible_cases():
    # Every feasible (n, m) request yields a connected graph with exactly m
    # edges; connectivity is enforced by build_graph, which would raise.
    rng = random.Random(31337)
    for _ in range(1000):
        n = rng.randint(2, 10)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(48))
        assert g.n == n and g.m == m


def test_rebuild_roundtrip():
    rng = random.Random(7)
    for kind in ("complete", "cycle", "path", "star"):
        g = generate_graph(kind, 6)
        assert build_graph(g.edges, g.n).adjacency == g.adjacency
    for _ in range(50):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        assert build_graph(g.edges, g.n).adjacency == g.adjacency


def test_metrics_triangle_inequality_and_zero_diagonal():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        met = metrics(g)
        dist = met.distances
        assert (dist == dist.T).all()
        assert met.diameter == dist.max() >= 1
        for u in range(n):
            assert dist[u, u] == 0
            for v in range(n):
                for w in range(n):
                    assert dist[u, v] <= dist[u, w] + dist[w, v]


def assert_networkx_distances(g):
    expected = np.zeros((g.n, g.n), dtype=np.int64)
    for u, lengths in nx.all_pairs_shortest_path_length(nx.Graph(g.edges)):
        for v, d in lengths.items():
            expected[u, v] = d
    met = metrics(g)
    assert met.distances.dtype == np.int64
    np.testing.assert_array_equal(met.distances, expected)
    assert met.diameter == expected.max()


@pytest.mark.parametrize("kind, n", [
    (kind, n) for kind in GENERATOR_KINDS for n in (2, 3, 8, 33, 64) if (kind, n) != ("cycle", 2)])
def test_metrics_match_networkx(kind, n):
    if kind != "random_connected":
        assert_networkx_distances(generate_graph(kind, n))
        return
    max_m = n * (n - 1) // 2
    for m in sorted({n - 1, min(2 * n, max_m), max_m}):
        assert_networkx_distances(generate_graph("random_connected", n, m, seed=n))


def test_metrics_match_networkx_on_seeded_random_graphs():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 40)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        assert_networkx_distances(generate_graph("random_connected", n, m, seed=rng.getrandbits(32)))


def test_k3_metrics():
    g = generate_graph("complete", 3)
    assert g.diameter == 1
    assert all(g.metrics.distance(u, v) == 1 for u in range(3) for v in range(3) if u != v)


def test_maximum_matching_matches_networkx():
    # K3 and P3 keep the greedy pair (0, 1); the paw's greedy matching {0-1}
    # grows along 2-1-0-3 to the perfect {0-3, 1-2}; the star has no second edge.
    assert maximum_matching(generate_graph("complete", 3)) == [(0, 1)]
    assert maximum_matching(generate_graph("path", 3)) == [(0, 1)]
    assert maximum_matching(build_graph([(0, 1), (0, 2), (1, 2), (0, 3)], 4)) == [(0, 3), (1, 2)]
    assert maximum_matching(generate_graph("star", 4)) == [(0, 1)]
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 12)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        matching = maximum_matching(g)
        agents = [a for pair in matching for a in pair]
        assert len(set(agents)) == len(agents)
        assert matching == sorted(matching) and set(matching) <= set(g.edges)
        expected = nx.max_weight_matching(nx.Graph(list(g.edges)), maxcardinality=True)
        assert len(matching) == len(expected), g.edges


def test_edge_list_roundtrip(tmp_path):
    g = generate_graph("random_connected", 6, 9, seed=5)
    text = dump_edge_list(g)
    assert text.splitlines()[0] == "6 9"
    assert parse_edge_list(text).adjacency == g.adjacency
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    assert load_edge_list(path).adjacency == g.adjacency


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(NotSimple):
        parse_edge_list("")
    with pytest.raises(NotSimple):
        parse_edge_list("2 1\n0 1\n0 1\n")  # promises 1 edge, lists 2
