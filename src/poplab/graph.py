"""Population graphs: simple, connected, undirected, with cached metrics.

Agents are the dense integers 0..n-1.  A population is immutable after
construction and safe to share between concurrent trial workers.  The pair
count ``m`` counts unordered interactable pairs, so there are ``2m`` directed
(initiator, responder) pairs.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import BadId, Infeasible, NotConnected, NotSimple

GENERATOR_KINDS = ("complete", "cycle", "path", "star", "random_connected")


@dataclass(frozen=True)
class GraphMetrics:
    """All-pairs hop distances and the diameter they induce."""

    distances: np.ndarray  # shape (n, n), int
    diameter: int

    def distance(self, u: int, v: int) -> int:
        return int(self.distances[u, v])


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected population graph.

    ``adjacency[v]`` is the sorted tuple of neighbors of agent v and
    ``edges`` holds each unordered pair once as (u, v) with u < v.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def directed_pairs(self) -> tuple[tuple[int, int], ...]:
        """All 2m (initiator, responder) pairs, in deterministic order."""
        return tuple((u, v) for u in range(self.n) for v in self.adjacency[u])

    @cached_property
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 arrays, built once: ``directed_pairs`` flattened
        (2m rows of initiator, responder), and the adjacency as CSR: the
        offsets (n + 1 of them, neighbors of v at ``start[v]..start[v+1]``)
        and the neighbors (2m)."""
        pairs = np.array(self.directed_pairs, dtype=np.int64).reshape(-1)
        start = np.cumsum([0] + [len(a) for a in self.adjacency], dtype=np.int64)
        neighbors = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.int64,
                                count=2 * self.m)
        for a in (pairs, start, neighbors):
            a.flags.writeable = False
        return pairs, start, neighbors

    @cached_property
    def metrics(self) -> GraphMetrics:
        return metrics(self)

    @property
    def diameter(self) -> int:
        return self.metrics.diameter

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (
            0 <= u < self.n
            and 0 <= v < self.n
            and v in self.adjacency[u]
        )


def build_graph(edges, n: int) -> Graph:
    """Validate an unordered edge list and freeze it into a Graph.

    Raises BadId for ids outside 0..n-1, NotSimple for self-loops or
    duplicate edges (after normalizing pair order), and NotConnected if some
    agent is unreachable from agent 0.
    """
    if n < 2:
        raise BadId(f"a population needs at least 2 agents, got n={n}")
    normalized = []
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadId(f"edge ({u},{v}) references an id outside 0..{n - 1}")
        if u == v:
            raise NotSimple(f"self-loop at agent {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise NotSimple(f"duplicate edge {key}")
        seen.add(key)
        normalized.append(key)
    normalized.sort()
    adj = [[] for _ in range(n)]
    for u, v in normalized:
        adj[u].append(v)
        adj[v].append(u)
    g = Graph(
        n=n,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
        edges=tuple(normalized),
    )
    g.metrics  # checks connectivity; distances and diameter are cached eagerly
    return g


def metrics(g: Graph) -> GraphMetrics:
    """All-pairs shortest-path hop counts, by a breadth-first search from each agent.

    Each agent's neighbors are one Python-int bitmask, so a level of a search
    is the union of its frontier's masks less what the search has reached;
    every agent is visited once per search.  Raises NotConnected when some
    agent is unreachable from agent 0.
    """
    n = g.n
    masks = [sum(1 << v for v in nbrs) for nbrs in g.adjacency]
    dist = np.empty((n, n), dtype=np.int64)
    for source in range(n):
        row = [0] * n
        reached = frontier = 1 << source
        level = 0
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                v = low.bit_length() - 1
                row[v] = level
                grown |= masks[v]
            frontier = grown & ~reached
            reached |= frontier
            level += 1
        if reached != (1 << n) - 1:  # can hold only at source 0: the graph is undirected
            missing = [v for v in range(n) if not reached >> v & 1]
            raise NotConnected(f"agents {missing} unreachable from agent 0")
        dist[source] = row
    return GraphMetrics(distances=dist, diameter=int(dist.max()))


def maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """A maximum matching of ``g``'s edges, each as (u, v) with u < v, in ``g.edges`` order.

    It starts from the greedy matching in ``directed_pairs`` order and
    augments it from each agent left free, in turn, while an augmenting path
    exists.  By Berge's theorem the result is then maximum.
    """
    mate = [-1] * g.n
    for u, v in g.directed_pairs:
        if mate[u] < 0 and mate[v] < 0:
            mate[u], mate[v] = v, u
    for root in range(g.n):
        if mate[root] < 0:
            _augment(g.adjacency, mate, root)
    return [(u, v) for u, v in g.edges if mate[u] == v]


def _augment(adjacency, mate: list[int], root: int) -> None:
    """Flip ``mate`` along the first augmenting path found from the free agent ``root``, if any.

    Edmonds' search ("Paths, trees, and flowers", 1965): a breadth-first
    tree of alternating paths from the root, in which an odd cycle of outer
    agents (a blossom) is shrunk into its base, recorded in ``base``.
    ``parent[w]`` is the outer agent that reached the inner agent w.
    """
    n = len(adjacency)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = deque([root])

    def common_base(a: int, b: int) -> int:
        # The nearest base on both tree paths to the root.
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while not on_path[base[b]]:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, blossom: list[bool]) -> None:
        # Flag the bases from v down to b, and let the cycle be walked both ways.
        while base[v] != b:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):  # w is outer: a blossom
                b = common_base(v, w)
                blossom = [False] * n
                mark(v, b, w, blossom)
                mark(w, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:  # w is free: flip the path back to the root
                    while w >= 0:
                        v = parent[w]
                        after = mate[v]
                        mate[w], mate[v] = v, w
                        w = after
                    return
                outer[mate[w]] = True
                queue.append(mate[w])


def generate_graph(kind: str, n: int, m: int | None = None, seed: int = 0) -> Graph:
    """Deterministic graph instances for experiments.

    ``random_connected`` draws a uniform random labeled spanning tree
    (random Pruefer sequence) and then adds ``m - (n - 1)`` distinct extra
    edges chosen uniformly from the non-tree pairs.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {GENERATOR_KINDS}")
    if n < 2:
        raise Infeasible(n, m, "need at least two agents")
    if kind != "random_connected":
        if m is not None:
            raise ValueError(f"edge count m is only accepted for random_connected, not {kind!r}")
        if kind == "complete":
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        elif kind == "path":
            edges = [(v, v + 1) for v in range(n - 1)]
        elif kind == "star":
            edges = [(0, v) for v in range(1, n)]
        else:  # cycle
            if n < 3:
                raise Infeasible(n, m, "a simple cycle needs n >= 3")
            edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
        return build_graph(edges, n)

    max_m = n * (n - 1) // 2
    if m is None or not (n - 1 <= m <= max_m):
        raise Infeasible(n, m, f"need n-1 <= m <= {max_m}")
    rng = random.Random(seed)
    tree = _random_spanning_tree(n, rng)
    tree_set = set(tree)
    extras = m - (n - 1)
    if extras:
        complement = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in tree_set
        ]
        tree.extend(rng.sample(complement, extras))
    return build_graph(tree, n)


def _random_spanning_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree via Pruefer decoding."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def dump_edge_list(g: Graph) -> str:
    """Edge-list text: first line ``n m``, then one ``u v`` line per pair."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise NotSimple("empty edge-list file")
    header = lines[0].split()
    if len(header) != 2:
        raise NotSimple(f"bad header line {lines[0]!r}, expected 'n m'")
    n, m = int(header[0]), int(header[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise NotSimple(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if len(edges) != m:
        raise NotSimple(f"header promises {m} edges but file has {len(edges)}")
    return build_graph(edges, n)


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_edge_list(g))
