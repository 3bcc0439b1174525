"""Exhaustive verification via final sets, and impossibility witnesses.

A protocol is self-stabilizing exactly when every *final* configuration
(member of a closed, mutually reachable set, i.e. a bottom strongly connected
component of the transition relation) is safe.  This module tabulates the
two-agent step once per directed pair, maps arrays of configurations through
those tables on demand, finds the bottom SCCs, checks a safe predicate plus
output constancy on them, and searches subgraph/supergraph pairs for
witnesses that a degree-claiming protocol cannot be self-stabilizing.

The bottom SCCs are searched in a small forward-closed region R instead of
the whole space (the grand coupling of Propp and Wilson's exact sampling).
R is the forward closure of the image of a start set S under a composition
W of pairs' maps, one pair at a time.  When S is every key, three facts
make this exact:

- every bottom SCC is closed under each pair's map, so W sends it into
  itself, and the image of every key meets it;
- R is forward-closed, so it contains every bottom SCC it meets, that is,
  all of them;
- a forward-closed region has the same bottom SCCs as the whole graph: a
  path between two of its keys never leaves it, and no edge leaves it.

So the result does not depend on the schedule of the maps, which only sets
how small R is.  The image is grown in stages (``_start``): each pair of a
maximum matching, then each unmatched agent.  A stage's keys carry digits
of the agents held so far only, and stand for every key that agrees with
them there.  A stage takes the outer sum of the previous stage's keys with
its part, which is a matched pair's image of its two agents' digits,
contracted on those two agents alone, or an unmatched agent's digits, and
maps the sum through the pairs inside the agents now held.  Those pairs
move no digit outside them, so each stage's keys, read as whole keys, are
the image of the previous stage's under pair maps, and the final stage's
are the image of S under one composition W.  It is built without visiting
every key, and no stage holds more than the previous stage's keys times
one part.

A protocol may declare symmetries: state maps that commute with the step
(``engine.Protocol``).  The group G they generate acts on a key by mapping
every agent's digit, so each g in G commutes with every pair's map, and
g sends a bottom SCC F to a bottom SCC g.F.  S then holds only the keys
whose restricted agent (one agent, fixed per graph) holds the smallest
state of its orbit.  For any F and any c in F, some g gives g.c that
state, so g.c lies in S, and W(g.c) = g.W(c) lies in g.F: R holds a
bottom SCC of every orbit, and the images of R's bottom SCCs under G are
all of them.  A map that does not commute with the step, checked on every
pair of states when the graph is built, leaves S every key, and so does a
protocol whose pairs' maps are all permutations, as nothing contracts its S.

Configurations are packed into integers by mixed radix: agent 0 is the least
significant digit, each digit being the protocol's per-agent state index.
The packing is stable across runs (each protocol's field table fixes the
order of its state index; see ``engine.Protocol``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import _compiled
from .engine import Field, Protocol
from .errors import DomainViolation, NoSafeConfigOnSuper, TooLarge
from .graph import Graph, maximum_matching
from .neighbor import bits
from .oracles import check_spec

DEFAULT_BUDGET = 10_000_000
_PAIR_BLOCK = 4096  # state pairs per compiled step call


@dataclass
class TransitionGraph:
    """The successor relation over the packed configuration space, per directed pair.

    Keys are int64 and are mapped through a pair on demand (``step_keys``);
    nothing as large as the configuration space is stored unless
    ``successors`` is read.
    """

    protocol: object
    graph: Graph
    params: object
    agent_state_count: int
    config_count: int
    directed_pairs: tuple[tuple[int, int], ...]
    states: tuple  # the q per-agent states; digit i packs states[i]
    # (pairs, q*q) int64: entry i*q + j of row e is what directed_pairs[e] = (u, v)
    # adds to a key whose agent u holds digit i and agent v digit j
    deltas: np.ndarray
    # The two-agent step is a bijection of the q*q state pairs, so every
    # pair's map is a permutation of the keys.
    permutes: bool
    # (order, q) int64: row k is the k-th element of the group that the
    # protocol's symmetries generate, as a permutation of the state indices;
    # row 0 is the identity, the only row when the symmetries go unused.
    group: np.ndarray

    @cached_property
    def representatives(self) -> np.ndarray:
        """The state indices that are the smallest of their orbit under ``group``, ascending."""
        return np.flatnonzero(self.group.min(axis=0) == np.arange(self.agent_state_count))

    @cached_property
    def place_values(self) -> np.ndarray:
        """q**a for each agent a, int64: a key is the dot product of its digits with these."""
        return self.agent_state_count ** np.arange(self.graph.n, dtype=np.int64)

    def digits(self, keys) -> np.ndarray:
        """(len(keys), n) int64: row k holds every agent's digit of keys[k], agent 0 first."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 1)
        return keys // self.place_values % self.agent_state_count

    def decode(self, key: int) -> tuple:
        return tuple(map(self.states.__getitem__, self.digits(key)[0].tolist()))

    def encode(self, states) -> int:
        q = self.agent_state_count
        key = 0
        for s in reversed(states):
            key = key * q + self.protocol.state_to_index(s, self.params)
        return key

    def step_keys(self, keys, pair_index: int) -> np.ndarray:
        """Every key of ``keys`` mapped through directed_pairs[pair_index], as int64.

        One gather: keys + deltas[e][digit_u * q + digit_v].  The index is
        built in place, so at most two temporaries of ``keys``' size live
        at once.
        """
        keys = np.asarray(keys, dtype=np.int64)
        q = self.agent_state_count
        u, v = self.directed_pairs[pair_index]
        index = keys // q**u
        index %= q
        index *= q
        digit = keys // q**v
        digit %= q
        index += digit
        del digit
        moved = self.deltas[pair_index].take(index)
        moved += keys
        return moved

    @cached_property
    def successors(self) -> np.ndarray:
        """(pairs, config_count): row e holds every key's successor under directed_pairs[e].

        Built on first read, and never read by the verifier.  The keys are
        viewed as an array of shape (q,)*n, whose axis n-1-a holds agent
        a's digit, and each pair's table is broadcast over its two agents'
        axes.  int32 below 2^31 configurations, else int64.
        """
        q, n, count = self.agent_state_count, self.graph.n, self.config_count
        index_dtype = np.int32 if count < 2**31 else np.int64
        keys = np.arange(count, dtype=index_dtype).reshape((q,) * n)
        successors = np.empty((len(self.directed_pairs), count), dtype=index_dtype)
        for e, (u, v) in enumerate(self.directed_pairs):
            delta = self.deltas[e].reshape(q, q)  # [i, j]: i is agent u's digit, j agent v's
            if u < v:  # agent v's axis (n-1-v) comes first
                delta = delta.T
            shape = [1] * n
            shape[n - 1 - u] = shape[n - 1 - v] = q
            np.add(keys, delta.astype(index_dtype).reshape(shape), out=successors[e].reshape(keys.shape))
        return successors

    def outputs_of(self, key: int) -> tuple:
        return tuple(self.protocol.output(s) for s in self.decode(key))


def _pair_tables(protocol, params, q: int):
    """The q states by index, and the two-agent transition on state indices: (q0,q1) -> (q0',q1').

    When ``_compiled.library_for`` says ``_loop.c`` steps the record, the
    state pairs go through ``_compiled.step_pairs`` about ``_PAIR_BLOCK``
    at a time and ``_result_indices`` encodes the results; otherwise
    ``protocol.step`` runs once per pair, which is the reference.  The
    blocks keep every array small whatever q: freeing one 2 MB array (all
    of K3's pairs at tmax=2) raised glibc's mmap threshold, and the search
    after it then peaked 1.8 MB higher.  Either way the results are looked
    up among the q states just enumerated, which are the whole per-agent
    domain, so a result not among them is out of the domain and raises
    DomainViolation instead of packing a wrong index.
    """
    states = tuple(protocol.state_from_index(i, params) for i in range(q))
    lib = _compiled.library_for(protocol, params)
    if lib is None:
        t0, t1 = _stepped_tables(protocol, params, states)
    else:
        rows = np.array([protocol.flatten(s) for s in states], dtype=np.uint64)
        t0 = np.empty((q, q), dtype=np.int64)
        t1 = np.empty((q, q), dtype=np.int64)
        block = max(1, _PAIR_BLOCK // q)  # initiator states per call
        for lo in range(0, q, block):
            hi = min(q, lo + block)
            pairs = np.empty((hi - lo, q, 2, rows.shape[1]), dtype=np.uint64)
            pairs[:, :, 0] = rows[lo:hi, None]  # pair (i, j): state i initiates
            pairs[:, :, 1] = rows[None, :]  # and state j responds
            pairs = pairs.reshape(-1, 2, rows.shape[1])
            _compiled.step_pairs(lib, protocol, params, pairs)
            t0[lo:hi], t1[lo:hi] = _result_indices(protocol, params, pairs, q)
    return states, t0, t1


def _stepped_tables(protocol, params, states):
    """The two tables by one ``protocol.step`` call per state pair."""
    q = len(states)
    index_of = {s: i for i, s in enumerate(states)}
    step = protocol.step

    def to_index(s) -> int:
        i = index_of.get(s)
        if i is None:
            raise DomainViolation(f"step result {s} is not one of the {q} states")
        return i

    t0 = np.empty((q, q), dtype=np.int64)
    t1 = np.empty((q, q), dtype=np.int64)
    for i, s0 in enumerate(states):
        row0 = t0[i]
        row1 = t1[i]
        for j, s1 in enumerate(states):
            r0, r1 = step(s0, s1, params)
            row0[j] = to_index(r0)
            row1[j] = to_index(r1)
    return t0, t1


def _result_indices(protocol, params, pairs: np.ndarray, q: int):
    """Rows of the two tables from the stepped (k*q, 2, fields) uint64 field rows of k*q pairs.

    Each row's state index is the mixed radix of ``protocol.fields`` over
    the offsets value - lo, as in ``Protocol.state_to_index``.  An offset
    is out of range when it is not below the field's size (below lo it
    wraps past every size); the first such row, in the order the reference
    loop steps and checks the pairs, raises the reference's
    DomainViolation.
    """
    index = np.zeros(pairs.shape[:2], dtype=np.uint64)
    inside = np.ones(pairs.shape[:2], dtype=bool)
    for k, f in enumerate(protocol.fields):
        size = f.size(params)
        offset = pairs[:, :, k] - np.uint64(f.lo)
        inside &= offset < size
        index *= np.uint64(size)
        index += offset
    if not inside.all():
        pair, side = divmod(int(np.flatnonzero(~inside)[0]), 2)
        s = protocol.unflatten(pairs[pair, side].tolist())
        raise DomainViolation(f"step result {s} is not one of the {q} states")
    index = index.view(np.int64)  # below q, so below 2^63
    return index[:, 0].reshape(-1, q), index[:, 1].reshape(-1, q)


def build_transition_graph(protocol, g: Graph, params, budget: int = DEFAULT_BUDGET) -> TransitionGraph:
    """Tabulate how every directed pair moves a packed configuration key.

    Pair (u, v) moves a key whose agent u holds digit i and agent v digit j
    by (t0[i,j] - i)*q^u + (t1[i,j] - j)*q^v, where t0, t1 are the two-agent
    step on state indices; that (q, q) table is all that is stored per
    pair.  Raises TooLarge when q^n exceeds the budget, or reaches 2^63 so
    that keys would not fit in int64, before the step is tabulated.
    """
    protocol.validate_params(params)
    if g.n != params.n:
        raise DomainViolation(f"graph has {g.n} agents but params expect {params.n}")
    q = protocol.state_count(params)
    count = q**g.n
    if count > budget:
        raise TooLarge(count, budget)
    if count >= 2**63:
        raise TooLarge(count, budget, "does not fit in int64 keys (2^63)")

    states, t0, t1 = _pair_tables(protocol, params, q)
    digits = np.arange(q, dtype=np.int64)
    deltas = np.stack([
        ((t0 - digits[:, None]) * q**u + (t1 - digits[None, :]) * q**v).reshape(-1)
        for u, v in g.directed_pairs
    ])
    cells = (t0 * q + t1).reshape(-1)
    permutes = _distinct(cells).size == q * q
    return TransitionGraph(
        protocol=protocol,
        graph=g,
        params=params,
        agent_state_count=q,
        config_count=count,
        directed_pairs=g.directed_pairs,
        states=states,
        deltas=deltas,
        permutes=permutes,
        # A permutation protocol's search starts from every key, which needs no group.
        group=digits[None] if permutes else _symmetry_group(protocol, params, states, cells),
    )


def _symmetry_group(protocol, params, states, cells: np.ndarray) -> np.ndarray:
    """The group ``protocol.symmetries`` generate, as rows of state-index permutations, identity first.

    ``cells`` is the two-agent step on the q*q state pairs: pair i*q + j
    goes to t0[i, j]*q + t1[i, j].  Each declared map becomes a map sigma of
    the q state indices, which must be a permutation and commute with the
    step on every state pair: t0[sigma[i], sigma[j]] == sigma[t0[i, j]], and
    the same for t1.  When a map gives a value that is not one of the q
    states, or fails either check, the identity alone is returned and the
    search starts from every state.
    """
    q = len(states)
    identity = np.arange(q, dtype=np.int64)
    index_of = {s: i for i, s in enumerate(states)}
    generators = []
    for symmetry in protocol.symmetries:
        sigma = np.array([index_of.get(symmetry(s, params), -1) for s in states], dtype=np.int64)
        on_pairs = (sigma[:, None] * q + sigma).reshape(-1)  # sigma applied to both agents
        if not (np.array_equal(np.sort(sigma), identity)
                and np.array_equal(cells[on_pairs], on_pairs[cells])):
            return identity[None]
        generators.append(sigma)
    # Close under composition: every product of generators, each once.
    elements = {identity.tobytes(): identity}
    frontier = [identity]
    while frontier:
        found = []
        for element in frontier:
            for sigma in generators:
                product = sigma[element]
                if elements.setdefault(product.tobytes(), product) is product:
                    found.append(product)
        frontier = found
    return np.stack(list(elements.values()))


# A pass is one step per directed pair inside the agents held so far.  Past
# the first steps the image is small, so steps cost little.
_STALL_PASSES = 2


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending, in ``keys``' dtype.

    A sort and a neighbour comparison: with numpy 2.4, ``np.unique`` took 25
    to 80 times as long on 10^3 to 5·10^5 int32 keys.
    """
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _within(tg: TransitionGraph, keys: np.ndarray, agents) -> np.ndarray:
    """``keys`` mapped through the directed pairs inside ``agents``, one at a time, as distinct keys.

    The pairs with both agents in ``agents`` are drawn by a generator of this
    function's own, so the schedule is the same on every call.  Stops once
    ``_STALL_PASSES`` passes in a row have not shrunk the keys.  Returns
    ``keys`` unchanged when no pair lies inside, or when every pair's map is
    a permutation (``tg.permutes``): no step can shrink them.
    """
    inside = [e for e, (u, v) in enumerate(tg.directed_pairs) if u in agents and v in agents]
    if tg.permutes or not inside:
        return keys
    rng = np.random.default_rng(0)
    stalls = 0
    while stalls < _STALL_PASSES * len(inside):
        nxt = _distinct(tg.step_keys(keys, inside[rng.integers(len(inside))]))
        stalls = stalls + 1 if nxt.size == keys.size else 0
        keys = nxt
    return keys


def _start(tg: TransitionGraph) -> np.ndarray:
    """The start of the search, grown one stage at a time, as ascending distinct keys.

    The stages are the pairs of a maximum matching, in its order, then each
    unmatched agent.  A matched pair's part is its table image of its two
    agents' digits, mapped ``_within`` the pair; an unmatched agent's part
    is its digits.  The restricted agent, the first unmatched agent or else
    the first matched pair's initiator, holds ``tg.representatives`` only.
    Each stage's keys are the outer sum of the previous stage's with its part,
    mapped ``_within`` every agent held so far; a first stage that another
    follows keeps its part as it is.
    """
    q = tg.agent_state_count
    digits = np.arange(q, dtype=np.int64)
    matching = maximum_matching(tg.graph)
    unmatched = [(a,) for a in range(tg.graph.n) if all(a not in pair for pair in matching)]
    restricted = (unmatched or matching)[0][0]
    stages = matching + unmatched
    keys, held = np.zeros(1, dtype=np.int64), set()
    for k, agents in enumerate(stages):
        rows = tg.representatives if agents[0] == restricted else digits
        part = rows * q**agents[0]
        if len(agents) == 2:  # a matched pair (u, v)
            e = tg.directed_pairs.index(agents)
            # Every pair of digits of u (of ``rows``) and v, all other digits 0, moved by the pair.
            cells = part[:, None] + digits * q**agents[1] + tg.deltas[e].reshape(q, q)[rows]
            part = _within(tg, _distinct(cells.reshape(-1)), agents)
        held.update(agents)
        keys = part if k == 0 and len(stages) > 1 else _within(tg, np.add.outer(keys, part).reshape(-1), held)
    return np.sort(keys)  # a permutation protocol's keys are never stepped, so not yet sorted


def _forward_closure(tg: TransitionGraph, start: np.ndarray) -> np.ndarray:
    """Every key reachable from the ascending keys ``start`` (included), ascending.

    A breadth-first search on sorted key arrays: each level maps the
    frontier through one pair at a time and keeps what the region does not
    hold yet, so no temporary holds more than one pair's image of it.  A
    start holding every key is returned as it is.
    """
    region = frontier = np.asarray(start, dtype=np.int64)
    if region.size == tg.config_count:  # every key: nothing lies outside it
        return region
    while frontier.size:
        found = []
        for e in range(len(tg.directed_pairs)):
            nxt = tg.step_keys(frontier, e)
            at = np.minimum(np.searchsorted(region, nxt), region.size - 1)
            found.append(nxt[region[at] != nxt])
        frontier = _distinct(np.concatenate(found))
        region = np.insert(region, np.searchsorted(region, frontier), frontier)
    return region


def _strong_components(succ: np.ndarray) -> tuple[int, np.ndarray]:
    """Strong components of the graph whose row e is every node's successor under pair e.

    Returns the number of components and each node's component label.
    Self-loops and repeated edges cannot join components, so numpy drops
    them first, and only the nodes left with an edge start a search.  The
    search is Tarjan's (SIAM J. Comput. 1972), kept iterative by a path of
    (node, next edge) entries in place of recursion.
    """
    pairs, count = succ.shape
    keep = succ != np.arange(count, dtype=succ.dtype)
    moves = np.flatnonzero(keep.any(axis=0))  # nodes with an edge to another node
    moved, keep = succ[:, moves], keep[:, moves]
    for e in range(1, pairs):
        for f in range(e):
            keep[e] &= moved[e] != moved[f]
    first = np.zeros(count + 1, dtype=np.int64)  # node v's edges: targets[first[v]:first[v + 1]]
    first[moves + 1] = keep.sum(axis=0)
    # Memoryviews index as fast as lists and hold 4 or 8 bytes per entry, not an int object.
    first = memoryview(np.cumsum(first))
    targets = memoryview(moved.T[keep.T])
    del moved, keep

    index = [-1] * count  # visit order; -1 until visited
    low = [0] * count
    label = [-1] * count  # -1 until the node's component is complete
    stack = []
    n_comp = order = 0
    for root in moves.tolist():
        if index[root] >= 0:
            continue
        index[root] = low[root] = order
        order += 1
        stack.append(root)
        path = [(root, first[root])]
        while path:
            v, i = path[-1]
            end = first[v + 1]
            while i < end:
                w = targets[i]
                i += 1
                if index[w] < 0:
                    break
                if label[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:  # every edge of v is done
                path.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
                else:  # v is not its component's root, so it has a parent
                    u = path[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                continue
            path[-1] = (v, i)
            index[w] = low[w] = order
            order += 1
            stack.append(w)
            path.append((w, first[w]))

    labels = np.array(label, dtype=np.int64)
    alone = np.flatnonzero(labels < 0)  # never visited: no edge in or out
    labels[alone] = np.arange(n_comp, n_comp + alone.size)
    return n_comp + alone.size, labels


def _bottom_components(succ: np.ndarray) -> list[np.ndarray]:
    """Bottom SCCs of the graph whose row e is every node's successor under pair e.

    Each component is an ascending array of nodes; the components are
    ordered by their smallest node.
    """
    n_comp, labels = _strong_components(succ)

    # A component with an edge leaving it is not final.
    leaves = np.zeros(labels.size, dtype=bool)
    for row in succ:
        leaves |= labels[row] != labels
    has_out = np.zeros(n_comp, dtype=bool)
    has_out[labels[leaves]] = True

    members = np.flatnonzero(~has_out[labels])
    member_labels = labels[members]
    order = np.argsort(member_labels, kind="stable")
    nodes = members[order]  # grouped by component, each group ascending
    starts = np.flatnonzero(np.diff(member_labels[order], prepend=-1))
    ends = np.append(starts[1:], nodes.size)
    # Slices, not np.split: its cost per piece dominated on whole-space
    # regions, where every key can be a component of its own.
    by_first = np.argsort(nodes[starts])
    return [nodes[a:b] for a, b in zip(starts[by_first].tolist(), ends[by_first].tolist())]


def final_sets(tg: TransitionGraph) -> list[np.ndarray]:
    """Bottom strongly connected components: closed and mutually reachable.

    Each set is an ascending int64 array of keys.  The sets are pairwise
    disjoint, each closed under every directed pair (exactly the
    configurations some schedule can trap the system in), and ordered by
    their first key.  The search runs in the forward closure of
    ``_start(tg)``: the start grown one stage at a time, a matched pair or
    an unmatched agent a stage, with one agent restricted to the orbit
    representatives, each stage contracted by the pairs inside the agents
    held so far.  The sets found there and their images under ``tg.group``
    are every final set.  The module docstring says why that is exact.
    """
    return _final_sets_within(tg, _start(tg))


def _final_sets_within(tg: TransitionGraph, start: np.ndarray) -> list[np.ndarray]:
    """``final_sets`` searched in the forward closure of the ascending keys ``start``.

    The bottom SCCs found there come with their images under ``tg.group``.
    Exact whenever ``start`` meets some image under ``tg.group`` of every
    final set; ``final_sets`` passes ``_start(tg)``.  The region is
    forward-closed, so each pair's image of it lies in it and
    ``np.searchsorted`` relabels it; a region holding every key is
    ``arange(config_count)``, its own labels.
    """
    region = _forward_closure(tg, start)
    whole = region.size == tg.config_count
    local = np.empty((len(tg.directed_pairs), region.size),
                     dtype=np.int32 if region.size < 2**31 else np.int64)
    for e in range(len(tg.directed_pairs)):
        moved = tg.step_keys(region, e)
        local[e] = moved if whole else np.searchsorted(region, moved)
    components = _bottom_components(local)
    if not whole:  # a whole-space region is arange(config_count): its labels are its keys
        components = [region[c] for c in components]
    del local  # the table, freed before the group's images are built
    if len(tg.group) > 1:  # with the identity alone, each set is its only image
        components = _group_images(tg, components)
    return components


def _group_images(tg: TransitionGraph, components: list[np.ndarray]) -> list[np.ndarray]:
    """Every image of the ascending key arrays ``components`` under ``tg.group``.

    The images are ascending arrays, ordered by smallest key.  Each group
    element maps digit d of every agent to sigma[d].  It commutes with
    every pair's map, so the images of final sets are final sets: two are
    equal or disjoint, and the smallest key names one.
    """
    by_min = {}
    for keys in components:
        if int(keys[0]) in by_min:  # an image of a set already mapped
            continue
        digits = tg.digits(keys)
        for sigma in tg.group:
            image = np.sort(sigma[digits] @ tg.place_values)
            by_min[int(image[0])] = image
    return [by_min[k] for k in sorted(by_min)]


class Witness(NamedTuple):
    """Replayable evidence against self-stabilization.

    kind is "output_change" (replaying ``pairs`` from ``start`` changes agent
    ``agent``'s output from ``before`` to ``after``) or "frozen_output" (no
    reachable interaction sequence ever changes any output, and agent
    ``agent``'s output ``before`` == ``after`` violates the specification) or
    "unsafe_final" (a final configuration fails the safe predicate with
    constant outputs; ``verify_transition_graph`` names the smallest failing
    key of the first final set that holds one).  ``engine.replay(protocol,
    g, w.start, w.pairs, params)`` re-simulates a witness ``w`` on the graph
    ``g`` it was found for.
    """

    kind: str
    start: tuple
    pairs: tuple[tuple[int, int], ...]
    agent: int | None
    before: object
    after: object

    def to_json(self, protocol) -> dict:
        return {
            "kind": self.kind,
            "start": [protocol.to_json(s) for s in self.start],
            "pairs": [[u, v] for u, v in self.pairs],
            "agent": self.agent,
            "before": _json_output(self.before),
            "after": _json_output(self.after),
        }


def _json_output(value):
    if isinstance(value, tuple):
        return [_json_output(x) for x in value]
    return value


def _output_change_witness(tg: TransitionGraph, start_key: int):
    """Nearest output change from ``start_key``, by breadth-first search over ``tg``'s pairs.

    Returns an output_change Witness, or None when no reachable configuration
    changes an output (never for its caller, whose final set is strongly
    connected and holds a configuration with other outputs).
    """
    pairs = tg.directed_pairs
    base_outputs = tg.outputs_of(start_key)
    parent: dict[int, tuple[int, int]] = {start_key: (-1, -1)}
    queue = deque([start_key])
    while queue:
        key = queue.popleft()
        for e in range(len(pairs)):
            nxt = int(tg.step_keys(key, e))
            if nxt in parent:
                continue
            parent[nxt] = (key, e)
            outs = tg.outputs_of(nxt)
            if outs != base_outputs:
                path = []
                cursor = nxt
                while parent[cursor][0] != -1:
                    prev, edge = parent[cursor]
                    path.append(pairs[edge])
                    cursor = prev
                path.reverse()
                agent = next(i for i in range(len(outs)) if outs[i] != base_outputs[i])
                return Witness(
                    kind="output_change",
                    start=tg.decode(start_key),
                    pairs=tuple(path),
                    agent=agent,
                    before=base_outputs[agent],
                    after=outs[agent],
                )
            queue.append(nxt)
    return None


def verify_self_stabilizing(
    protocol,
    g: Graph,
    params,
    safe_predicate: Callable,
    budget: int = DEFAULT_BUDGET,
):
    """True iff every final configuration is safe with constant outputs.

    Within a closed mutually-reachable set, constant outputs are equivalent
    to clause (ii) of safety (no execution from any member ever changes an
    output), so together with the per-configuration safe predicate this is
    exactly the final-set criterion.  Returns True or a Witness.
    """
    tg = build_transition_graph(protocol, g, params, budget)
    return verify_transition_graph(tg, final_sets(tg), safe_predicate)


def _constant_outputs(tg: TransitionGraph, digits: np.ndarray) -> tuple | None:
    """The outputs of the configuration in ``digits``' first row, or None when another row's differ.

    ``digits`` is ``tg.digits`` of some keys.  Each agent's distinct
    digits are looked up once.
    """
    output, states = tg.protocol.output, tg.states
    first = tuple(output(states[d]) for d in digits[0].tolist())
    for a, ref in enumerate(first):
        if any(output(states[d]) != ref for d in set(digits[:, a].tolist())):
            return None
    return first


def verify_transition_graph(tg: TransitionGraph, fsets, safe_predicate: Callable):
    """Final-set criterion on a prebuilt transition graph and its ``final_sets``.

    The sets, ascending key arrays, are checked in the order given, which
    for ``final_sets`` is by first key.  Each set is decoded once
    (``tg.digits``); its outputs must equal its first key's
    (``_constant_outputs``), or the witness is the nearest output change
    from that key.  The safe predicate then sees each configuration, built
    from ``tg.states``, in ascending key order, so an ``unsafe_final``
    witness is the smallest failing key of the first set that holds one.
    Returns True or a Witness.
    """
    state = tg.states.__getitem__
    for keys in fsets:
        digits = tg.digits(keys)
        outputs = _constant_outputs(tg, digits)
        if outputs is None:
            return _output_change_witness(tg, int(keys[0]))
        for row in digits.tolist():
            states = tuple(map(state, row))
            if not safe_predicate(states):
                return Witness(kind="unsafe_final", start=states, pairs=(), agent=None,
                               before=outputs, after=outputs)
    return True


def impossibility_witness(
    protocol,
    g_sub: Graph,
    g_super: Graph,
    params,
    budget: int = DEFAULT_BUDGET,
):
    """Witness that a degree-claiming protocol cannot serve two pair counts.

    Finds a configuration that is final and degree-correct on ``g_super``
    (raising NoSafeConfigOnSuper when none exists) and returns it as a
    ``frozen_output`` witness naming an agent whose claim is wrong on
    ``g_sub``.  No search over ``g_sub``'s interactions is needed: the start
    lies in a final set of the supergraph whose outputs were just found
    constant, that set is closed under every supergraph pair and so under
    the subgraph's pairs (a subset), and hence no configuration the subgraph
    can reach from the start changes an output.  The outputs stay the
    supergraph degrees, and ``g_sub`` has strictly fewer edges, so some
    agent's frozen claim is wrong there: the protocol fails on one of the two
    populations.

    ``protocol.output`` is read as the agent's claimed degree.  Raises
    ValueError unless both graphs share the agent set and ``g_sub``'s edges
    are a strict subset of ``g_super``'s.
    """
    if g_sub.n != g_super.n:
        raise ValueError("both populations must share the agent set")
    sub_edges = set(g_sub.edges)
    super_edges = set(g_super.edges)
    if not sub_edges < super_edges:
        raise ValueError("g_sub's edges must be strictly contained in g_super's")

    tg = build_transition_graph(protocol, g_super, params, budget)
    for keys in final_sets(tg):
        outputs = _constant_outputs(tg, tg.digits(keys))
        if outputs is not None and check_spec("degree", list(outputs), g_super):
            break
    else:
        raise NoSafeConfigOnSuper(
            "no final configuration with constant, degree-correct outputs on the supergraph"
        )

    agent = next(v for v in range(g_sub.n) if outputs[v] != g_sub.degree(v))
    return Witness(kind="frozen_output", start=tg.decode(keys[0]), pairs=(), agent=agent,
                   before=outputs[agent], after=outputs[agent])


# ---------------------------------------------------------------------------
# Strawman protocols: deliberately broken degree-claimers used to exercise
# the verifier and the impossibility search.
# ---------------------------------------------------------------------------


class GreedyDegreeState(NamedTuple):
    label: int
    seen: int  # bitmask of partner labels accumulated so far


def _greedy_step(s0: GreedyDegreeState, s1: GreedyDegreeState, params):
    return (
        GreedyDegreeState(s0.label, s0.seen | (1 << s1.label)),
        GreedyDegreeState(s1.label, s1.seen | (1 << s0.label)),
    )


# Monotone neighbor-label accumulation with fixed labels.  Each agent keeps a
# permanent label and grows a set of partner labels; its degree claim is the
# set size.  Works only if labels happen to be a 2-hop coloring and,
# crucially, bakes the pair count into its fixed point, which is what the
# impossibility search exploits.
GREEDY_DEGREE = Protocol(
    name="greedydegree",
    fields=(Field("label", 0, lambda params: params.n),
            Field("seen", 0, lambda params: 1 << params.n, lambda mask: list(bits(mask)))),
    flatten=lambda s: s,
    unflatten=GreedyDegreeState._make,
    step=_greedy_step,
    output=lambda s: s.seen.bit_count(),
)

# Interaction-blind strawman: states never change, output = state (a degree
# claim in 0..n).  Degree-correct final configurations exist whenever the
# needed claims fit in 0..n, but no interaction can ever repair them on a
# different graph.
FIXED_OUTPUT = Protocol(
    name="fixedoutput",
    fields=(Field("claim", 0, lambda params: params.n + 1),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=lambda s0, s1, params: (s0, s1),
    output=lambda s: s,
)
