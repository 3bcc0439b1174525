"""Exhaustive verification via final sets, and impossibility witnesses.

A protocol is self-stabilizing exactly when every *final* configuration
(member of a closed, mutually reachable set, i.e. a bottom strongly connected
component of the transition relation) is safe.  This module enumerates the
full configuration space, computes the bottom SCCs, checks a safe predicate
plus output constancy on them, and searches subgraph/supergraph pairs for
witnesses that a degree-claiming protocol cannot be self-stabilizing.

Configurations are packed into integers by mixed radix: agent 0 is the least
significant digit, each digit being the protocol's per-agent state index.
The packing is stable across runs (each protocol's field table fixes the
order of its state index; see ``engine.Protocol``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .engine import Field, Protocol
from .errors import DomainViolation, NoSafeConfigOnSuper, TooLarge
from .graph import Graph
from .neighbor import bits
from .oracles import check_spec

DEFAULT_BUDGET = 10_000_000


@dataclass
class TransitionGraph:
    """Complete successor relation over the packed configuration space."""

    protocol: object
    graph: Graph
    params: object
    agent_state_count: int
    config_count: int
    directed_pairs: tuple[tuple[int, int], ...]
    # (pairs, config_count): row e holds every key's successor under directed_pairs[e]
    successors: np.ndarray

    def decode(self, key: int) -> tuple:
        q = self.agent_state_count
        states = []
        for _ in range(self.graph.n):
            key, digit = divmod(key, q)
            states.append(self.protocol.state_from_index(digit, self.params))
        return tuple(states)

    def encode(self, states) -> int:
        q = self.agent_state_count
        key = 0
        for s in reversed(states):
            key = key * q + self.protocol.state_to_index(s, self.params)
        return key

    def successor(self, key: int, pair_index: int) -> int:
        return int(self.successors[pair_index, key])

    def outputs_of(self, key: int) -> tuple:
        return tuple(self.protocol.output(s) for s in self.decode(key))


def _pair_tables(protocol, params, q: int):
    """Tabulate the two-agent transition on state indices: (q0,q1) -> (q0',q1').

    Step results are looked up among the q states just enumerated, which
    are the whole per-agent domain, so a result not among them is out of
    the domain and raises DomainViolation instead of packing a wrong index.
    """
    states = [protocol.state_from_index(i, params) for i in range(q)]
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


def build_transition_graph(protocol, g: Graph, params, budget: int = DEFAULT_BUDGET) -> TransitionGraph:
    """Enumerate every configuration's successor under every directed pair.

    The keys are viewed as an n-dimensional array of shape (q,)*n, whose
    axis n-1-a holds agent a's digit.  Pair (u, v) moves key k with digits
    i (agent u) and j (agent v) by (t0[i,j] - i)*q^u + (t1[i,j] - j)*q^v,
    a (q, q) table broadcast over the two agents' axes, so no digit is ever
    extracted from a key.  Raises TooLarge when q^n exceeds the budget.
    """
    protocol.validate_params(params)
    if g.n != params.n:
        raise DomainViolation(f"graph has {g.n} agents but params expect {params.n}")
    q = protocol.state_count(params)
    n = g.n
    count = q**n
    if count > budget:
        raise TooLarge(count, budget)

    t0, t1 = _pair_tables(protocol, params, q)
    digits = np.arange(q, dtype=np.int64)
    index_dtype = np.int32 if count < 2**31 else np.int64
    keys = np.arange(count, dtype=index_dtype).reshape((q,) * n)
    successors = np.empty((len(g.directed_pairs), count), dtype=index_dtype)
    for e, (u, v) in enumerate(g.directed_pairs):
        # delta[i, j]: i is agent u's digit, j agent v's.
        delta = (t0 - digits[:, None]) * q**u + (t1 - digits[None, :]) * q**v
        if u < v:  # agent v's axis (n-1-v) comes first
            delta = delta.T
        shape = [1] * n
        shape[n - 1 - u] = shape[n - 1 - v] = q
        np.add(keys, delta.astype(index_dtype).reshape(shape), out=successors[e].reshape(keys.shape))
    return TransitionGraph(
        protocol=protocol,
        graph=g,
        params=params,
        agent_state_count=q,
        config_count=count,
        directed_pairs=g.directed_pairs,
        successors=successors,
    )


# Rows of the adjacency matrix are built this many at a time, so each block
# is sorted and transposed in cache.
_ROW_BLOCK = 1 << 14


def _sort_columns(block: np.ndarray) -> None:
    """Sort every column of ``block`` in place, with an insertion sorting network.

    Each compare-exchange is three vector operations over whole rows; with
    one row per directed pair that beats ``np.sort``, which sorts every
    column of a few entries on its own.
    """
    low = np.empty_like(block[0])
    for i in range(1, len(block)):
        for j in range(i, 0, -1):
            a, b = block[j - 1], block[j]
            np.minimum(a, b, out=low)
            np.maximum(a, b, out=b)
            a[...] = low


def final_sets(tg: TransitionGraph) -> list[frozenset[int]]:
    """Bottom strongly connected components: closed and mutually reachable.

    Returned sets are pairwise disjoint, each closed under every directed
    pair (exactly the configurations some schedule can trap the system in).

    Row k of the adjacency matrix holds k's successor under every pair,
    sorted, so the CSR is built directly with one entry per pair: indptr
    steps by the pair count.  A successor that repeats the one before it is
    replaced by k itself.  scipy's strong components do not return when a
    row repeats an edge to another node (already on the two-node graph
    0 -> 1 twice; K2 at tmax=2 ran for more than 30 s), while a self-loop
    is skipped there like any edge to a visited node, so the components and
    their labels are those of the deduplicated graph.  The strong components
    read only indices and indptr; the data is a read-only broadcast of one
    value instead of an array of count * pairs floats.
    """
    count = tg.config_count
    succ = tg.successors
    pairs = len(succ)
    nnz = count * pairs
    index_dtype = np.int32 if nnz < 2**31 else np.int64
    adjacency = np.empty((count, pairs), dtype=index_dtype)
    for start in range(0, count, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, count)
        # Column k - start of the block holds configuration k's successors.
        block = succ[:, start:stop].astype(index_dtype)
        _sort_columns(block)
        repeat = block[1:] == block[:-1]
        np.copyto(block[1:], np.arange(start, stop, dtype=index_dtype), where=repeat)
        adjacency[start:stop] = block.T
    indptr = np.arange(0, nnz + 1, pairs, dtype=index_dtype)
    matrix = sparse.csr_matrix(
        (np.broadcast_to(np.float64(1.0), (nnz,)), adjacency.reshape(-1), indptr),
        shape=(count, count),
    )
    n_comp, labels = csgraph.connected_components(matrix, directed=True, connection="strong")
    del matrix, adjacency, indptr

    # A component with an edge leaving it is not final.
    leaves = np.zeros(count, dtype=bool)
    for row in succ:
        leaves |= labels[row] != labels
    has_out = np.zeros(n_comp, dtype=bool)
    has_out[labels[leaves]] = True

    members = np.flatnonzero(~has_out[labels])
    if members.size == 0:
        return []
    member_labels = labels[members]
    order = np.argsort(member_labels, kind="stable")
    members = members[order]
    member_labels = member_labels[order]
    boundaries = np.flatnonzero(np.diff(member_labels)) + 1
    return [frozenset(int(k) for k in chunk) for chunk in np.split(members, boundaries)]


class Witness(NamedTuple):
    """Replayable evidence against self-stabilization.

    kind is "output_change" (replaying ``pairs`` from ``start`` changes agent
    ``agent``'s output from ``before`` to ``after``) or "frozen_output" (no
    reachable interaction sequence ever changes any output, and agent
    ``agent``'s output ``before`` == ``after`` violates the specification) or
    "unsafe_final" (a final configuration fails the safe predicate with
    constant outputs).  ``engine.replay(protocol, g, w.start, w.pairs,
    params)`` re-simulates a witness ``w`` on the graph ``g`` it was found for.
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
    if isinstance(value, (frozenset, set)):
        return sorted(value)
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
            nxt = tg.successor(key, e)
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


def verify_transition_graph(tg: TransitionGraph, fsets, safe_predicate: Callable):
    """Final-set criterion on a prebuilt transition graph and its ``final_sets``.

    Returns True or a Witness.
    """
    for fset in sorted(fsets, key=min):
        ref_key = min(fset)
        ref_outputs = tg.outputs_of(ref_key)
        for key in fset:
            if tg.outputs_of(key) != ref_outputs:
                return _output_change_witness(tg, ref_key)
        for key in fset:
            states = tg.decode(key)
            if not safe_predicate(states):
                return Witness(
                    kind="unsafe_final",
                    start=states,
                    pairs=(),
                    agent=None,
                    before=ref_outputs,
                    after=ref_outputs,
                )
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

    start_key = None
    base_outputs = None
    for fset in sorted(final_sets(tg), key=min):
        ref_key = min(fset)
        ref_outputs = tg.outputs_of(ref_key)
        if not check_spec("degree", list(ref_outputs), g_super):
            continue
        if all(tg.outputs_of(k) == ref_outputs for k in fset):
            start_key = ref_key
            base_outputs = ref_outputs
            break
    if start_key is None:
        raise NoSafeConfigOnSuper(
            "no final configuration with constant, degree-correct outputs on the supergraph"
        )

    agent = next(v for v in range(g_sub.n) if base_outputs[v] != g_sub.degree(v))
    return Witness(
        kind="frozen_output",
        start=tg.decode(start_key),
        pairs=(),
        agent=agent,
        before=base_outputs[agent],
        after=base_outputs[agent],
    )


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
            Field("seen", 0, lambda params: 1 << params.n)),
    flatten=lambda s: s,
    unflatten=GreedyDegreeState._make,
    step=_greedy_step,
    output=lambda s: s.seen.bit_count(),
    to_json=lambda s: {"label": s.label, "seen": sorted(bits(s.seen))},
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
    to_json=lambda s: {"claim": s},
)
