import dataclasses
import hashlib
import json
import re
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from poplab import _compiled, ranking, verifier
from poplab.engine import Field, Protocol, ProtocolParams, default_params, replay
from poplab.errors import DomainViolation, NoSafeConfigOnSuper, TooLarge
from poplab.graph import generate_graph, load_edge_list
from poplab.neighbor import NEIGHBOR
from poplab.oracles import SafeLevel, check_spec, classify_rank_config, safe_predicate
from poplab.ranking import BLUE, RANKING, RED, WHITE, RankState
from poplab.verifier import (
    FIXED_OUTPUT,
    GREEDY_DEGREE,
    GreedyDegreeState,
    TransitionGraph,
    Witness,
    _bottom_components,
    _pair_tables,
    _result_indices,
    _start,
    build_transition_graph,
    _final_sets_within,
    final_sets,
    impossibility_witness,
    verify_self_stabilizing,
    verify_transition_graph,
)


@pytest.fixture
def stepped(monkeypatch):
    """Every ``TransitionGraph.step_keys`` call from here on, as (pair index, number of keys)."""
    calls = []
    step_keys = TransitionGraph.step_keys

    def recorded(self, keys, pair_index):
        calls.append((pair_index, np.size(keys)))
        return step_keys(self, keys, pair_index)

    monkeypatch.setattr(TransitionGraph, "step_keys", recorded)
    return calls


@pytest.fixture
def handed(monkeypatch):
    """Every ``verifier._within`` call from here on, as (the keys handed in, the agents)."""
    calls = []
    within = verifier._within

    def recorded(tg, keys, agents):
        calls.append((keys, set(agents)))
        return within(tg, keys, agents)

    monkeypatch.setattr(verifier, "_within", recorded)
    return calls


# --- transition graphs -------------------------------------------------------


def test_configuration_space_arithmetic():
    k2 = generate_graph("complete", 2)
    params2 = ProtocolParams(n=2, tmax=1)
    tg = build_transition_graph(RANKING, k2, params2)
    assert tg.agent_state_count == 48
    assert tg.config_count == 48**2 == 2304
    assert len(tg.successors) == 2
    assert all(len(s) == 2304 for s in tg.successors)

    params3 = ProtocolParams(n=3, tmax=1)
    assert RANKING.state_count(params3) == 108
    assert 108**3 == 1_259_712


def test_encode_decode_roundtrip():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    tg = build_transition_graph(RANKING, g, params)
    for key in (0, 1, 47, 48, 2303, 1234):
        states = tg.decode(key)
        assert tg.encode(states) == key


def test_encode_rejects_out_of_range_fields():
    # Packing idA=5 at n=2 would give a key past the space (two such agents)
    # or silently another valid configuration (one such agent).
    g = generate_graph("complete", 2)
    tg = build_transition_graph(RANKING, g, ProtocolParams(n=2, tmax=1))
    bad = RankState(5, 0, RED, RED, 0)
    with pytest.raises(DomainViolation, match="^idA out of 0..1 "):
        tg.encode([bad, bad])
    with pytest.raises(DomainViolation, match="^idA out of 0..1 "):
        tg.encode([bad, tg.decode(0)[1]])  # packed as key 124 before


def test_successors_match_scalar_step():
    import random

    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    tg = build_transition_graph(RANKING, g, params)
    rng = random.Random(0)
    for _ in range(200):
        key = rng.randrange(tg.config_count)
        e = rng.randrange(len(tg.directed_pairs))
        u, v = tg.directed_pairs[e]
        states = list(tg.decode(key))
        states[u], states[v] = RANKING.step(states[u], states[v], params)
        assert tg.encode(states) == int(tg.step_keys(key, e))


@pytest.mark.parametrize("kind, n, tmax", [("complete", 2, 2), ("path", 3, 1), ("star", 3, 1)])
def test_successors_match_digit_formula(kind, n, tmax):
    # The reference extracts both agents' digits from every key and looks the
    # pair up in the two-agent tables.
    g = generate_graph(kind, n)
    params = ProtocolParams(n=n, tmax=tmax)
    tg = build_transition_graph(RANKING, g, params)
    q = tg.agent_state_count
    _, t0, t1 = _pair_tables(RANKING, params, q)
    keys = np.arange(tg.config_count, dtype=np.int64)
    assert any(u > v for u, v in tg.directed_pairs)
    assert tg.successors.shape == (len(tg.directed_pairs), tg.config_count)
    for e, (u, v) in enumerate(tg.directed_pairs):
        du = (keys // q**u) % q
        dv = (keys // q**v) % q
        expected = keys + (t0[du, dv] - du) * q**u + (t1[du, dv] - dv) * q**v
        np.testing.assert_array_equal(tg.successors[e], expected)


@pytest.mark.parametrize("kind, n, tmax", [
    ("complete", 2, 1), ("complete", 2, 2), ("path", 3, 1), ("complete", 3, 1)])
def test_step_keys_match_the_broadcast_successors(kind, n, tmax):
    # The on-demand map against the whole-space rows, which broadcast each
    # pair's table over the keys instead of extracting digits.
    import random

    g = generate_graph(kind, n)
    tg = build_transition_graph(RANKING, g, ProtocolParams(n=n, tmax=tmax))
    every_key = np.arange(tg.config_count)
    rng = random.Random(0)
    for e in range(len(tg.directed_pairs)):
        mapped = tg.step_keys(every_key, e)
        assert mapped.dtype == np.int64
        np.testing.assert_array_equal(mapped, tg.successors[e])
        for key in rng.sample(range(tg.config_count), 50):
            assert int(tg.step_keys(key, e)) == tg.successors[e, key]


def test_out_of_domain_step_raises():
    g = generate_graph("complete", 2)
    escaping = dataclasses.replace(OSCILLATOR, step=lambda s0, s1, params: (s0 + s1, s1))
    with pytest.raises(DomainViolation):
        build_transition_graph(escaping, g, ProtocolParams(n=2, tmax=1))


# --- pair tables through the compiled step -----------------------------------


# n = 4 has q = 192 at tmax=1 and q = 288 at tmax=2, so 36,864 and 82,944 reference steps.
@pytest.mark.parametrize("tmax, n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (1, 4), (2, 4)])
def test_compiled_pair_tables_match_the_python_loop(compiled, n, tmax):
    # A copy of the record is another record, so it takes the per-pair loop.
    params = ProtocolParams(n=n, tmax=tmax)
    q = RANKING.state_count(params)
    copy = dataclasses.replace(RANKING)
    assert _compiled.library_for(RANKING, params) is not None
    assert _compiled.library_for(copy, params) is None
    states, t0, t1 = _pair_tables(RANKING, params, q)
    ref_states, ref_t0, ref_t1 = _pair_tables(copy, params, q)
    assert states == ref_states
    assert t0.dtype == t1.dtype == np.int64
    np.testing.assert_array_equal(t0, ref_t0)
    np.testing.assert_array_equal(t1, ref_t1)


def _frozen_labels_step(s0, s1, params):
    """RANKING's step with the agent labels never moving."""
    r0, r1 = ranking.step(s0, s1, params)
    return r0._replace(idA=s0.idA), r1._replace(idA=s1.idA)


def test_a_mutated_ranking_record_takes_the_python_tables(compiled):
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    mutant = dataclasses.replace(RANKING, step=_frozen_labels_step)
    assert _compiled.library_for(mutant, params) is None
    q = RANKING.state_count(params)
    mutant_t0, ranking_t0 = (_pair_tables(p, params, q)[1] for p in (mutant, RANKING))
    assert not np.array_equal(mutant_t0, ranking_t0)
    assert verify_self_stabilizing(RANKING, g, params, safe_predicate(RANKING, g, params)) is True
    verdict = verify_self_stabilizing(mutant, g, params, safe_predicate(RANKING, g, params))
    assert isinstance(verdict, Witness) and verdict.kind == "unsafe_final"
    assert verdict.start[0].idA == verdict.start[1].idA


def test_result_indices_reject_a_row_outside_the_field_ranges():
    params = ProtocolParams(n=2, tmax=1)
    q = RANKING.state_count(params)
    rows = np.array([RANKING.flatten(RANKING.state_from_index(i, params)) for i in range(q)],
                    dtype=np.uint64)
    pairs = np.empty((q, q, 2, rows.shape[1]), dtype=np.uint64)
    pairs[:, :, 0] = rows[:, None]
    pairs[:, :, 1] = rows[None, :]
    pairs = pairs.reshape(q * q, 2, rows.shape[1])
    t0, t1 = _result_indices(RANKING, params, pairs, q)  # unstepped: each state's own index
    np.testing.assert_array_equal(t0, np.repeat(np.arange(q)[:, None], q, axis=1))
    np.testing.assert_array_equal(t1, np.repeat(np.arange(q)[None, :], q, axis=0))
    pairs[7, 1, 4] = 2  # timerT past tmax in pair 7's responder
    pairs[9, 0, 0] = 5  # idA past n - 1 in a later pair
    first = RankState(*rows[7].tolist())._replace(timerT=2)
    with pytest.raises(DomainViolation, match=rf"^step result {re.escape(repr(first))} "
                                              rf"is not one of the {q} states$"):
        _result_indices(RANKING, params, pairs, q)


@pytest.mark.parametrize("protocol", [GREEDY_DEGREE, FIXED_OUTPUT], ids=lambda p: p.name)
def test_other_protocols_never_load_the_library(monkeypatch, protocol):
    def no_library():
        raise AssertionError("library loaded for a protocol _loop.c does not step")

    monkeypatch.setattr(_compiled, "library", no_library)
    g, params = generate_graph("path", 3), ProtocolParams(n=3, tmax=1)
    # Every final set of both keeps its outputs, so only the predicate could fail it.
    assert verify_self_stabilizing(protocol, g, params, lambda states: True) is True


def test_neighbor_state_space_exceeds_budget():
    g = generate_graph("complete", 2)
    params = default_params(g, know_m=True)
    with pytest.raises(TooLarge):
        build_transition_graph(NEIGHBOR, g, params)


def test_budget_override():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    with pytest.raises(TooLarge):
        build_transition_graph(RANKING, g, params, budget=1000)


def test_graph_params_mismatch():
    g = generate_graph("complete", 3)
    with pytest.raises(DomainViolation):
        build_transition_graph(RANKING, g, ProtocolParams(n=2, tmax=1))


# --- final sets ---------------------------------------------------------------


def test_final_sets_disjoint_and_closed():
    # The contract of final_sets: ascending int64 key arrays, pairwise
    # disjoint, ordered by first key, each closed under every pair's map.
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    tg = build_transition_graph(RANKING, g, params)
    fsets = final_sets(tg)
    assert fsets
    for fset in fsets:
        assert isinstance(fset, np.ndarray) and fset.dtype == np.int64 and fset.ndim == 1
        assert fset.size and np.all(np.diff(fset) > 0)
        for e in range(len(tg.directed_pairs)):
            assert np.isin(tg.step_keys(fset, e), fset).all()
    firsts = [int(f[0]) for f in fsets]
    assert firsts == sorted(firsts)
    every = np.concatenate(fsets)
    assert np.unique(every).size == every.size


def test_ranking_final_sets_are_ranked_k2():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    tg = build_transition_graph(RANKING, g, params)
    for fset in final_sets(tg):
        for key in fset:
            assert classify_rank_config(tg.decode(key), params) is SafeLevel.RANKED


def test_greedy_degree_final_sets_are_absorbing_singletons():
    g = generate_graph("path", 3)
    params = ProtocolParams(n=3, tmax=1)
    tg = build_transition_graph(GREEDY_DEGREE, g, params)
    fsets = final_sets(tg)
    assert fsets
    for fset in fsets:
        assert len(fset) == 1
        key = next(iter(fset))
        assert all(int(tg.step_keys(key, e)) == key for e in range(len(tg.successors)))


@pytest.mark.parametrize("protocol, kind, n, tmax", [
    (RANKING, "complete", 2, 1),
    (RANKING, "complete", 2, 2),
    (GREEDY_DEGREE, "path", 3, 1),
    # Every pair leaves every configuration where it is, so every row of the
    # adjacency matrix repeats one self-loop and every configuration is final.
    (FIXED_OUTPUT, "complete", 3, 1),
], ids=lambda x: getattr(x, "name", x))
def test_final_sets_match_attracting_components(protocol, kind, n, tmax):
    # The ranking and greedydegree rows repeat edges to other configurations.
    g = generate_graph(kind, n)
    tg = build_transition_graph(protocol, g, ProtocolParams(n=n, tmax=tmax))
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(tg.config_count))
    for succ in tg.successors:
        digraph.add_edges_from(enumerate(succ.tolist()))
    expected = sorted(sorted(c) for c in nx.attracting_components(digraph))
    assert sorted(sorted(f) for f in final_sets(tg)) == expected


def test_bottom_components_return_on_a_repeated_edge():
    # Node 0 goes to node 1 under both pairs, and node 1 to itself: a repeated
    # edge and self-loops, which the strong-component search drops before it
    # starts.  A search that looped on such a graph would never return, so the
    # call runs in a child process that a timeout can stop.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import numpy as np; from poplab.verifier import _bottom_components; "
            "print([c.tolist() for c in _bottom_components(np.array([[1, 1], [1, 1]], dtype=np.int32))])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[1]]"


# --- verification -------------------------------------------------------------


def test_ranking_self_stabilizing_k2():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    assert verify_self_stabilizing(RANKING, g, params, safe_predicate(RANKING, g, params)) is True


@pytest.mark.parametrize("kind", ["complete", "path"])
@pytest.mark.parametrize("tmax", [2])
def test_ranking_self_stabilizing_n3_full_enumeration(kind, tmax):
    # tmax=1 for these graphs is exercised by the acceptance suite; together
    # they cover every connected population with n <= 3 and tmax <= 2.
    g = generate_graph(kind, 3)
    params = ProtocolParams(n=3, tmax=tmax)
    assert verify_self_stabilizing(RANKING, g, params, safe_predicate(RANKING, g, params)) is True


GRAPHS = Path(__file__).resolve().parent / "graphs"


def _graph4(kind):
    """A 4-agent graph: a generator kind, or the paw or the diamond from their edge lists."""
    if kind in ("paw", "diamond"):
        return load_edge_list(GRAPHS / f"{kind}.txt")
    return generate_graph(kind, 4)


# Every connected 4-agent graph.  With the right n every final set ranks,
# one per ranking and color pattern: 4! = 24 sets.
@pytest.mark.parametrize("kind, tmax, final_configurations", [
    pytest.param(kind, 1, 9216, id=kind)
    for kind in ("complete", "cycle", "path", "star", "paw", "diamond")
] + [
    pytest.param("complete", 2, 84_096, id="complete-tmax2"),
    pytest.param("path", 2, 21_504, id="path-tmax2"),
    pytest.param("cycle", 2, 47_616, id="cycle-tmax2"),
    pytest.param("paw", 2, 36_480, id="paw-tmax2"),
    pytest.param("diamond", 2, 62_208, id="diamond-tmax2"),
    pytest.param("star", 2, 16_128, id="star-tmax2"),
])
def test_ranking_self_stabilizing_n4(monkeypatch, kind, tmax, final_configurations):
    # 192^4 ≈ 1.4e9 configurations at tmax=1 and 288^4 ≈ 6.9e9 at tmax=2,
    # above the default budget.
    g = _graph4(kind)
    assert g.n == 4
    params = ProtocolParams(n=4, tmax=tmax)
    found = []

    def recorded(tg):
        found.extend(final_sets(tg))
        return found

    monkeypatch.setattr(verifier, "final_sets", recorded)
    predicate = safe_predicate(RANKING, g, params)
    assert verify_self_stabilizing(RANKING, g, params, predicate, budget=10**10) is True
    assert len(found) == 24
    assert sum(map(len, found)) == final_configurations


def test_ranking_self_stabilizing_k2_tmax2():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=2)
    assert verify_self_stabilizing(RANKING, g, params, safe_predicate(RANKING, g, params)) is True


def test_greedy_degree_fails_verification_with_witness():
    g = generate_graph("path", 3)
    params = ProtocolParams(n=3, tmax=1)
    verdict = verify_self_stabilizing(GREEDY_DEGREE, g, params, safe_predicate(GREEDY_DEGREE, g, params))
    assert isinstance(verdict, Witness)
    assert verdict.kind == "unsafe_final"
    outputs = [GREEDY_DEGREE.output(s) for s in verdict.start]
    assert not check_spec("degree", outputs, g)
    assert verdict.to_json(GREEDY_DEGREE) == {
        "kind": "unsafe_final",
        "start": [{"label": 0, "seen": [0]}] * 3,
        "pairs": [],
        "agent": None,
        "before": [1, 1, 1],
        "after": [1, 1, 1],
    }


# Deliberately unstable toy: both parties toggle a bit; output = bit.
OSCILLATOR = Protocol(
    name="oscillator",
    fields=(Field("bit", 0, lambda params: 2),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=lambda s0, s1, params: (1 - s0, 1 - s1),
    output=lambda s: s,
)


def test_output_change_witness_is_replayable():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    verdict = verify_self_stabilizing(OSCILLATOR, g, params, lambda states: True)
    assert isinstance(verdict, Witness)
    assert verdict.kind == "output_change"
    assert verdict.pairs
    end = replay(OSCILLATOR, g, verdict.start, verdict.pairs, params)
    assert OSCILLATOR.output(end[verdict.agent]) == verdict.after
    assert OSCILLATOR.output(verdict.start[verdict.agent]) == verdict.before
    assert verdict.before != verdict.after
    assert verdict.to_json(OSCILLATOR) == {
        "kind": "output_change", "start": [{"bit": 0}, {"bit": 0}], "pairs": [[0, 1]],
        "agent": 0, "before": 0, "after": 1,
    }


# --- final sets against the whole configuration space -----------------------


# Every pair swaps the two agents' states: every pair's map is a permutation
# of the configurations, so the image never contracts and the region is the
# whole space.
SWAP = Protocol(
    name="swap",
    fields=(Field("value", 0, lambda params: 5),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=lambda s0, s1, params: (s1, s0),
    output=lambda s: s,
)


# States 0 and 1 never change; 2, 3 and 4 cycle.  The initiator and the
# responder of a pair act differently, so (u, v) and (v, u) have different
# maps, and neither is a permutation.  A cycling agent whose neighbors all
# hold 1 is stuck, so the final sets depend on the graph.
def _capture_step(s0, s1, params):
    if s0 >= 2 and s1 >= 2:  # both cycle: the initiator advances, 2 -> 3 -> 4 -> 2
        return s0 % 3 + 2, s1
    if s0 == 0 and s1 >= 2:  # 0 pushes a cycling responder on, and catches it at 4
        return s0, 0 if s1 == 4 else s1 + 1
    return s0, s1


CAPTURE = Protocol(
    name="capture",
    fields=(Field("value", 0, lambda params: 5),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=_capture_step,
    output=lambda s: s,
)


# States 0..5 on a circle.  Two odd states move the initiator on by two,
# and an even initiator captures an odd responder one step ahead of it, so
# even states never change.  Each rule reads only the parities and the
# difference of the two states, so the step commutes with adding 2 mod 6,
# which the record declares: the group has order 3 and two orbits, {0, 2, 4}
# and {1, 3, 5}.  The restricted agent's even states stay 0, so the search
# from the restricted start misses the final sets where it holds 2 or 4,
# and only their images under the group bring them back.
def _orbit_step(s0, s1, params):
    if s0 % 2 and s1 % 2:
        return (s0 + 2) % 6, s1
    if s0 % 2 == 0 and (s1 - s0) % 6 == 1:
        return s0, s0
    return s0, s1


ORBIT = Protocol(
    name="orbit",
    fields=(Field("value", 0, lambda params: 6),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=_orbit_step,
    output=lambda s: s,
    symmetries=(lambda s, params: (s + 2) % 6,),
)


def _scipy_bottom_components(succ):
    """Bottom SCCs of the graph whose row e is every node's successor under pair e, by
    scipy's strong components of the deduplicated graph and a scan for leaving edges;
    each ascending, ordered by smallest node."""
    from scipy import sparse
    from scipy.sparse import csgraph

    pairs, count = succ.shape
    matrix = sparse.csr_matrix(
        (np.ones(count * pairs), np.ascontiguousarray(succ.T).reshape(-1),
         np.arange(0, count * pairs + 1, pairs)), shape=(count, count))
    matrix.sum_duplicates()
    n_comp, labels = csgraph.connected_components(matrix, directed=True, connection="strong")
    has_out = np.zeros(n_comp, dtype=bool)
    for row in succ:
        has_out[labels[labels[row] != labels]] = True
    components = {}
    for key in np.flatnonzero(~has_out[labels]).tolist():
        components.setdefault(labels[key], []).append(key)
    return sorted(components.values())


@pytest.mark.parametrize("seed", range(48))
def test_bottom_components_match_scipy(seed):
    # Seeded successor tables in four shapes, cycled by the seed: random
    # targets, targets near the node (many small components), rows that are
    # all permutations (every component is an orbit, and final), and nodes
    # whose only edges are self-loops.  All but the permutations get extra
    # self-loops, and every table of two or more rows repeats its first row
    # as its last.
    rng = np.random.default_rng(seed)
    pairs, count = int(rng.integers(1, 7)), int(rng.integers(1, 400))
    nodes = np.arange(count)
    shape = seed % 4
    if shape == 1:
        succ = (nodes + rng.integers(-3, 4, size=(pairs, count))) % count
    elif shape == 2:
        succ = np.stack([rng.permutation(count) for _ in range(pairs)])
    else:
        succ = rng.integers(0, count, size=(pairs, count))
    if shape != 2:
        loops = rng.random((pairs, count)) < 0.3
        succ[loops] = np.broadcast_to(nodes, succ.shape)[loops]
    if shape == 3:
        idle = rng.random(count) < 0.2
        succ[:, idle] = nodes[idle]
    if pairs > 1:
        succ[-1] = succ[0]
    succ = succ.astype(np.int32)
    expected = _scipy_bottom_components(succ)
    assert [c.tolist() for c in _bottom_components(succ)] == expected


def verify_by_decoding_every_key(tg, fsets, predicate):
    """The final-set check decoded key by key: the reference for verify_transition_graph."""
    output = tg.protocol.output
    for fset in fsets:
        configs = {key: tg.decode(key) for key in fset}
        ref_outputs = tuple(map(output, configs[min(fset)]))
        if any(tuple(map(output, states)) != ref_outputs for states in configs.values()):
            return verifier._output_change_witness(tg, min(fset))
        for states in configs.values():
            if not predicate(states):
                return Witness("unsafe_final", states, (), None, ref_outputs, ref_outputs)
    return True


@pytest.mark.parametrize("protocol, kind, n, predicate", [
    (RANKING, "complete", 3, None),
    (RANKING, "path", 3, None),
    # Rejects most of the final configurations: the witness is the first of them.
    (RANKING, "path", 3, lambda states: states[0].idA == 0 and states[1].colorA != WHITE),
    (GREEDY_DEGREE, "path", 3, None),
    (FIXED_OUTPUT, "complete", 3, None),
    (OSCILLATOR, "complete", 3, lambda states: True),
    (SWAP, "path", 3, lambda states: states[2] != 1),
], ids=["ranking-K3", "ranking-P3", "ranking-P3-strict", "greedydegree-P3", "fixedoutput-K3",
        "oscillator-K3", "swap-P3"])
def test_verify_decodes_each_final_set_once_with_the_same_verdict(protocol, kind, n, predicate):
    g = generate_graph(kind, n)
    params = ProtocolParams(n=n, tmax=1)
    tg = build_transition_graph(protocol, g, params)
    fsets = final_sets(tg)
    if predicate is None:
        predicate = safe_predicate(protocol, g, params)
    verdict = verify_transition_graph(tg, fsets, predicate)
    assert verdict == verify_by_decoding_every_key(tg, fsets, predicate)
    if verdict is not True:
        assert json.dumps(verdict.to_json(protocol)) == json.dumps(
            verify_by_decoding_every_key(tg, fsets, predicate).to_json(protocol))


@pytest.mark.parametrize("kind", ["complete", "path"])
@pytest.mark.parametrize("predicate, position", [
    # The strict predicate of the test above: the first key already fails.
    (lambda states: states[0].idA == 0 and states[1].colorA != WHITE, 0),
    # Passes the first nine keys of the first set and fails the tenth.
    (lambda states: not (states[0].colorA == BLUE and states[2].colorT == BLUE), 9),
], ids=["strict", "blue-pair"])
def test_unsafe_final_witness_is_the_smallest_failing_key_of_the_first_failing_set(kind, predicate,
                                                                                   position):
    # The sets are ascending key arrays, checked in order, so no key before
    # the witness fails: not in an earlier set, not lower in its own.
    g = generate_graph(kind, 3)
    tg = build_transition_graph(RANKING, g, ProtocolParams(n=3, tmax=1))
    fsets = final_sets(tg)
    verdict = verify_transition_graph(tg, fsets, predicate)
    assert verdict.kind == "unsafe_final"
    key = tg.encode(verdict.start)
    (at,) = [i for i, f in enumerate(fsets) if key in f]
    assert fsets[at].size > 1
    assert int(np.searchsorted(fsets[at], key)) == position
    earlier = np.concatenate([*fsets[:at], fsets[at][fsets[at] < key]])
    assert all(predicate(tg.decode(k)) for k in earlier.tolist())


@pytest.mark.parametrize("protocol, kind, n, tmax", [
    (RANKING, "complete", 2, 1),
    (RANKING, "complete", 2, 2),
    (RANKING, "complete", 2, 3),
    (RANKING, "path", 3, 1),
    (RANKING, "complete", 3, 1),
    (RANKING, "star", 3, 1),
    (GREEDY_DEGREE, "path", 3, 1),
    (GREEDY_DEGREE, "complete", 3, 1),
    (FIXED_OUTPUT, "complete", 3, 1),
    (OSCILLATOR, "complete", 3, 1),
    (SWAP, "path", 3, 1),
    (SWAP, "complete", 3, 1),
    # Two matched pairs, each with its own contracted factor; the star's
    # greedy matching leaves two agents unmatched.
    (CAPTURE, "complete", 4, 1),
    (CAPTURE, "cycle", 4, 1),
    (CAPTURE, "path", 4, 1),
    (CAPTURE, "star", 4, 1),
    # A declared symmetry of order 3: the start restricts one agent to the
    # two orbit minima, and the group's images give the other final sets.
    (ORBIT, "complete", 4, 1),
    (ORBIT, "cycle", 4, 1),
    (ORBIT, "path", 4, 1),
    (ORBIT, "star", 4, 1),
], ids=lambda x: getattr(x, "name", x))
def test_final_sets_match_the_whole_space(protocol, kind, n, tmax):
    g = generate_graph(kind, n)
    tg = build_transition_graph(protocol, g, ProtocolParams(n=n, tmax=tmax))
    # Every symmetry declared here holds, so each such record searches a restricted start.
    assert (len(tg.group) > 1) == bool(protocol.symmetries)
    got = final_sets(tg)
    assert [sorted(f) for f in got] == _scipy_bottom_components(tg.successors)
    if protocol in (FIXED_OUTPUT, SWAP):
        assert sum(map(len, got)) == tg.config_count
    every_key = np.arange(tg.config_count, dtype=tg.successors.dtype)
    assert [f.tolist() for f in _final_sets_within(tg, every_key)] == [f.tolist() for f in got]


@pytest.mark.parametrize("kind", ["complete", "path"])
def test_start_is_the_contracted_part_times_the_unmatched_digits(stepped, handed, kind):
    # Pair (0, 1) is matched and agent 2 is not, so the start has two
    # stages.  The last is handed the contracted part of agents 0 and 1
    # times agent 2's digits: all q of them for a record without
    # symmetries, and one per orbit for RANKING, whose label rotation and
    # color swap generate a group of order 2n = 6.  Without the part's
    # contraction the unrestricted product would be pair (0, 1)'s
    # 4,704-key table image times q, 762,048 keys.
    g = generate_graph(kind, 3)
    params = ProtocolParams(n=3, tmax=2)
    tg = build_transition_graph(RANKING, g, params)
    plain = build_transition_graph(dataclasses.replace(RANKING, symmetries=()), g, params)
    q = tg.agent_state_count
    assert tg.directed_pairs[0] == (0, 1)
    assert len(plain.group) == 1 and len(tg.group) == 6
    representatives = tg.representatives
    # The group acts freely: every state lies in exactly one orbit of 6.
    assert np.unique(tg.group[:, representatives]).size == q == 6 * representatives.size
    np.testing.assert_array_equal(representatives, np.unique(tg.group.min(axis=0)))

    for record, digits, size in [(plain, np.arange(q), 89_424), (tg, representatives, 14_904)]:
        handed.clear()
        stepped.clear()
        final_sets(record)
        # The pair's table image within the pair, then the product within all three agents.
        assert [agents for _, agents in handed] == [{0, 1}, {0, 1, 2}]
        product = handed[-1][0]
        digit, low = np.divmod(product, q * q)
        factor = np.unique(low)
        assert factor.size == 552
        assert np.unique(product).size == product.size == factor.size * digits.size == size
        np.testing.assert_array_equal(np.unique(digit), digits)
        assert max(count for _, count in stepped) <= product.size
        for pair in [(0, 1), (1, 0)]:  # contracted: neither of its pairs shrinks it
            assert np.unique(record.step_keys(factor, record.directed_pairs.index(pair))).size == factor.size
    assert [f.tolist() for f in final_sets(tg)] == [f.tolist() for f in final_sets(plain)]


@pytest.mark.parametrize("tmax", [1, 2])
def test_the_star_never_steps_both_unmatched_agents_whole(stepped, tmax):
    # Every matching of the star leaves two agents unmatched.  A start that
    # multiplied every state of the second one into the product stepped
    # 13,713,408 keys at tmax=1 and 30,855,168 at tmax=2; growing the start
    # one agent at a time steps at most 1,311,360 and 2,149,632.
    g = generate_graph("star", 4)
    params = ProtocolParams(n=4, tmax=tmax)
    tg = build_transition_graph(RANKING, g, params, budget=10**10)
    assert len(final_sets(tg)) == 24
    assert max(count for _, count in stepped) < 4_000_000


# sha256 of the start arrays that the matching product and its contraction
# by one pair at a time gave before the start was grown in stages: the
# verify-exhaustive graphs, the impossibility search's supergraph and K4.
START_SHA256 = {
    "ranking-complete:3-tmax2": (RANKING, "complete", 3, 2,
                                 "cfffcafb8155ae76c03144ca3f8456563660afc74f79abbc0d63722290095462"),
    "ranking-path:3-tmax2": (RANKING, "path", 3, 2,
                             "3bfd7f94e7d9d61031ce7d0a6826b6d480a7f436bb58a9d397517be808cd993c"),
    "greedydegree-complete:3": (GREEDY_DEGREE, "complete", 3, 1,
                                "cf1d3fd8ae51372e5a13946f78af254b05f1b5334c24f0ad64e94f027c881c93"),
    "ranking-complete:4": (RANKING, "complete", 4, 1,
                           "bce7e82c2c5cb7eef288b96ec274648182021ebb3ab02d2b723cc9fc5c75b928"),
}


@pytest.mark.parametrize("protocol, kind, n, tmax, digest", list(START_SHA256.values()),
                         ids=list(START_SHA256))
def test_start_keeps_the_recorded_arrays(protocol, kind, n, tmax, digest):
    tg = build_transition_graph(protocol, generate_graph(kind, n), ProtocolParams(n=n, tmax=tmax),
                                budget=10**10)
    start = _start(tg)
    assert start.dtype == np.int64
    assert hashlib.sha256(start.tobytes()).hexdigest() == digest


def _red_recolor_step(s0, s1, params):
    """RANKING's step with every periodic recoloring picking RED.

    A token's timer reads tmax after a step only when it was just reloaded.
    """
    return tuple(r._replace(colorA=RED, colorT=RED) if r.timerT == params.tmax else r
                 for r in ranking.step(s0, s1, params))


def _fixed_responder_step(s0, s1, params):
    """ORBIT's step with a responder in state 5 always left in state 1: only t1 breaks the symmetry."""
    r0, r1 = _orbit_step(s0, s1, params)
    return r0, 1 if s1 == 5 else r1


@pytest.mark.parametrize("mutant", [
    dataclasses.replace(RANKING, step=_red_recolor_step),
    dataclasses.replace(ORBIT, step=_fixed_responder_step),
    dataclasses.replace(RANKING, symmetries=(ranking.rotate_labels,
                                             lambda s, params: s._replace(idA=s.idA + 1))),
    dataclasses.replace(RANKING, symmetries=(lambda s, params: s._replace(colorA=WHITE),)),
], ids=["breaks-the-color-swap", "breaks-the-responder-table", "leaves-the-states",
        "not-a-permutation"])
@pytest.mark.parametrize("kind, n", [("complete", 2), ("path", 3)])
def test_a_broken_symmetry_searches_every_start(mutant, kind, n):
    # The red recoloring commutes with the label rotation but not with the
    # color swap; the fixed responder keeps the initiator's table symmetric;
    # idA + 1 is no state for the last label; whitening every agent sends
    # two states to one.  Each record loses its whole group, with no error,
    # and gets the final sets of the whole space.
    g = generate_graph(kind, n)
    params = ProtocolParams(n=n, tmax=1)
    tg = build_transition_graph(mutant, g, params)
    plain = build_transition_graph(dataclasses.replace(mutant, symmetries=()), g, params)
    assert len(tg.group) == 1
    assert tg.representatives.size == tg.agent_state_count
    np.testing.assert_array_equal(_start(tg), _start(plain))
    got = final_sets(tg)
    assert [sorted(f) for f in got] == _scipy_bottom_components(tg.successors)


@pytest.mark.parametrize("n, tmax", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_ranking_declares_a_group_of_order_2n(n, tmax):
    # The verifier's table check accepts both maps, and the Python step,
    # which those tables do not come from, agrees on a sample of pairs.
    import random

    params = ProtocolParams(n=n, tmax=tmax)
    tg = build_transition_graph(RANKING, generate_graph("path", n), params, budget=10**10)
    assert len(tg.group) == 2 * n
    assert tg.representatives.size * 2 * n == tg.agent_state_count
    rng = random.Random(n * 10 + tmax)
    for _ in range(500):
        s0, s1 = (RANKING.state_from_index(rng.randrange(tg.agent_state_count), params) for _ in "01")
        for symmetry in RANKING.symmetries:
            moved = ranking.step(symmetry(s0, params), symmetry(s1, params), params)
            assert moved == tuple(symmetry(r, params) for r in ranking.step(s0, s1, params))


@pytest.mark.parametrize("protocol, kind", [
    (FIXED_OUTPUT, "complete"), (SWAP, "complete"), (SWAP, "path"), (OSCILLATOR, "star"),
], ids=lambda x: getattr(x, "name", x))
def test_permutation_protocols_step_each_pair_once(stepped, protocol, kind):
    # The start set is every key, which no permutation can contract and
    # which is its own closure, so the one pass left relabels the region.
    g = generate_graph(kind, 4)
    tg = build_transition_graph(protocol, g, ProtocolParams(n=4, tmax=1))
    assert tg.permutes
    got = final_sets(tg)
    assert sorted(e for e, _ in stepped) == list(range(len(tg.directed_pairs)))
    assert sum(map(len, got)) == tg.config_count


@pytest.mark.parametrize("protocol", [RANKING, GREEDY_DEGREE], ids=lambda p: p.name)
def test_contracting_protocols_do_not_permute(protocol):
    tg = build_transition_graph(protocol, generate_graph("complete", 2), ProtocolParams(n=2, tmax=1))
    assert not tg.permutes


# Every pair sends both agents to state 0, so {0} is the one final set.
TO_ZERO = Protocol(
    name="tozero",
    fields=(Field("value", 0, lambda params: 64),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=lambda s0, s1, params: (0, 0),
    output=lambda s: s,
)


def test_final_sets_allocate_nothing_the_size_of_the_space(handed):
    # 64^7 ≈ 4.4e12 configurations: an array with one byte per
    # configuration would raise MemoryError.
    g = generate_graph("path", 7)
    params = ProtocolParams(n=7, tmax=1)
    count = 64**7
    tg = build_transition_graph(TO_ZERO, g, params, budget=count + 1)
    assert tg.config_count == count
    assert _start(tg).tolist() == [0]
    last, agents = handed[-1]  # agent 6 is unmatched: the last stage adds its digits
    assert agents == set(range(7))
    assert last.dtype == np.int64
    assert sorted(last.tolist()) == [d * 64**6 for d in range(64)]
    assert tg.step_keys(last, len(tg.directed_pairs) - 1).dtype == np.int64
    assert [f.tolist() for f in final_sets(tg)] == [[0]]
    assert verify_self_stabilizing(TO_ZERO, g, params, lambda states: True, budget=count + 1) is True
    assert "successors" not in tg.__dict__


# --- impossibility search ------------------------------------------------------


def test_impossibility_witness_greedy_degree():
    p3 = generate_graph("path", 3)
    k3 = generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=1)
    witness = impossibility_witness(GREEDY_DEGREE, p3, k3, params)
    assert isinstance(witness, Witness)
    # The start is final and degree-correct on the supergraph...
    start_outputs = [GREEDY_DEGREE.output(s) for s in witness.start]
    assert check_spec("degree", start_outputs, k3)
    # ...but on the subgraph the endpoint claims are frozen wrong.
    assert witness.kind == "frozen_output"
    assert not witness.pairs
    assert start_outputs[witness.agent] != p3.degree(witness.agent)
    assert witness.before == witness.after == start_outputs[witness.agent]
    # Replay is a no-op that reproduces the recorded outputs bit-exactly.
    end = replay(GREEDY_DEGREE, p3, witness.start, witness.pairs, params)
    assert [GREEDY_DEGREE.output(s) for s in end] == start_outputs


def test_impossibility_witness_fixed_output():
    p3 = generate_graph("path", 3)
    k3 = generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=1)
    witness = impossibility_witness(FIXED_OUTPUT, p3, k3, params)
    assert witness is not None
    assert witness.kind == "frozen_output"


# Frozen bits whose every output is 0: no degree claim is ever correct.
ALL_ZERO = dataclasses.replace(
    OSCILLATOR, name="allzero", step=lambda s0, s1, params: (s0, s1), output=lambda s: 0
)


def test_impossibility_no_safe_config_on_super():
    p3 = generate_graph("path", 3)
    k3 = generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=1)
    with pytest.raises(NoSafeConfigOnSuper):
        impossibility_witness(ALL_ZERO, p3, k3, params)


def test_impossibility_requires_strict_subgraph():
    p3 = generate_graph("path", 3)
    k3 = generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=1)
    with pytest.raises(ValueError):
        impossibility_witness(GREEDY_DEGREE, p3, p3, params)
    with pytest.raises(ValueError):
        impossibility_witness(GREEDY_DEGREE, k3, p3, params)


def test_witness_json_shape():
    p3 = generate_graph("path", 3)
    k3 = generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=1)
    witness = impossibility_witness(GREEDY_DEGREE, p3, k3, params)
    obj = witness.to_json(GREEDY_DEGREE)
    blob = json.dumps(obj)  # must be serializable
    assert set(obj) == {"kind", "start", "pairs", "agent", "before", "after"}
    assert isinstance(obj["start"], list) and len(obj["start"]) == 3
    assert obj["agent"] == witness.agent
    assert "seen" in obj["start"][0]
    assert json.loads(blob) == obj
