import dataclasses
import json

import networkx as nx
import numpy as np
import pytest

from poplab.engine import Field, Protocol, ProtocolParams, default_params, replay
from poplab.errors import DomainViolation, NoSafeConfigOnSuper, TooLarge
from poplab.graph import generate_graph
from poplab.neighbor import NEIGHBOR
from poplab.oracles import SafeLevel, check_spec, classify_rank_config, safe_predicate
from poplab.ranking import RANKING, RED, RankState
from poplab.verifier import (
    FIXED_OUTPUT,
    GREEDY_DEGREE,
    GreedyDegreeState,
    Witness,
    _pair_tables,
    build_transition_graph,
    final_sets,
    impossibility_witness,
    verify_self_stabilizing,
    verify_transition_graph,
)


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
        assert tg.encode(states) == tg.successor(key, e)


@pytest.mark.parametrize("kind, n, tmax", [("complete", 2, 2), ("path", 3, 1), ("star", 3, 1)])
def test_successors_match_digit_formula(kind, n, tmax):
    # The reference extracts both agents' digits from every key and looks the
    # pair up in the two-agent tables.
    g = generate_graph(kind, n)
    params = ProtocolParams(n=n, tmax=tmax)
    tg = build_transition_graph(RANKING, g, params)
    q = tg.agent_state_count
    t0, t1 = _pair_tables(RANKING, params, q)
    keys = np.arange(tg.config_count, dtype=np.int64)
    assert any(u > v for u, v in tg.directed_pairs)
    assert tg.successors.shape == (len(tg.directed_pairs), tg.config_count)
    for e, (u, v) in enumerate(tg.directed_pairs):
        du = (keys // q**u) % q
        dv = (keys // q**v) % q
        expected = keys + (t0[du, dv] - du) * q**u + (t1[du, dv] - dv) * q**v
        np.testing.assert_array_equal(tg.successors[e], expected)


def test_out_of_domain_step_raises():
    g = generate_graph("complete", 2)
    escaping = dataclasses.replace(OSCILLATOR, step=lambda s0, s1, params: (s0 + s1, s1))
    with pytest.raises(DomainViolation):
        build_transition_graph(escaping, g, ProtocolParams(n=2, tmax=1))


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
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    tg = build_transition_graph(RANKING, g, params)
    fsets = final_sets(tg)
    assert fsets
    seen = set()
    for fset in fsets:
        assert not (fset & seen)
        seen |= fset
        for key in fset:
            for e in range(len(tg.successors)):
                assert tg.successor(key, e) in fset


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
        assert all(tg.successor(key, e) == key for e in range(len(tg.successors)))


@pytest.mark.parametrize("protocol, kind, n, tmax", [
    (RANKING, "complete", 2, 1),
    (RANKING, "complete", 2, 2),
    (GREEDY_DEGREE, "path", 3, 1),
    # Every pair leaves every configuration where it is, so every row of the
    # adjacency matrix repeats one self-loop and every configuration is final.
    (FIXED_OUTPUT, "complete", 3, 1),
], ids=lambda x: getattr(x, "name", x))
def test_final_sets_match_attracting_components(protocol, kind, n, tmax):
    # The ranking and greedydegree rows repeat edges to other configurations,
    # on which scipy's strong components hang unless final_sets turns the
    # repeats into self-loops.
    g = generate_graph(kind, n)
    tg = build_transition_graph(protocol, g, ProtocolParams(n=n, tmax=tmax))
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(tg.config_count))
    for succ in tg.successors:
        digraph.add_edges_from(enumerate(succ.tolist()))
    expected = sorted(sorted(c) for c in nx.attracting_components(digraph))
    assert sorted(sorted(f) for f in final_sets(tg)) == expected



@pytest.mark.parametrize("protocol, kind, n, tmax", [
    (RANKING, "complete", 2, 2),
    (RANKING, "path", 3, 1),
    (GREEDY_DEGREE, "complete", 3, 1),
], ids=lambda x: getattr(x, "name", x))
def test_final_sets_in_the_order_of_the_deduplicated_graph(protocol, kind, n, tmax):
    # final_sets replaces repeated successors by self-loops instead of
    # removing them; the components and their labels, and so the order of
    # the returned sets, must be those of the sorted, deduplicated CSR.
    from scipy import sparse
    from scipy.sparse import csgraph

    g = generate_graph(kind, n)
    tg = build_transition_graph(protocol, g, ProtocolParams(n=n, tmax=tmax))
    count, pairs = tg.config_count, len(tg.successors)
    matrix = sparse.csr_matrix(
        (np.ones(count * pairs), np.ascontiguousarray(tg.successors.T).reshape(-1),
         np.arange(0, count * pairs + 1, pairs)), shape=(count, count))
    matrix.sum_duplicates()
    _, labels = csgraph.connected_components(matrix, directed=True, connection="strong")
    got = final_sets(tg)
    assert [labels[min(f)] for f in got] == sorted(labels[min(f)] for f in got)
    assert all(len({labels[k] for k in f}) == 1 for f in got)
    assert sorted(sorted(f) for f in got) == sorted(
        sorted(np.flatnonzero(labels == labels[min(f)]).tolist()) for f in got)


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
    to_json=lambda s: {"bit": s},
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
