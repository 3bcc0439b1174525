"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.  Tolerances and runtime limits are pinned here.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import poplab as pl
from poplab.engine import ProtocolParams, default_params, mix_seed, run_trial
from poplab.neighbor import NEIGHBOR, mask_of
from poplab.oracles import (
    check_spec,
    empirical_cover_time,
    game_brute_force,
    game_counts,
    game_stable_set,
    neighbor_safe,
    neighbor_safe_predicate,
    rank_safe_predicate,
    safe_predicate,
)
from poplab.ranking import RANKING
from poplab.verifier import GREEDY_DEGREE, Witness, impossibility_witness

GRAPH_SEED = 911
RANK_SEED = 20_260_101
NEIGHBOR_SEED = 20_260_202
SCALING_SEED = 20_260_303

HIT_TOL = 1e-9


def _report(criterion, elapsed, limit, detail):
    print(f"\n[PASS] criterion {criterion}: {detail} ({elapsed:.1f}s, limit {limit:.0f}s)")


@pytest.fixture(scope="module")
def walk_graphs():
    """20 random connected populations with n <= 7, plus P2 and K3."""
    rng = random.Random(GRAPH_SEED)
    graphs = []
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        graphs.append(pl.generate_graph("random_connected", n, m, seed=rng.getrandbits(48)))
    return graphs


def test_criterion_01_exact_hitting_times(walk_graphs):
    start = time.monotonic()
    k3 = pl.generate_graph("complete", 3)
    for u, v in itertools.permutations(range(3), 2):
        assert pl.exact_hitting_time(k3, u, v) == pytest.approx(3.0, abs=HIT_TOL)
    p2 = pl.generate_graph("path", 2)
    assert pl.exact_hitting_time(p2, 0, 1) == pytest.approx(1.0, abs=HIT_TOL)
    pairs_checked = 0
    for g in walk_graphs:
        dist = g.metrics.distances
        for v in range(g.n):
            h = pl.hitting_times_to(g, v)
            for u in range(g.n):
                if u != v:
                    assert h[u] <= g.m * g.n * dist[u, v] + HIT_TOL, (g.edges, u, v)
                    pairs_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, elapsed, 10, f"K3=3, P2=1, H(u,v) <= mn*d(u,v) on {pairs_checked} pairs")


def test_criterion_02_return_time_identity(walk_graphs):
    start = time.monotonic()
    nodes = 0
    for g in walk_graphs:
        for z in range(g.n):
            assert pl.exact_hitting_time(g, z, z) == pytest.approx(g.n, abs=HIT_TOL)
            nodes += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(2, elapsed, 10, f"H(z,z) = n exactly on {nodes} nodes across 20 graphs")


def test_criterion_03_meeting_times(walk_graphs):
    start = time.monotonic()
    p2 = pl.generate_graph("path", 2)
    assert pl.exact_meeting_time(p2, 0, 1) == pytest.approx(1.0, abs=HIT_TOL)
    k3 = pl.generate_graph("complete", 3)
    for u, v in itertools.permutations(range(3), 2):
        assert pl.exact_meeting_time(k3, u, v) == pytest.approx(3.0, abs=HIT_TOL)
    pairs_checked = 0
    for g in walk_graphs:
        bound = 2 * g.m * g.n * g.n * g.diameter
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert pl.exact_meeting_time(g, u, v) < bound, (g.edges, u, v)
                pairs_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(3, elapsed, 30, f"P2=1, K3=3, value < 2mn^2*d on {pairs_checked} pairs")


def test_criterion_04_cover_time_bound(walk_graphs):
    start = time.monotonic()
    for i, g in enumerate(walk_graphs):
        est = empirical_cover_time(g, 0, trials=500, seed=mix_seed(GRAPH_SEED, i))
        bound = 2 * g.m * g.n * g.n
        assert est.mean + 3 * est.stderr <= bound, (g.edges, est, bound)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(4, elapsed, 120, "mean + 3*stderr <= 2mn^2 over 500 trials on 20 graphs")


def test_criterion_05_collision_game():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for states in itertools.product(range(n), repeat=n):
            expected = game_brute_force(states)
            assert game_stable_set(game_counts(states)) == expected, states
            assert expected, states
            checked += 1
    rng = random.Random(4242)
    for _ in range(200):
        states = tuple(rng.randrange(5) for _ in range(5))
        expected = game_brute_force(states)
        assert game_stable_set(game_counts(states)) == expected, states
        assert expected, states
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(5, elapsed, 60, f"formula == brute force, non-empty, on {checked} inputs")


def _ranking_trial(i: int):
    rng = np.random.default_rng(mix_seed(RANK_SEED, i))
    n = int(rng.integers(2, 9))
    m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
    g = pl.generate_graph("random_connected", n, m, seed=int(rng.integers(2**63)))
    params = default_params(g)
    return g, run_trial(
        RANKING, g, params, mix_seed(RANK_SEED, 10_000 + i),
        max_steps=10**8, safe_predicate=rank_safe_predicate(params),
        closure_window=10**5,
    )


def test_criterion_06_ranking_randomized_self_stabilization():
    start = time.monotonic()
    worst = 0
    for i in range(200):
        g, res = _ranking_trial(i)
        assert res.steps_to_safe is not None, f"trial {i} did not reach the ranked set"
        assert res.closure_ok is True, f"trial {i} changed an output inside the closure window"
        assert check_spec("ranking", [s.idA for s in res.final_states], g)
        worst = max(worst, res.steps_to_safe)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(6, elapsed, 300,
            f"200/200 trials ranked + clean 1e5-step closure (max steps_to_safe {worst})")


def test_criterion_07_ranking_exhaustive_verification():
    start = time.monotonic()
    cases = [
        ("complete", 2),
        ("complete", 3),
        ("path", 3),
    ]
    for kind, n in cases:
        g = pl.generate_graph(kind, n)
        params = ProtocolParams(n=n, tmax=1)
        verdict = pl.verify_self_stabilizing(RANKING, g, params, safe_predicate(RANKING, g, params))
        assert verdict is True, (kind, n, verdict)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(7, elapsed, 300, "every final configuration ranked w/ constant outputs on K2, K3, P3")


def _neighbor_trial(i: int):
    rng = np.random.default_rng(mix_seed(NEIGHBOR_SEED, i))
    n = int(rng.integers(2, 8))
    m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
    g = pl.generate_graph("random_connected", n, m, seed=int(rng.integers(2**63)))
    params = default_params(g, know_m=True)
    return g, params, run_trial(
        NEIGHBOR, g, params, mix_seed(NEIGHBOR_SEED, 10_000 + i),
        max_steps=10**8, safe_predicate=neighbor_safe_predicate(g, params),
        closure_window=10**5,
    )


def test_criterion_08_neighbor_randomized_convergence():
    start = time.monotonic()
    bits_ceiling = 32  # the state index must fit in 32n bits
    for i in range(100):
        g, params, res = _neighbor_trial(i)
        assert res.steps_to_safe is not None, f"trial {i} never satisfied the safe predicate"
        assert res.closure_ok is True, f"trial {i} changed an output inside the closure window"
        final = res.final_states
        assert neighbor_safe(final, g, params)
        labels = [s.rank.idA for s in final]
        for v, s in enumerate(final):
            assert s.neighbors == mask_of(labels[u] for u in g.adjacency[v])
        assert check_spec("neighbor", [NEIGHBOR.output(s) for s in final], g)
        width = (NEIGHBOR.state_count(params) - 1).bit_length()
        assert width <= bits_ceiling * g.n, (g.n, width)
        index = NEIGHBOR.state_to_index(final[0], params)
        assert index.bit_length() <= width
        assert NEIGHBOR.state_from_index(index, params) == final[0]
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _report(8, elapsed, 600,
            "100/100 trials reached the structural safe set; outputs = labeled adjacency; "
            f"state fits {bits_ceiling}n bits")


def test_criterion_09_impossibility_witness():
    start = time.monotonic()
    p3 = pl.generate_graph("path", 3)
    k3 = pl.generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=1)
    witness = impossibility_witness(GREEDY_DEGREE, p3, k3, params)
    assert isinstance(witness, Witness)
    start_outputs = [GREEDY_DEGREE.output(s) for s in witness.start]
    assert check_spec("degree", start_outputs, k3)  # safe on the supergraph
    end = pl.replay(GREEDY_DEGREE, p3, witness.start, witness.pairs, params)  # replay over P3 pairs
    end_outputs = [GREEDY_DEGREE.output(s) for s in end]
    if witness.kind == "output_change":
        assert end_outputs[witness.agent] == witness.after != witness.before
    else:
        assert witness.kind == "frozen_output"
        assert end_outputs == start_outputs
        assert start_outputs[witness.agent] != p3.degree(witness.agent)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(9, elapsed, 60, f"replayable {witness.kind} witness for n=3, m1=2, m2=3")


def test_criterion_10_scaling_sanity_table():
    start = time.monotonic()
    trials = 25
    rows = []
    for n in range(4, 9):
        g = pl.generate_graph("complete", n)
        params = default_params(g)
        pred = rank_safe_predicate(params)
        steps = []
        for i in range(trials):
            res = run_trial(RANKING, g, params, mix_seed(SCALING_SEED, n * 1000 + i),
                            max_steps=10**8, safe_predicate=pred, closure_window=0)
            assert res.steps_to_safe is not None
            steps.append(res.steps_to_safe)
        mean = sum(steps) / len(steps)
        reference = g.m * n**3 * g.diameter * math.log2(n) + n * n * params.tmax
        rows.append((n, mean, reference, mean / reference))
    print("\n  n    mean steps      reference       ratio")
    for n, mean, reference, ratio in rows:
        print(f"  {n}  {mean:12.1f}  {reference:13.1f}  {ratio:10.4f}")
    ratios = [r for *_, r in rows]
    spread = max(ratios) / min(ratios)
    assert spread < 20, f"ratio spread {spread:.1f} exceeds factor 20"
    elapsed = time.monotonic() - start
    _report(10, elapsed, 300, f"K4..K8 ratio spread x{spread:.2f} (< 20); table above")


def test_criterion_11_determinism():
    start = time.monotonic()
    for i in (3, 17):
        _, first = _ranking_trial(i)
        _, second = _ranking_trial(i)
        assert first.steps_to_safe == second.steps_to_safe
        assert first.final_states == second.final_states
    for i in (5, 42):
        *_, first = _neighbor_trial(i)
        *_, second = _neighbor_trial(i)
        assert first.steps_to_safe == second.steps_to_safe
        assert first.final_states == second.final_states
    elapsed = time.monotonic() - start
    _report(11, elapsed, 60, "re-running seeded trials reproduces steps_to_safe exactly")
