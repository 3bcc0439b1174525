import dataclasses
import shutil

import numpy as np
import pytest
from scipy import stats

from poplab import _compiled, engine
from poplab.engine import (
    Field,
    Protocol,
    ProtocolParams,
    default_params,
    mix_seed,
    replay,
    run_trial,
    run_until,
    sample_uniform_config,
)
from poplab.errors import DomainViolation, NotAnEdge
from poplab.graph import generate_graph
from poplab.neighbor import NEIGHBOR, NeighborState, mask_of
from poplab.oracles import neighbor_safe, rank_safe_predicate, safe_predicate
from poplab.ranking import BLUE, RANKING, RED, RankState


# Transition returns its inputs; output is the whole state.
IDENTITY = Protocol(
    name="identity",
    fields=(Field("value", 0, lambda params: 32),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=lambda s0, s1, params: (s0, s1),
    output=lambda s: s,
    to_json=lambda s: {"value": s},
)


def ranked_k2_config():
    return (RankState(0, 0, RED, RED, 1), RankState(1, 1, BLUE, BLUE, 1))


def test_params_validation():
    with pytest.raises(DomainViolation):
        ProtocolParams(n=1, tmax=1)
    with pytest.raises(DomainViolation):
        ProtocolParams(n=3, tmax=0)
    with pytest.raises(DomainViolation):
        ProtocolParams(n=3, m_known=3, tmax=5)  # pmax/emax missing


def test_default_params_orders():
    g = generate_graph("path", 4)  # n=4, m=3, d=3
    p = default_params(g)
    assert p.tmax == 2 * 64 and p.m_known is None
    q = default_params(g, know_m=True)
    assert q.tmax == 4 * 3 * 4
    assert q.pmax == 8 * 3 * 4 * 3 * 2  # 8 m n d ceil(log2 4)
    assert q.emax == 4 * 16
    r = default_params(g, know_m=True, tmax=7)
    assert r.tmax == 7


def never_safe(states):
    return False


def test_draw_pair_uniformity_chi_square():
    # 1e6 steps of the run_until scheduler on the triangle must look uniform
    # over the six directed pairs (chi-square, not rejected at p = 0.001).
    g = generate_graph("complete", 3)
    res = run_until(IDENTITY, g, (0, 1, 2), ProtocolParams(n=3), seed=404, max_steps=1_000_000,
                    safe_predicate=never_safe, record_trace=True)
    counts = {pair: 0 for pair in g.directed_pairs}
    for pair in res.trace.pairs:
        counts[pair] += 1
    assert sum(counts.values()) == 1_000_000
    _, pvalue = stats.chisquare(list(counts.values()))
    assert pvalue > 0.001


def test_draw_pair_covers_p2():
    g = generate_graph("path", 2)
    res = run_until(IDENTITY, g, (0, 1), ProtocolParams(n=2), seed=1, max_steps=100,
                    safe_predicate=never_safe, record_trace=True)
    assert set(res.trace.pairs) == {(0, 1), (1, 0)}


def test_apply_interaction_identity_and_locality():
    g = generate_graph("path", 3)
    c = (10, 20, 30)
    after = replay(IDENTITY, g, c, [(0, 1)], None)
    assert after == c
    params = ProtocolParams(n=3, tmax=2)
    rng = np.random.default_rng(3)
    config = sample_uniform_config(RANKING, params, rng)
    for pair in g.directed_pairs:
        out = replay(RANKING, g, config, [pair], params)
        third = ({0, 1, 2} - set(pair)).pop()
        assert out[third] == config[third]
        assert replay(RANKING, g, config, [pair], params) == out  # determinism


def test_apply_interaction_rejects_non_edges():
    g = generate_graph("path", 3)
    params = ProtocolParams(n=3, tmax=1)
    c = sample_uniform_config(RANKING, params, 0)
    with pytest.raises(NotAnEdge):
        replay(RANKING, g, c, [(0, 2)], params)
    with pytest.raises(NotAnEdge):
        replay(RANKING, g, c, [(0, 0)], params)


def test_sample_uniform_config_domain_size_and_seeding():
    params = ProtocolParams(n=2, tmax=1)
    assert RANKING.state_count(params) == 48  # 2*2*3*2*2 per agent
    a = sample_uniform_config(RANKING, params, 7)
    b = sample_uniform_config(RANKING, params, 7)
    c = sample_uniform_config(RANKING, params, 8)
    assert a == b
    assert a != c
    for s in a:
        RANKING.validate_state(s, params)


def test_sample_uniform_marginal_three_sigma():
    # 1e5 sampled agent states: the label marginal stays within 3 sigma of
    # uniform per bin.
    params = ProtocolParams(n=4, tmax=2)
    rng = np.random.default_rng(2024)
    counts = [0] * 4
    total_states = 100_000
    for _ in range(total_states // params.n):
        for s in sample_uniform_config(RANKING, params, rng):
            counts[s.idA] += 1
    expected = total_states / 4
    sigma = (total_states * 0.25 * 0.75) ** 0.5
    for c in counts:
        assert abs(c - expected) <= 3 * sigma


def test_run_until_immediate_safety_and_closure():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    res = run_until(
        RANKING, g, ranked_k2_config(), params, seed=5, max_steps=10,
        safe_predicate=rank_safe_predicate(params), closure_window=3000,
    )
    assert res.steps_to_safe == 0
    assert res.closure_ok is True


def test_run_until_converges_on_k3():
    g = generate_graph("complete", 3)
    params = default_params(g)
    c0 = sample_uniform_config(RANKING, params, 99)
    res = run_until(
        RANKING, g, c0, params, seed=100, max_steps=1_000_000,
        safe_predicate=rank_safe_predicate(params), closure_window=2000,
    )
    assert res.steps_to_safe is not None
    assert res.closure_ok is True
    assert sorted(s.idA for s in res.final_states) == [0, 1, 2]


def test_run_until_gives_up_within_max_steps():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    # Duplicate labels everywhere: one step cannot reach safety.
    c0 = (RankState(0, 0, RED, RED, 1), RankState(0, 0, RED, RED, 1))
    res = run_until(
        RANKING, g, c0, params, seed=1, max_steps=1,
        safe_predicate=rank_safe_predicate(params), closure_window=100,
    )
    assert res.steps_to_safe is None
    assert res.closure_ok is None


def test_run_determinism_and_trace():
    g = generate_graph("random_connected", 5, 7, seed=3)
    params = default_params(g)
    pred = rank_safe_predicate(params)
    runs = [
        run_trial(RANKING, g, params, trial_seed=42, max_steps=500_000,
                  safe_predicate=pred, closure_window=500, record_trace=True)
        for _ in range(2)
    ]
    assert runs[0].steps_to_safe == runs[1].steps_to_safe
    assert runs[0].final_states == runs[1].final_states
    assert runs[0].trace.pairs == runs[1].trace.pairs
    assert all(g.has_edge(u, v) for u, v in runs[0].trace.pairs)
    other = run_trial(RANKING, g, params, trial_seed=43, max_steps=500_000,
                      safe_predicate=pred, closure_window=500, record_trace=True)
    assert other.trace.pairs != runs[0].trace.pairs


def test_run_result_record_fields():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, tmax=1)
    res = run_until(RANKING, g, ranked_k2_config(), params, seed=5, max_steps=10,
                    safe_predicate=rank_safe_predicate(params), closure_window=10)
    record = res.to_record()
    assert sorted(record) == sorted(
        ["protocol", "n", "m", "d", "seed", "tmax", "pmax", "emax",
         "steps_to_safe", "closure_ok"]
    )
    assert record["protocol"] == "ranking"
    assert record["pmax"] is None


def test_mix_seed_spreads():
    seeds = {mix_seed(123, i) for i in range(100)}
    assert len(seeds) == 100
    assert mix_seed(123, 5) == mix_seed(123, 5)
    assert mix_seed(124, 5) != mix_seed(123, 5)


def test_replay_rejects_foreign_pairs():
    g = generate_graph("path", 3)
    params = ProtocolParams(n=3, tmax=1)
    c = sample_uniform_config(RANKING, params, 0)
    with pytest.raises(NotAnEdge):
        replay(RANKING, g, c, [(0, 1), (0, 2)], params)


def test_recorded_trace_replays_to_final_configuration():
    # The trace a run records is exactly the schedule it executed: replaying
    # it through replay lands on final_states.
    g = generate_graph("random_connected", 4, 5, seed=17)
    params = default_params(g)
    c0 = sample_uniform_config(RANKING, params, 55)
    res = run_until(
        RANKING, g, c0, params, seed=56, max_steps=200_000,
        safe_predicate=rank_safe_predicate(params), closure_window=300,
        record_trace=True,
    )
    assert res.steps_to_safe is not None
    assert replay(RANKING, g, c0, res.trace.pairs, params) == res.final_states


# ---------------------------------------------------------------------------
# The compiled loop against the Python loop.  A marked predicate from the
# oracle factories takes the compiled path; the same predicate wrapped in a
# lambda loses the mark and takes the Python path.
# ---------------------------------------------------------------------------

KINDS = ("cycle", "complete", "path", "star", "random_connected")


@pytest.fixture
def compiled():
    if _compiled.library() is None:
        pytest.skip("no C compiler: the compiled loop is not built")


def test_compiled_loop_loads_when_a_compiler_exists():
    # Without this a broken _loop.c would fall back silently, and the
    # differential tests below would compare the Python loop with itself.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    _compiled.load()  # raises OSError with the compiler's message
    assert _compiled.library() is not None


def always_safe(protocol, g, params):
    """A marked predicate that holds everywhere: the run goes straight to its
    closure window from any start, so outputs do change there."""

    def pred(states):
        return True

    pred.safe_for = (protocol.name, g, params)
    return pred


def assert_same_run(protocol, g, params, seed, max_steps, closure_window, pred):
    c0 = sample_uniform_config(protocol, params, seed)
    assert engine._compiled_loop(protocol, g, params, c0, pred) is not None
    runs = [
        run_until(protocol, g, c0, params, seed, max_steps, p,
                  closure_window=closure_window, record_trace=True)
        for p in (pred, lambda states: pred(states))
    ]
    assert runs[0] == runs[1]
    assert runs[0].final_states == runs[1].final_states
    assert runs[0].trace == runs[1].trace
    return runs[0]


def differential_case(protocol, i):
    """Seed i's graph, params, step cap and closure window, drawn from i."""
    rng = np.random.default_rng(i)
    kind = KINDS[i % len(KINDS)]
    n = int(rng.integers(3, 7))
    m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1)) if kind == "random_connected" else None
    g = generate_graph(kind, n, m, seed=i)
    know_m = protocol is NEIGHBOR
    tmax = int(rng.integers(1, 4)) if rng.random() < 0.5 else None
    ceilings = {}
    if know_m and rng.random() < 0.5:
        ceilings = {"pmax": int(rng.integers(1, 60)), "emax": int(rng.integers(1, 20))}
    params = default_params(g, know_m=know_m, tmax=tmax, **ceilings)
    max_steps = int(rng.integers(1, 2 * engine._BLOCK + 100))  # often cut mid-block
    closure_window = int(rng.integers(1, 3000)) if rng.random() < 0.7 else 0
    return g, params, max_steps, closure_window


@pytest.mark.parametrize("protocol", [RANKING, NEIGHBOR], ids=["ranking", "neighbor"])
def test_compiled_loop_matches_python_loop(compiled, protocol):
    # 500 seeds over five graph families, random timer ceilings, step caps
    # and closure windows; every fourth seed runs its closure window from
    # the uniform start, where outputs change.
    outcomes = set()
    for i in range(500):
        g, params, max_steps, closure_window = differential_case(protocol, i)
        if i % 4 == 3:
            pred = always_safe(protocol, g, params)
        else:
            pred = safe_predicate(protocol, g, params)
        res = assert_same_run(protocol, g, params, i, max_steps, closure_window, pred)
        outcomes.add((res.steps_to_safe is None, res.closure_ok))
    assert outcomes == {(True, None), (False, True), (False, False)}


def assert_same_step(protocol, g, params, state_pairs):
    """One compiled step of pair (0, 1) equals protocol.step on each state pair."""
    assert g.directed_pairs[0] == (0, 1)
    loop = _compiled.CompiledLoop(_compiled.library(), protocol, g, params,
                                  [state_pairs[0][0]] * g.n)
    block = np.zeros(1, dtype=np.int64)  # one step of pair index 0
    mismatches = []
    for s0, s1 in state_pairs:
        loop._states[0] = protocol.flatten(s0)  # the C rows, written in place
        loop._states[1] = protocol.flatten(s1)
        assert loop.closure(block)[0] == 1
        got = tuple(loop.states()[:2])
        if got != protocol.step(s0, s1, params):
            mismatches.append((s0, s1, got))
    assert mismatches == []


def test_compiled_step_matches_ranking_step_on_every_state_pair(compiled):
    # Seeded runs reach only some states; this covers all 162 x 162 pairs of
    # states at n = 3, tmax = 2.
    params = ProtocolParams(n=3, tmax=2)
    states = [RANKING.state_from_index(i, params) for i in range(RANKING.state_count(params))]
    pairs = [(s0, s1) for s0 in states for s1 in states]
    assert len(pairs) == 26_244
    assert_same_step(RANKING, generate_graph("complete", 3), params, pairs)


def test_compiled_step_matches_neighbor_step_on_random_state_pairs(compiled):
    g = generate_graph("cycle", 5)
    params = default_params(g, know_m=True, tmax=2, pmax=3, emax=3)
    rng = np.random.default_rng(2024)
    pairs = [(NEIGHBOR.random_state(rng, params), NEIGHBOR.random_state(rng, params))
             for _ in range(5000)]
    assert_same_step(NEIGHBOR, g, params, pairs)


def safe_neighbor_config(g, params):
    """Labels and tokens equal to agent ids, exact neighbor sets, nothing counted."""
    return tuple(
        NeighborState(RankState(v, v, RED, RED, params.tmax), g.degree(v), 0, 0,
                      params.pmax, mask_of(g.adjacency[v]), 0)
        for v in range(g.n)
    )


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("kind", ["path", "star", "random_connected"])
def test_compiled_neighbor_loop_at_mask_bit_63(compiled, kind, n):
    g = generate_graph(kind, n, 2 * n if kind == "random_connected" else None, seed=n)
    params = default_params(g, know_m=True)
    pred = safe_predicate(NEIGHBOR, g, params)
    # From a uniform start (masks reach bit n - 1), cut before convergence.
    res = assert_same_run(NEIGHBOR, g, params, n, 3000, 100, pred)
    assert res.steps_to_safe is None
    assert_same_run(NEIGHBOR, g, params, n, 1, 2000, always_safe(NEIGHBOR, g, params))
    # From a safe configuration, through a closure window.
    c0 = safe_neighbor_config(g, params)
    assert neighbor_safe(c0, g, params)
    runs = [run_until(NEIGHBOR, g, c0, params, 7, 10, p, closure_window=3000, record_trace=True)
            for p in (pred, lambda states: pred(states))]
    assert runs[0] == runs[1] and runs[0].steps_to_safe == 0 and runs[0].closure_ok
    assert runs[0].final_states == runs[1].final_states
    assert runs[0].trace == runs[1].trace


def test_dispatch_takes_the_python_loop_unless_every_condition_holds(compiled):
    g = generate_graph("cycle", 5)
    params = default_params(g, know_m=True)
    c0 = sample_uniform_config(NEIGHBOR, params, 0)
    pred = safe_predicate(NEIGHBOR, g, params)
    assert engine._compiled_loop(NEIGHBOR, g, params, c0, pred) is not None
    assert engine._compiled_loop(NEIGHBOR, g, params, c0, lambda states: pred(states)) is None
    other = safe_predicate(NEIGHBOR, generate_graph("path", 5), params)
    assert engine._compiled_loop(NEIGHBOR, g, params, c0, other) is None
    proxy = dataclasses.replace(NEIGHBOR)  # same functions, not the NEIGHBOR record
    assert engine._compiled_loop(proxy, g, params, c0, pred) is None
    huge = dataclasses.replace(params, pmax=1 << 62)
    assert engine._compiled_loop(NEIGHBOR, g, huge, c0, safe_predicate(NEIGHBOR, g, huge)) is None
    rank_params = default_params(g)
    rank_c0 = sample_uniform_config(RANKING, rank_params, 0)
    assert engine._compiled_loop(RANKING, g, rank_params, rank_c0, pred) is None
    # Ranking with m known packs pmax, emax and m into the C header too.
    rank_huge = default_params(g, know_m=True, pmax=1 << 62)
    rank_huge_c0 = sample_uniform_config(RANKING, rank_huge, 0)
    assert engine._compiled_loop(RANKING, g, rank_huge, rank_huge_c0,
                                 rank_safe_predicate(rank_huge)) is None
    g65 = generate_graph("path", 65)
    params65 = default_params(g65)
    c65 = sample_uniform_config(RANKING, params65, 0)
    assert engine._compiled_loop(RANKING, g65, params65, c65, rank_safe_predicate(params65)) is None


def test_python_predicate_confirms_the_compiled_verdict(compiled):
    # A marked predicate that disagrees with the compiled copy of RANKED makes
    # the run raise instead of returning the compiled loop's claim.
    g = generate_graph("complete", 4)
    params = default_params(g)

    def never(states):
        return False

    never.safe_for = ("ranking", None, params)
    with pytest.raises(RuntimeError, match="disagree"):
        run_trial(RANKING, g, params, 3, max_steps=10**6, safe_predicate=never, closure_window=0)
