import numpy as np
import pytest
from scipy import stats

from poplab.engine import (
    InteractionTrace,
    Protocol,
    ProtocolParams,
    TokenTracker,
    apply_interaction,
    default_params,
    draw_pair,
    mix_seed,
    run_trial,
    run_until,
    sample_uniform_config,
    token_position,
)
from poplab.errors import DomainViolation, NotAnEdge
from poplab.graph import generate_graph
from poplab.oracles import rank_safe_predicate
from poplab.ranking import BLUE, RANKING, RED, RankState


# Transition returns its inputs; output is the whole state.
IDENTITY = Protocol(
    name="identity",
    validate_params=lambda params: None,
    validate_state=lambda s, params: None,
    state_count=lambda params: 10,
    state_to_index=lambda s, params: s,
    state_from_index=lambda i, params: i,
    random_state=lambda rng, params: int(rng.integers(0, 10)),
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


def test_draw_pair_uniformity_chi_square():
    # 1e6 scheduler draws on the triangle must look uniform over the six
    # directed pairs (chi-square, not rejected at p = 0.001).
    g = generate_graph("complete", 3)
    rng = np.random.default_rng(404)
    counts = {pair: 0 for pair in g.directed_pairs}
    for _ in range(1_000_000):
        counts[draw_pair(g, rng)] += 1
    assert sum(counts.values()) == 1_000_000
    _, pvalue = stats.chisquare(list(counts.values()))
    assert pvalue > 0.001


def test_draw_pair_covers_p2():
    g = generate_graph("path", 2)
    rng = np.random.default_rng(1)
    seen = {draw_pair(g, rng) for _ in range(100)}
    assert seen == {(0, 1), (1, 0)}


def test_apply_interaction_identity_and_locality():
    g = generate_graph("path", 3)
    c = (10, 20, 30)
    after = apply_interaction(IDENTITY, g, c, (0, 1), None)
    assert after == c
    params = ProtocolParams(n=3, tmax=2)
    rng = np.random.default_rng(3)
    config = sample_uniform_config(RANKING, params, rng)
    for pair in g.directed_pairs:
        out = apply_interaction(RANKING, g, config, pair, params)
        third = ({0, 1, 2} - set(pair)).pop()
        assert out[third] == config[third]
        assert apply_interaction(RANKING, g, config, pair, params) == out  # determinism


def test_apply_interaction_rejects_non_edges():
    g = generate_graph("path", 3)
    params = ProtocolParams(n=3, tmax=1)
    c = sample_uniform_config(RANKING, params, 0)
    with pytest.raises(NotAnEdge):
        apply_interaction(RANKING, g, c, (0, 2), params)
    with pytest.raises(NotAnEdge):
        apply_interaction(RANKING, g, c, (0, 0), params)


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
    runs[0].trace.validate(g)
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


def test_token_tracker_examples():
    assert token_position(3, [], 0) == 0
    assert token_position(2, [(0, 1)], 0) == 1
    assert token_position(2, [(0, 1)], 1) == 0
    assert token_position(3, [(0, 1), (1, 2)], 0) == 2


def test_token_tracker_stays_permutation():
    import random as pyrandom

    rng = pyrandom.Random(8)
    g = generate_graph("random_connected", 6, 9, seed=2)
    tracker = TokenTracker(6)
    pairs = g.directed_pairs
    for _ in range(500):
        tracker.apply(pairs[rng.randrange(len(pairs))])
        assert sorted(tracker.position) == list(range(6))
        for token, host in enumerate(tracker.position):
            assert tracker._token_at[host] == token


def test_trace_validate_rejects_foreign_pairs():
    g = generate_graph("path", 3)
    trace = InteractionTrace(pairs=((0, 2),), seed=0)
    with pytest.raises(NotAnEdge):
        trace.validate(g)


def test_recorded_trace_replays_to_final_configuration():
    # The trace a run records is exactly the schedule it executed: replaying
    # it step by step through apply_interaction lands on final_states.
    g = generate_graph("random_connected", 4, 5, seed=17)
    params = default_params(g)
    c0 = sample_uniform_config(RANKING, params, 55)
    res = run_until(
        RANKING, g, c0, params, seed=56, max_steps=200_000,
        safe_predicate=rank_safe_predicate(params), closure_window=300,
        record_trace=True,
    )
    assert res.steps_to_safe is not None
    replayed = c0
    for pair in res.trace.pairs:
        replayed = apply_interaction(RANKING, g, replayed, pair, params)
    assert replayed == res.final_states
