import random

import pytest

from poplab.engine import ProtocolParams, default_params, replay
from poplab.errors import BadCounts, TooLarge
from poplab.graph import generate_graph
from poplab.neighbor import NEIGHBOR, NeighborState, bits, mask_of
from poplab.oracles import (
    SafeLevel,
    check_spec,
    classify_rank_config,
    empirical_cover_time,
    empirical_move_count_steps,
    exact_hitting_time,
    exact_meeting_time,
    game_brute_force,
    game_counts,
    game_stable_set,
    hitting_times_to,
    neighbor_safe,
)
from poplab.ranking import BLUE, RED, WHITE, RankState

P2 = ProtocolParams(n=2, tmax=3)


# --- safe-set classifier ---------------------------------------------------


def test_classify_duplicate_tokens():
    c = (RankState(0, 0, RED, RED, 1), RankState(1, 0, RED, RED, 1))
    assert classify_rank_config(c, P2) is SafeLevel.NONE


def test_classify_color_desync():
    # Both agents labeled 0, both red, while the token labeled 0 is blue and
    # nobody is white: the label-0 witness predicate fails.
    c = (RankState(0, 0, RED, BLUE, 1), RankState(0, 1, RED, RED, 1))
    assert classify_rank_config(c, P2) is SafeLevel.DISTINCT_TOKENS


def test_classify_color_synced_but_duplicated_labels():
    c = (RankState(0, 0, WHITE, BLUE, 1), RankState(0, 1, RED, RED, 1))
    assert classify_rank_config(c, P2) is SafeLevel.COLOR_SYNCED


def test_classify_ranked():
    c = (RankState(0, 0, BLUE, BLUE, 1), RankState(1, 1, RED, RED, 1))
    assert classify_rank_config(c, P2) is SafeLevel.RANKED


def test_classify_vacuous_labels_ok():
    # An unoccupied label imposes no witness obligation.
    params = ProtocolParams(n=3, tmax=1)
    c = (
        RankState(0, 0, RED, RED, 1),
        RankState(0, 1, WHITE, BLUE, 0),
        RankState(1, 2, BLUE, BLUE, 1),
    )
    assert classify_rank_config(c, params) is SafeLevel.COLOR_SYNCED


def test_ranked_implies_ranking_spec():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 6)
        params = ProtocolParams(n=n, tmax=2)
        labels = list(range(n))
        tokens = list(range(n))
        rng.shuffle(labels)
        rng.shuffle(tokens)
        token_color = [rng.choice([RED, BLUE]) for _ in range(n)]
        c = tuple(
            RankState(labels[v], tokens[v],
                      rng.choice([WHITE, token_color[labels[v]]]),
                      token_color[tokens[v]], rng.randrange(3))
            for v in range(n)
        )
        g = generate_graph("complete", n)
        if classify_rank_config(c, params) is SafeLevel.RANKED:
            assert check_spec("ranking", [s.idA for s in c], g)


# --- specification checkers -------------------------------------------------


def test_check_spec_ranking():
    g = generate_graph("complete", 3)
    assert check_spec("ranking", [0, 1, 2], g)
    assert check_spec("ranking", [2, 0, 1], g)
    assert not check_spec("ranking", [0, 0, 2], g)


def test_check_spec_elect():
    g = generate_graph("complete", 3)
    assert check_spec("elect", ["L", "F", "F"], g)
    assert not check_spec("elect", ["L", "L", "F"], g)
    assert not check_spec("elect", ["F", "F", "F"], g)
    assert not check_spec("elect", ["L", "F", "X"], g)


def test_check_spec_degree():
    g = generate_graph("path", 3)
    assert check_spec("degree", [1, 2, 1], g)
    assert not check_spec("degree", [2, 2, 2], g)


def test_check_spec_neighbor_with_two_hop_clause():
    g = generate_graph("path", 3)
    good = [(0, {1}), (1, {0, 2}), (2, {1})]
    assert check_spec("neighbor", good, g)
    # Same labels on both endpoints: the center's claimed set collapses to
    # size 1 < degree 2, rejected by the cardinality clause.
    collapsed = [(0, {1}), (1, {0}), (0, {1})]
    assert not check_spec("neighbor", collapsed, g)
    wrong_set = [(0, {1}), (1, {0, 2}), (2, {0})]
    assert not check_spec("neighbor", wrong_set, g)


def test_check_spec_neighbor_accepts_bitmask_outputs():
    g = generate_graph("path", 3)
    good = [(0, mask_of([1])), (1, mask_of([0, 2])), (2, mask_of([1]))]
    assert check_spec("neighbor", good, g)


def test_check_spec_rejects_unknown_problem_and_bad_arity():
    g = generate_graph("path", 3)
    with pytest.raises(ValueError):
        check_spec("coloring", [0, 1, 2], g)
    with pytest.raises(ValueError):
        check_spec("ranking", [0, 1], g)


# --- structural neighbor safety ----------------------------------------------


def _settled_p2():
    g = generate_graph("complete", 2)
    params = ProtocolParams(n=2, m_known=1, tmax=3, pmax=4, emax=2)
    c = (
        NeighborState(RankState(0, 0, RED, RED, 2), 1, 1, 0, 3, mask_of([1]), mask_of([0])),
        NeighborState(RankState(1, 1, BLUE, BLUE, 1), 1, 2, 0, 2, mask_of([0]), mask_of([0, 1])),
    )
    return g, params, c


def test_neighbor_safe_fixed_point():
    g, params, c = _settled_p2()
    assert neighbor_safe(c, g, params)


def test_neighbor_safe_rejects_fake_label():
    g, params, c = _settled_p2()
    tampered = (c[0]._replace(neighbors=mask_of([0, 1])), c[1])
    assert not neighbor_safe(tampered, g, params)


def test_neighbor_safe_rejects_live_reset_signal():
    g, params, c = _settled_p2()
    tampered = (c[0], c[1]._replace(resetE=1))
    assert not neighbor_safe(tampered, g, params)


def test_neighbor_safe_rejects_inflated_token_payload():
    g, params, c = _settled_p2()
    tampered = (c[0]._replace(degreeT=2), c[1])
    assert not neighbor_safe(tampered, g, params)


def test_neighbor_safe_rejects_uncovered_dsum():
    g, params, c = _settled_p2()
    tampered = (c[0]._replace(dsum=2, counted=mask_of([0])), c[1])
    assert not neighbor_safe(tampered, g, params)


def _sampled_safe_config(g, params, rng):
    n = g.n
    labels = list(range(n))
    tokens = list(range(n))
    rng.shuffle(labels)
    rng.shuffle(tokens)
    token_color = [rng.choice([RED, BLUE]) for _ in range(n)]
    agent_of_label = {labels[v]: v for v in range(n)}
    out = []
    for v in range(n):
        color = rng.choice([WHITE, token_color[labels[v]]])
        counted = rng.randrange(1 << n)
        bound = min(2 * g.m, sum(g.degree(agent_of_label[x]) for x in bits(counted)))
        out.append(NeighborState(
            rank=RankState(labels[v], tokens[v], color, token_color[tokens[v]],
                           rng.randrange(params.tmax + 1)),
            degreeT=rng.randint(0, g.degree(agent_of_label[tokens[v]])),
            dsum=rng.randint(0, bound),
            resetE=0,
            timerP=rng.randrange(params.pmax + 1),
            neighbors=mask_of(labels[u] for u in g.adjacency[v]),
            counted=counted,
        ))
    return tuple(out)


def test_neighbor_safe_one_step_closure_and_spec():
    # Sampled satisfying configurations stay satisfying under every directed
    # pair, and always meet the neighbor-recognition specification.
    rng = random.Random(123)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        params = default_params(g, know_m=True, tmax=rng.randint(1, 5),
                                pmax=rng.randint(1, 5), emax=rng.randint(1, 5))
        c = _sampled_safe_config(g, params, rng)
        assert neighbor_safe(c, g, params)
        assert check_spec("neighbor", [NEIGHBOR.output(s) for s in c], g)
        for pair in g.directed_pairs:
            after = replay(NEIGHBOR, g, c, [pair], params)
            assert neighbor_safe(after, g, params), (g.edges, pair, c, after)


# --- exact chain solvers ------------------------------------------------------


def test_hitting_time_p2():
    g = generate_graph("path", 2)
    assert exact_hitting_time(g, 0, 1) == pytest.approx(1.0, abs=1e-9)


def test_hitting_time_k3_adjacent():
    g = generate_graph("complete", 3)
    for u in range(3):
        for v in range(3):
            if u != v:
                assert exact_hitting_time(g, u, v) == pytest.approx(3.0, abs=1e-9)


def test_return_time_is_population_size():
    rng = random.Random(4)
    cases = [generate_graph("complete", 4), generate_graph("path", 5),
             generate_graph("star", 6), generate_graph("cycle", 5)]
    for _ in range(10):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        cases.append(generate_graph("random_connected", n, m, seed=rng.getrandbits(32)))
    for g in cases:
        for z in range(g.n):
            assert exact_hitting_time(g, z, z) == pytest.approx(g.n, abs=1e-9)


def test_hitting_time_bound():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        dist = g.metrics.distances
        for v in range(n):
            h = hitting_times_to(g, v)
            for u in range(n):
                if u != v:
                    assert h[u] <= g.m * g.n * dist[u, v] + 1e-9


def test_meeting_time_examples_and_bound():
    p2 = generate_graph("path", 2)
    assert exact_meeting_time(p2, 0, 1) == pytest.approx(1.0, abs=1e-9)
    k3 = generate_graph("complete", 3)
    for u in range(3):
        for v in range(3):
            if u != v:
                assert exact_meeting_time(k3, u, v) == pytest.approx(3.0, abs=1e-9)
    rng = random.Random(10)
    for _ in range(10):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        bound = 2 * g.m * g.n * g.n * g.diameter
        for u in range(n):
            for v in range(u + 1, n):
                assert exact_meeting_time(g, u, v) < bound


def test_meeting_time_rejects_equal_agents():
    g = generate_graph("complete", 3)
    with pytest.raises(ValueError):
        exact_meeting_time(g, 1, 1)


# --- Monte Carlo estimators ----------------------------------------------------


def test_cover_time_p2_exact():
    g = generate_graph("path", 2)
    est = empirical_cover_time(g, 0, trials=50, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_cover_time_k3_bound():
    g = generate_graph("complete", 3)
    est = empirical_cover_time(g, 0, trials=400, seed=2)
    assert est.mean + 3 * est.stderr <= 2 * g.m * g.n * g.n  # 54


def test_cover_time_tree_bound():
    g = generate_graph("random_connected", 5, 4, seed=3)
    est = empirical_cover_time(g, 0, trials=400, seed=4)
    assert est.mean + 3 * est.stderr <= 2 * g.m * g.n * g.n  # 200


def test_move_count_p2_exact():
    g = generate_graph("path", 2)
    est = empirical_move_count_steps(g, 0, k=1, trials=30, seed=5)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_move_count_star_center_and_leaf():
    g = generate_graph("star", 4)
    center = empirical_move_count_steps(g, 0, k=1, trials=200, seed=6)
    assert center.mean == 1.0  # every interaction touches the hub
    leaf = empirical_move_count_steps(g, 1, k=1, trials=2000, seed=7)
    expected = g.m / g.degree(1)  # per-location wait m/deg = 3
    assert abs(leaf.mean - expected) <= 3 * leaf.stderr


def test_estimator_input_validation():
    g = generate_graph("path", 2)
    with pytest.raises(ValueError):
        empirical_cover_time(g, 0, trials=0, seed=0)
    with pytest.raises(ValueError):
        empirical_move_count_steps(g, 0, k=0, trials=5, seed=0)


@pytest.mark.parametrize("w", [-1, 3])
def test_estimators_reject_a_start_agent_outside_the_graph(w):
    # No pair moves a token on an agent the graph lacks, so the walk would
    # draw forever.
    g = generate_graph("path", 3)
    with pytest.raises(ValueError):
        empirical_cover_time(g, w, trials=1, seed=0)
    with pytest.raises(ValueError):
        empirical_move_count_steps(g, w, k=1, trials=1, seed=0)


# --- the collision game -----------------------------------------------------------


def test_game_stable_set_examples():
    assert game_stable_set((3, 0, 0)) == {0}
    assert game_stable_set((1, 1, 1)) == {0, 1, 2}
    assert game_stable_set((2, 0)) == {0}
    assert game_stable_set((0, 3, 0)) == {1}


def test_game_stable_set_rejects_bad_counts():
    with pytest.raises(BadCounts):
        game_stable_set((2, 2))
    with pytest.raises(BadCounts):
        game_stable_set((-1, 3))


def test_game_brute_force_examples():
    assert game_brute_force((0, 0, 0)) == {0}
    assert game_brute_force((0, 1)) == {0, 1}


def test_game_brute_force_too_large():
    with pytest.raises(TooLarge):
        game_brute_force((0,) * 6)


def test_game_agreement_sampled():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 4)
        states = tuple(rng.randrange(n) for _ in range(n))
        expected = game_brute_force(states)
        assert game_stable_set(game_counts(states)) == expected
        assert expected, f"stable set empty for {states}"
