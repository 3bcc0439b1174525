import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poplab.engine import ProtocolParams, checked_step, replay
from poplab.errors import DomainViolation
from poplab.graph import generate_graph
from poplab.oracles import SafeLevel, classify_rank_config
from poplab.ranking import BLUE, RANKING, RED, WHITE, RankState

# The checked path: every step in these tests validates both endpoint states first.
step = partial(checked_step, RANKING)

P2_3 = ProtocolParams(n=2, tmax=3)


def test_step_white_adoption_trace():
    # Distinct tokens, clean timers: the white responder adopts its token color.
    s0 = RankState(0, 1, RED, BLUE, 3)
    s1 = RankState(1, 0, WHITE, RED, 2)
    t0, t1 = step(s0, s1, P2_3)
    assert t0 == RankState(0, 0, RED, RED, 1)
    assert t1 == RankState(1, 1, BLUE, BLUE, 2)


def test_step_double_push_trace():
    # Both agents meet their own-label token with the wrong color and move on.
    s0 = RankState(1, 0, RED, RED, 2)
    s1 = RankState(0, 1, BLUE, BLUE, 3)
    t0, t1 = step(s0, s1, P2_3)
    assert t0 == RankState(0, 1, WHITE, BLUE, 2)
    assert t1 == RankState(1, 0, WHITE, RED, 1)


def test_step_flip_trace():
    # Timer expiry with matching colors: agent and token flip together.
    s0 = RankState(0, 1, RED, BLUE, 2)
    s1 = RankState(1, 0, BLUE, RED, 1)
    t0, t1 = step(s0, s1, P2_3)
    assert t0 == RankState(0, 0, BLUE, BLUE, 3)
    assert t1 == RankState(1, 1, BLUE, BLUE, 1)


def test_step_rejects_domain_violation():
    with pytest.raises(DomainViolation):
        checked_step(RANKING, RankState(0, 5, RED, BLUE, 0), RankState(1, 0, RED, RED, 0), P2_3)
    with pytest.raises(DomainViolation):
        checked_step(RANKING, RankState(0, 1, RED, BLUE, 9), RankState(1, 0, RED, RED, 0), P2_3)


def test_output_is_label():
    assert RANKING.output(RankState(0, 1, RED, RED, 0)) == 0
    assert RANKING.output(RankState(3, 1, RED, RED, 0)) == 3


def test_leader_reduction():
    from poplab.ranking import leader_output

    assert leader_output(RankState(0, 1, RED, RED, 0)) == "L"
    assert leader_output(RankState(2, 1, RED, RED, 0)) == "F"


def test_to_json():
    s = RankState(2, 4, WHITE, BLUE, 7)
    obj = RANKING.to_json(s)
    assert obj == {"idA": 2, "idT": 4, "colorA": "white", "colorT": "blue", "timerT": 7}
    assert list(obj) == ["idA", "idT", "colorA", "colorT", "timerT"]


def params_and_pair(draw, min_timer=0):
    n = draw(st.integers(min_value=2, max_value=6))
    tmax = draw(st.integers(min_value=max(1, min_timer), max_value=8))
    states = []
    for _ in range(2):
        states.append(
            RankState(
                idA=draw(st.integers(0, n - 1)),
                idT=draw(st.integers(0, n - 1)),
                colorA=draw(st.sampled_from([WHITE, RED, BLUE])),
                colorT=draw(st.sampled_from([RED, BLUE])),
                timerT=draw(st.integers(min_timer, tmax)),
            )
        )
    return ProtocolParams(n=n, tmax=tmax), states[0], states[1]


any_pair = st.composite(params_and_pair)()
flipless_pair = st.composite(params_and_pair)(min_timer=2)


@given(any_pair)
def test_step_preserves_domains(case):
    params, s0, s1 = case
    t0, t1 = step(s0, s1, params)
    RANKING.validate_state(t0, params)
    RANKING.validate_state(t1, params)


@given(any_pair)
def test_step_deterministic(case):
    params, s0, s1 = case
    assert step(s0, s1, params) == step(s0, s1, params)


@given(any_pair)
def test_token_color_changes_only_with_flip(case):
    # Post-swap, agent 0 hosts the token that agent 1 held (and vice versa).
    # Its color may change only through a flip, which also recolors the host
    # and refills the timer.
    params, s0, s1 = case
    t0, t1 = step(s0, s1, params)
    for incoming, result in ((s1, t0), (s0, t1)):
        if result.colorT != incoming.colorT:
            assert result.colorA == result.colorT
            assert result.timerT == params.tmax


@given(flipless_pair)
def test_collision_bumps_exactly_one_token(case):
    params, s0, s1 = case
    s1 = s1._replace(idT=s0.idT)  # force a token-label collision
    x = s0.idT
    t0, t1 = step(s0, s1, params)
    assert sorted((t0.idT, t1.idT)) == sorted((x, (x + 1) % params.n))
    # With timers >= 2 no flip can trigger, so the token payloads are the
    # originals, just one tick older.
    assert sorted((t.colorT, t.timerT) for t in (t0, t1)) == sorted(
        (s.colorT, s.timerT - 1) for s in (s0, s1)
    )


@given(flipless_pair)
def test_distinct_tokens_stay_distinct_pairwise(case):
    params, s0, s1 = case
    if s0.idT == s1.idT:
        s1 = s1._replace(idT=(s0.idT + 1) % params.n)
    t0, t1 = step(s0, s1, params)
    assert {t0.idT, t1.idT} == {s0.idT, s1.idT}


def _random_distinct_token_config(rng, g, params):
    n = params.n
    tokens = list(range(n))
    rng.shuffle(tokens)
    return tuple(
        RankState(
            idA=rng.randrange(n),
            idT=tokens[v],
            colorA=rng.choice([WHITE, RED, BLUE]),
            colorT=rng.choice([RED, BLUE]),
            timerT=rng.randrange(params.tmax + 1),
        )
        for v in range(n)
    )


def _random_ranked_config(rng, g, params):
    n = params.n
    labels = list(range(n))
    tokens = list(range(n))
    rng.shuffle(labels)
    rng.shuffle(tokens)
    token_color = [rng.choice([RED, BLUE]) for _ in range(n)]
    states = []
    for v in range(n):
        color = rng.choice([WHITE, token_color[labels[v]]])
        states.append(
            RankState(labels[v], tokens[v], color, token_color[tokens[v]],
                      rng.randrange(params.tmax + 1))
        )
    return tuple(states)


def test_distinct_token_set_closed_one_step():
    # From any configuration with distinct token labels, every interaction
    # keeps them distinct (exhaustive over directed pairs, sampled configs).
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        params = ProtocolParams(n=n, tmax=rng.randint(1, 4))
        c = _random_distinct_token_config(rng, g, params)
        for pair in g.directed_pairs:
            after = replay(RANKING, g, c, [pair], params)
            assert len({s.idT for s in after}) == n


def test_ranked_set_closed_one_step_and_outputs_frozen():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        params = ProtocolParams(n=n, tmax=rng.randint(1, 4))
        c = _random_ranked_config(rng, g, params)
        assert classify_rank_config(c, params) is SafeLevel.RANKED
        for pair in g.directed_pairs:
            after = replay(RANKING, g, c, [pair], params)
            assert [s.idA for s in after] == [s.idA for s in c]
            assert classify_rank_config(after, params) is SafeLevel.RANKED


def test_occupied_labels_never_shrink_from_synced_start():
    # Color-synced start: occupied labels can spread or move forward but the
    # set of labels in use never loses a member along a run.
    rng = random.Random(12)
    for trial in range(10):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
        params = ProtocolParams(n=n, tmax=3)
        tokens = list(range(n))
        rng.shuffle(tokens)
        token_color = [rng.choice([RED, BLUE]) for _ in range(n)]
        states = []
        for v in range(n):
            label = rng.randrange(n)
            states.append(
                RankState(label, tokens[v],
                          rng.choice([WHITE, token_color[label]]),
                          token_color[tokens[v]], rng.randrange(4))
            )
        c = list(states)
        assert classify_rank_config(c, params) >= SafeLevel.COLOR_SYNCED
        occupied = {s.idA for s in c}
        pairs = g.directed_pairs
        for _ in range(2000):
            u, v = pairs[rng.randrange(len(pairs))]
            c[u], c[v] = step(c[u], c[v], params)
            now = {s.idA for s in c}
            assert occupied <= now
            occupied = now


def test_recovers_from_hostile_starts():
    # Worst-case seeds, not just uniform ones: every agent identical, all
    # timers zero, colors maximally misleading.  Convergence must not depend
    # on the start.
    from poplab.engine import default_params, run_until
    from poplab.oracles import rank_safe_predicate

    hostile = [
        lambda n, tmax: RankState(0, 0, RED, BLUE, 0),
        lambda n, tmax: RankState(0, 0, WHITE, RED, tmax),
        lambda n, tmax: RankState(n - 1, n - 1, BLUE, BLUE, 0),
    ]
    for g_seed, make in enumerate(hostile):
        g = generate_graph("random_connected", 6, 8, seed=g_seed)
        params = default_params(g)
        c0 = tuple(make(params.n, params.tmax) for _ in range(g.n))
        res = run_until(RANKING, g, c0, params, seed=g_seed + 100,
                        max_steps=10**7, safe_predicate=rank_safe_predicate(params),
                        closure_window=5000)
        assert res.steps_to_safe is not None
        assert res.closure_ok is True
        assert sorted(s.idA for s in res.final_states) == list(range(g.n))


def test_state_count_and_index_roundtrip():
    params = ProtocolParams(n=2, tmax=1)
    assert RANKING.state_count(params) == 48
    for i in range(48):
        s = RANKING.state_from_index(i, params)
        RANKING.validate_state(s, params)
        assert RANKING.state_to_index(s, params) == i


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_random_state_in_domain(seed):
    import numpy as np

    params = ProtocolParams(n=5, tmax=6)
    rng = np.random.default_rng(seed)
    s = RANKING.random_state(rng, params)
    RANKING.validate_state(s, params)
