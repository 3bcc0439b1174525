import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poplab import neighbor
from poplab.engine import (
    ProtocolParams,
    checked_step,
    default_params,
    run_trial,
    sample_uniform_config,
)
from poplab.errors import DomainViolation, MissingKnowledge
from poplab.graph import generate_graph
from poplab.neighbor import (
    NEIGHBOR,
    NeighborState,
    bits,
    mask_of,
)
from poplab.oracles import neighbor_safe, neighbor_safe_predicate
from poplab.ranking import BLUE, RANKING, RED, WHITE, RankState

# The checked path: every step in these tests validates both endpoint states first.
step = partial(checked_step, NEIGHBOR)
rank_step = partial(checked_step, RANKING)

P2 = ProtocolParams(n=2, m_known=1, tmax=3, pmax=4, emax=2)


def test_step_trace_converged_rank():
    # Hand-traced interaction on two agents with ranks already settled: the
    # initiator counts its freshly received token, the responder's audit
    # timer expires, resets and recounts.
    s0 = NeighborState(
        rank=RankState(0, 1, RED, BLUE, 2), degreeT=1, dsum=0, resetE=0,
        timerP=3, neighbors=0, counted=0,
    )
    s1 = NeighborState(
        rank=RankState(1, 0, BLUE, RED, 2), degreeT=1, dsum=2, resetE=0,
        timerP=1, neighbors=mask_of([0]), counted=mask_of([0, 1]),
    )
    t0, t1 = step(s0, s1, P2)
    assert t0.rank == RankState(0, 0, RED, RED, 1)
    assert t1.rank == RankState(1, 1, BLUE, BLUE, 1)
    assert (t0.neighbors, t0.counted, t0.dsum, t0.timerP) == (mask_of([1]), mask_of([0]), 1, 2)
    assert (t1.neighbors, t1.counted, t1.dsum, t1.timerP) == (mask_of([0]), mask_of([1]), 1, 4)
    assert t0.resetE == 0 and t1.resetE == 0
    assert t0.degreeT == 1 and t1.degreeT == 1


def test_error_emission_on_degree_sum_overflow():
    # dsum hitting 2m+1 raises the error signal in the same step.
    params = ProtocolParams(n=2, m_known=1, tmax=5, pmax=9, emax=4)
    s0 = NeighborState(
        rank=RankState(0, 1, RED, BLUE, 4), degreeT=2, dsum=2, resetE=0,
        timerP=5, neighbors=0, counted=0,
    )
    s1 = NeighborState(
        rank=RankState(1, 0, BLUE, RED, 4), degreeT=1, dsum=0, resetE=0,
        timerP=5, neighbors=0, counted=mask_of([1]),
    )
    # Initiator receives the token labeled 0 carrying payload 1, but its own
    # label is 0 too, so the payload is refreshed to |neighbors| = 1; with
    # dsum 2 the count reaches 3 = 2m+1.
    t0, t1 = step(s0, s1, params)
    assert t0.dsum == 3
    assert t0.resetE == params.emax
    assert t1.resetE == 0


def test_signal_propagation_clears_and_reseeds_neighbors():
    # Equalized countdown: both agents adopt max-1, clear their neighbor
    # sets, and end the step holding exactly the partner's current label.
    s0 = NeighborState(
        rank=RankState(0, 1, RED, BLUE, 2), degreeT=1, dsum=0, resetE=2,
        timerP=3, neighbors=mask_of([0, 1]), counted=0,
    )
    s1 = NeighborState(
        rank=RankState(1, 0, BLUE, RED, 2), degreeT=1, dsum=0, resetE=0,
        timerP=3, neighbors=mask_of([0, 1]), counted=mask_of([0, 1]),
    )
    t0, t1 = step(s0, s1, P2)
    assert t0.resetE == 1 and t1.resetE == 1
    assert t0.neighbors == mask_of([1])
    assert t1.neighbors == mask_of([0])


def test_step_requires_m_knowledge():
    params = ProtocolParams(n=2, tmax=3)
    s = NeighborState(RankState(0, 1, RED, BLUE, 2), 1, 0, 0, 3, 0, 0)
    with pytest.raises(MissingKnowledge):
        checked_step(NEIGHBOR, s, s, params)
    with pytest.raises(MissingKnowledge):
        NEIGHBOR.validate_params(params)


def test_step_rejects_domain_violations():
    s = NeighborState(RankState(0, 1, RED, BLUE, 2), 1, 0, 0, 3, 0, 0)
    bad = s._replace(dsum=99)
    with pytest.raises(DomainViolation):
        checked_step(NEIGHBOR, bad, s, P2)


def neighbor_case(draw):
    n = draw(st.integers(2, 5))
    m_max = n * (n - 1) // 2
    m = draw(st.integers(max(1, n - 1), m_max))
    params = ProtocolParams(
        n=n, m_known=m,
        tmax=draw(st.integers(1, 6)),
        pmax=draw(st.integers(1, 6)),
        emax=draw(st.integers(1, 6)),
    )
    def one():
        return NeighborState(
            rank=RankState(
                draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
                draw(st.sampled_from([WHITE, RED, BLUE])),
                draw(st.sampled_from([RED, BLUE])),
                draw(st.integers(0, params.tmax)),
            ),
            degreeT=draw(st.integers(0, n)),
            dsum=draw(st.integers(0, 2 * m + 1)),
            resetE=draw(st.integers(0, params.emax)),
            timerP=draw(st.integers(0, params.pmax)),
            neighbors=draw(st.integers(0, (1 << n) - 1)),
            counted=draw(st.integers(0, (1 << n) - 1)),
        )
    return params, one(), one()


any_case = st.composite(neighbor_case)()


@given(any_case)
def test_step_preserves_domains(case):
    params, s0, s1 = case
    t0, t1 = step(s0, s1, params)
    NEIGHBOR.validate_state(t0, params)
    NEIGHBOR.validate_state(t1, params)


@given(any_case)
def test_rank_fields_isolated(case):
    # The audit machinery never touches the embedded ranking variables.
    params, s0, s1 = case
    t0, t1 = step(s0, s1, params)
    r0, r1 = rank_step(s0.rank, s1.rank, params)
    assert t0.rank == r0
    assert t1.rank == r1


@given(any_case)
def test_dsum_capped(case):
    params, s0, s1 = case
    cap = 2 * params.m_known + 1
    for t in step(s0, s1, params):
        assert 0 <= t.dsum <= cap


@given(any_case)
def test_reset_signal_monotone_without_emission(case):
    params, s0, s1 = case
    cap = 2 * params.m_known + 1
    t0, t1 = step(s0, s1, params)
    if t0.dsum != cap and t1.dsum != cap:
        before = max(s0.resetE, s1.resetE)
        assert max(t0.resetE, t1.resetE) == max(0, before - 1)


def _converged_config(g, params, rng):
    """A correct fixed-point configuration built directly from the graph."""
    n = g.n
    labels = list(range(n))
    tokens = list(range(n))
    rng.shuffle(labels)
    rng.shuffle(tokens)
    token_color = [rng.choice([RED, BLUE]) for _ in range(n)]
    agent_of_label = {labels[v]: v for v in range(n)}
    states = []
    for v in range(n):
        rank = RankState(labels[v], tokens[v], token_color[labels[v]],
                         token_color[tokens[v]], rng.randrange(params.tmax + 1))
        counted = rng.randrange(1 << n)
        bound = min(2 * g.m, sum(g.degree(agent_of_label[x]) for x in bits(counted)))
        states.append(NeighborState(
            rank=rank,
            degreeT=rng.randint(0, g.degree(agent_of_label[tokens[v]])),
            dsum=rng.randint(0, bound),
            resetE=0,
            timerP=rng.randrange(params.pmax + 1),
            neighbors=mask_of(labels[u] for u in g.adjacency[v]),
            counted=counted,
        ))
    return tuple(states)


def test_fake_label_triggers_reset_and_reconvergence():
    # Inject a label of a non-neighbor into a settled configuration: some
    # agent must eventually raise the error signal, neighbor sets get wiped,
    # and the population settles back to the true adjacency.
    rng = random.Random(77)
    for n in (3, 4, 5, 6):
        g = generate_graph("path", n)
        params = default_params(g, know_m=True)
        c = list(_converged_config(g, params, rng))
        assert neighbor_safe(c, g, params)
        victim = 0
        fake = c[-1].rank.idA  # the endpoint's non-neighbor for a path
        assert fake not in set(bits(c[victim].neighbors))
        c[victim] = c[victim]._replace(neighbors=c[victim].neighbors | (1 << fake))
        assert not neighbor_safe(c, g, params)

        pairs = g.directed_pairs
        sched = np.random.default_rng(1000 + n)
        emitted = False
        budget = 3_000_000
        pred = neighbor_safe_predicate(g, params)
        steps = 0
        while steps < budget and not pred(c):
            for idx in sched.integers(0, len(pairs), size=4096).tolist():
                u, v = pairs[idx]
                c[u], c[v] = neighbor.step(c[u], c[v], params)
                steps += 1
                if c[u].resetE == params.emax or c[v].resetE == params.emax:
                    emitted = True
                if pred(c):
                    break
        assert emitted, f"no error signal was ever raised on path:{n}"
        assert pred(c), f"did not reconverge on path:{n} within {budget} steps"
        assert all(
            s.neighbors == mask_of(c[u].rank.idA for u in g.adjacency[v])
            for v, s in enumerate(c)
        )


def test_recovers_from_hostile_starts():
    # Adversarial memory rather than uniform noise: saturated error signals,
    # fully fake neighbor sets, audit sums pinned at the overflow value,
    # expired timers.  All must wash out.
    from poplab.engine import run_until
    from poplab.oracles import neighbor_safe

    def saturated(n, m, params):
        return NeighborState(RankState(0, 0, RED, BLUE, 0), n, 2 * m + 1,
                             params.emax, 0, (1 << n) - 1, (1 << n) - 1)

    def liar(n, m, params):
        return NeighborState(RankState(n - 1, 0, BLUE, BLUE, params.tmax), 0, 0,
                             0, params.pmax, (1 << n) - 1, 0)

    for g_seed, make in enumerate((saturated, liar)):
        g = generate_graph("random_connected", 5, 6, seed=g_seed)
        params = default_params(g, know_m=True)
        c0 = tuple(make(g.n, g.m, params) for _ in range(g.n))
        res = run_until(NEIGHBOR, g, c0, params, seed=g_seed + 7,
                        max_steps=10**7,
                        safe_predicate=neighbor_safe_predicate(g, params),
                        closure_window=5000)
        assert res.steps_to_safe is not None
        assert res.closure_ok is True
        assert neighbor_safe(res.final_states, g, params)


def test_convergence_from_uniform_start_on_k2():
    g = generate_graph("complete", 2)
    params = default_params(g, know_m=True)
    res = run_trial(
        NEIGHBOR, g, params, trial_seed=9, max_steps=2_000_000,
        safe_predicate=neighbor_safe_predicate(g, params), closure_window=2000,
    )
    assert res.steps_to_safe is not None
    assert res.closure_ok is True
    assert neighbor_safe(res.final_states, g, params)


def test_output_views():
    s = NeighborState(RankState(1, 0, RED, RED, 0), 1, 0, 0, 3, mask_of([0, 2]), 0)
    assert NEIGHBOR.output(s) == (1, mask_of([0, 2]))
    assert neighbor.output_labels(s) == (1, frozenset({0, 2}))
    assert neighbor.degree_output(s) == 2


def test_to_json():
    s = NeighborState(RankState(2, 0, WHITE, BLUE, 5), 3, 4, 1, 2,
                      mask_of([0, 3]), mask_of([1]))
    params = ProtocolParams(n=4, m_known=4, tmax=6, pmax=9, emax=3)
    NEIGHBOR.validate_state(s, params)
    obj = NEIGHBOR.to_json(s)
    assert obj == {
        "idA": 2, "idT": 0, "colorA": "white", "colorT": "blue", "timerT": 5,
        "degreeT": 3, "dsum": 4, "resetE": 1, "timerP": 2, "neighbors": [0, 3], "counted": [1],
    }
    assert list(obj) == [f.name for f in NEIGHBOR.fields]


def test_state_index_roundtrip():
    params = ProtocolParams(n=2, m_known=1, tmax=1, pmax=1, emax=1)
    count = NEIGHBOR.state_count(params)
    assert count == 48 * 3 * 4 * 2 * 2 * 4 * 4
    rng = np.random.default_rng(0)
    for _ in range(200):
        i = int(rng.integers(0, count))
        s = NEIGHBOR.state_from_index(i, params)
        NEIGHBOR.validate_state(s, params)
        assert NEIGHBOR.state_to_index(s, params) == i


def test_packed_state_is_linear_in_n():
    # A state index fits in 32n bits across the whole supported range: the
    # two label sets cost 2n and everything else is logarithmic.
    rng = random.Random(3)
    for n in range(2, 8):
        for _ in range(5):
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = generate_graph("random_connected", n, m, seed=rng.getrandbits(32))
            params = default_params(g, know_m=True)
            width = (NEIGHBOR.state_count(params) - 1).bit_length()
            assert width <= 32 * n
            s = sample_uniform_config(NEIGHBOR, params, rng.getrandbits(32))[0]
            index = NEIGHBOR.state_to_index(s, params)
            assert index.bit_length() <= width
            assert NEIGHBOR.state_from_index(index, params) == s
