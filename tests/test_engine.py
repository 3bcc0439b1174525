import ctypes
import dataclasses
import functools
import platform
import re
import shutil
import subprocess

import numpy as np
import pytest
from scipy import stats

from poplab import _compiled, cli, engine
from poplab.engine import (
    Field,
    Protocol,
    ProtocolParams,
    default_params,
    mix_seed,
    random_below,
    replay,
    run_trial,
    run_until,
    sample_uniform_config,
)
from poplab.errors import DomainViolation, NotAnEdge
from poplab.graph import generate_graph
from poplab.neighbor import NEIGHBOR, NeighborState, mask_of
from poplab.oracles import neighbor_safe, rank_safe_predicate, safe_predicate
from poplab.ranking import BLUE, RANKING, RED, WHITE, RankState


# Transition returns its inputs; output is the whole state.
IDENTITY = Protocol(
    name="identity",
    fields=(Field("value", 0, lambda params: 32),),
    flatten=lambda s: (s,),
    unflatten=lambda values: values[0],
    step=lambda s0, s1, params: (s0, s1),
    output=lambda s: s,
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


def per_field_config(protocol, params, rng):
    """The reference start draw: agent by agent, one ``random_below`` per field."""
    sizes = [f.size(params) for f in protocol.fields]
    return tuple(
        protocol.unflatten([f.lo + random_below(rng, size) for f, size in zip(protocol.fields, sizes)])
        for _ in range(params.n))


START_DRAW_CASES = [
    (protocol, kind, n) for protocol in (RANKING, NEIGHBOR)
    for kind, n in (("path", 2), ("cycle", 8), ("random_connected", 64))
]


@pytest.mark.parametrize("protocol,kind,n", START_DRAW_CASES,
                         ids=[f"{p.name}-{kind}:{n}" for p, kind, n in START_DRAW_CASES])
def test_start_draw_matches_one_random_below_per_field(protocol, kind, n):
    # The one-call draw consumes the stream exactly as the per-field draws do;
    # neighbor masks at n = 64 have size 2^64 and take the per-field path.
    g = generate_graph(kind, n, 2 * n if kind == "random_connected" else None, seed=n)
    params = default_params(g, know_m=protocol.needs_m)
    for seed in (0, 1, 7, 2**40 + 3):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_uniform_config(protocol, params, a) == per_field_config(protocol, params, b)
        assert a.integers(0, 2**62) == b.integers(0, 2**62)


def test_start_draw_with_a_timer_wider_than_64_bits():
    params = ProtocolParams(n=5, tmax=2**70)
    for seed in (0, 3):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        c = sample_uniform_config(RANKING, params, a)
        assert c == per_field_config(RANKING, params, b)
        assert any(s.timerT >= 2**64 for s in c)
        assert a.integers(0, 2**62) == b.integers(0, 2**62)


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


def test_compiled_loop_loads_when_a_compiler_exists():
    # Without this a broken _loop.c would fall back silently, and the
    # differential tests below would compare the Python loop with itself.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    _compiled.entries(_compiled._build())  # raises OSError with the compiler's message
    assert _compiled.library() is not None


def test_loop_source_compiles_without_warnings(tmp_path):
    # With the build's own flags, so that the optimizer's warnings count too.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    proc = subprocess.run(
        ["cc", *_compiled.CC_FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "loop.so"),
         str(_compiled.SOURCE)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


def test_step_loops_call_no_function(tmp_path):
    # Every step helper and draw is inlined into the two entries.  Baseline
    # x86-64 has no popcnt instruction, so __builtin_popcountll would be a
    # call into libgcc there.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    if platform.machine().lower() not in ("x86_64", "amd64") or platform.system() != "Linux":
        pytest.skip("the assembly is read as x86-64 ELF")
    listing = tmp_path / "loop.s"
    subprocess.run(["cc", *_compiled.CC_FLAGS, "-S", "-o", str(listing), str(_compiled.SOURCE)],
                   check=True)
    text = listing.read_text()
    for entry in ("poplab_advance", "poplab_step_pairs"):
        body = re.search(rf"^{entry}:$(.*?)^\s*\.size\s+{entry},", text, re.M | re.S)
        assert body is not None, entry
        calls = re.findall(r"^\s*(call\w*|jmp\w*)\s+([^.\s]\S*)$", body.group(1), re.M)
        assert calls == [], entry


def test_build_cache_is_keyed_by_the_flags_and_the_source(monkeypatch, tmp_path):
    cached = _compiled._cache_path()
    assert cached.parent == _compiled.SOURCE.parent / "__pycache__"
    monkeypatch.setattr(_compiled, "CC_FLAGS", ("-O1", "-shared", "-fPIC"))
    assert _compiled._cache_path().name != cached.name
    monkeypatch.setattr(_compiled, "CC_FLAGS", ("-O2", "-shared-fPIC"))  # not the same flags
    assert _compiled._cache_path().name != cached.name
    monkeypatch.undo()
    edited = tmp_path / "_loop.c"
    edited.write_text(_compiled.SOURCE.read_text() + "\n")
    monkeypatch.setattr(_compiled, "SOURCE", edited)
    assert _compiled._cache_path().name != cached.name


def always_safe(protocol, g, params):
    """A marked predicate that holds everywhere: the run goes straight to its
    closure window from any start, so outputs do change there."""

    def pred(states):
        return True

    pred.safe_for = (protocol.name, g, params)
    return pred


def assert_same_run(protocol, g, params, seed, max_steps, closure_window, pred, start=None):
    """The compiled and the Python loop give the same run from ``start``, by
    default the uniform start of ``seed``."""
    c0 = sample_uniform_config(protocol, params, seed) if start is None else start
    assert engine._compiled_loop(protocol, g, params, c0, seed, pred) is not None
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


def closure_mismatches(lib, protocol, g, params, state_pairs):
    """Each state pair on which one closure-phase step of pair (0, 1) in C is not protocol.step."""
    assert g.directed_pairs[0] == (0, 1)
    loop = _compiled.CompiledLoop(lib, protocol, g, params, [state_pairs[0][0]] * g.n, 0)
    block = np.zeros(1, dtype=np.int64)  # one step of pair index 0
    for s0, s1 in state_pairs:
        loop._states[0] = protocol.flatten(s0)  # the C rows, written in place
        loop._states[1] = protocol.flatten(s1)
        assert loop.closure(block)[0] == 1
        got = tuple(map(protocol.unflatten, loop._states[:2].tolist()))
        if got != protocol.step(s0, s1, params):
            yield s0, s1, got


def assert_same_step(protocol, g, params, state_pairs):
    """One compiled step of pair (0, 1) equals protocol.step on each state pair."""
    assert list(closure_mismatches(_compiled.library(), protocol, g, params, state_pairs)) == []


def every_ranking_pair_k3():
    """complete:3, tmax=2, and all 162 x 162 ordered pairs of RANKING states there."""
    params = ProtocolParams(n=3, tmax=2)
    states = [RANKING.state_from_index(i, params) for i in range(RANKING.state_count(params))]
    return generate_graph("complete", 3), params, [(s0, s1) for s0 in states for s1 in states]


def test_compiled_step_matches_ranking_step_on_every_state_pair(compiled):
    # Seeded runs reach only some states; this covers all 162 x 162 pairs of
    # states at n = 3, tmax = 2, each stepped by the closure phase's form of
    # the step, which the verifier's pair tables do not run.
    g, params, pairs = every_ranking_pair_k3()
    assert len(pairs) == 26_244
    assert_same_step(RANKING, g, params, pairs)


def test_compiled_step_matches_neighbor_step_on_random_state_pairs(compiled):
    g = generate_graph("cycle", 5)
    params = default_params(g, know_m=True, tmax=2, pmax=3, emax=3)
    rng = np.random.default_rng(2024)
    pairs = [(NEIGHBOR.random_state(rng, params), NEIGHBOR.random_state(rng, params))
             for _ in range(5000)]
    assert_same_step(NEIGHBOR, g, params, pairs)
    # A denser sample where every agent neighbors every other.
    g = generate_graph("complete", 3)
    params = default_params(g, know_m=True, tmax=2, pmax=2, emax=2)
    states = NEIGHBOR.random_states(np.random.default_rng(2026), params, 40_000)
    assert_same_step(NEIGHBOR, g, params, list(zip(states[::2], states[1::2])))


def test_step_pairs_match_neighbor_step_on_random_state_pairs(compiled):
    # The entry the verifier tabulates with: every pair stepped in one call.
    g = generate_graph("cycle", 5)
    params = default_params(g, know_m=True, tmax=2, pmax=3, emax=3)
    rng = np.random.default_rng(2025)
    pairs = [(NEIGHBOR.random_state(rng, params), NEIGHBOR.random_state(rng, params))
             for _ in range(5000)]
    rows = np.array([[NEIGHBOR.flatten(s0), NEIGHBOR.flatten(s1)] for s0, s1 in pairs],
                    dtype=np.uint64)
    _compiled.step_pairs(_compiled.library_for(NEIGHBOR, params), NEIGHBOR, params, rows)
    got = [tuple(map(NEIGHBOR.unflatten, pair)) for pair in rows.tolist()]
    assert got == [NEIGHBOR.step(s0, s1, params) for s0, s1 in pairs]
    with pytest.raises(ValueError, match="contiguous uint64"):
        _compiled.step_pairs(_compiled.library(), NEIGHBOR, params, rows[:, :, :5].copy())


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


# ---------------------------------------------------------------------------
# The quiet path of the neighbor closure step: both agents calm (resetE 0,
# dsum short of the cap, every label counted) with timerP > 1.
# ---------------------------------------------------------------------------

def counted_neighbor_config(g, params, seed):
    """A neighbor-safe configuration of calm agents: labels and tokens equal to
    agent ids, exact neighbor sets, every label counted into dsum = 2m, and
    timerP drawn from 2..pmax, so that the audit resets are staggered."""
    rng = np.random.default_rng(seed)
    return tuple(
        NeighborState(RankState(v, v, RED, RED, params.tmax), g.degree(v), 2 * g.m, 0,
                      int(rng.integers(2, params.pmax + 1)), mask_of(g.adjacency[v]),
                      (1 << g.n) - 1)
        for v in range(g.n)
    )


COUNTED_CASES = {
    "complete-2": ("complete", 2, {"pmax": 16}),  # counted resets every 16 agent steps
    "cycle-5": ("cycle", 5, {"pmax": 7, "emax": 2}),
    "complete-7": ("complete", 7, {}),
    # At 64 agents counted is all 64 bits; the star's center resets and
    # counts all 64 tokens again several times in the window.
    "path-63": ("path", 63, {"pmax": 1000}),
    "path-64": ("path", 64, {"pmax": 1000}),
    "star-63": ("star", 63, {"pmax": 1000}),
    "star-64": ("star", 64, {"pmax": 1000}),
}
COUNTED_WINDOW = 20_000


def counted_case(name):
    kind, n, ceilings = COUNTED_CASES[name]
    g = generate_graph(kind, n)
    params = default_params(g, know_m=True, **ceilings)
    return g, params, counted_neighbor_config(g, params, n)


@pytest.mark.parametrize("name", COUNTED_CASES)
def test_compiled_neighbor_closure_from_counted_starts(compiled, name):
    # From calm agents the closure window takes the quiet path on nearly
    # every step, and the general path at each audit reset.
    g, params, c0 = counted_case(name)
    assert neighbor_safe(c0, g, params)
    res = assert_same_run(NEIGHBOR, g, params, g.n, 10, COUNTED_WINDOW,
                          safe_predicate(NEIGHBOR, g, params), start=c0)
    assert res.steps_to_safe == 0 and res.closure_ok


def quiet_boundary_pairs(g, params):
    """Neighbor state pairs for pair (0, 1) at every edge of the quiet path's guard.

    Each agent takes timerP in {0, 1, 2}, counted full or short of the label
    it will host, dsum in {cap - 1, cap}, resetE in {0, 1, 2} and its
    partner's label in its neighbor set or not, and the rank parts put each
    agent at home or away after the step.  Labels are 0 (agent 0) and n - 1
    (agent 1), so the top label is hosted, at home and away.
    """
    top, cap = g.n - 1, 2 * params.m_known + 1
    full = (1 << g.n) - 1
    # (agent 0's token, agent 1's token) for each (home 0, home 1): agent 0
    # hosts agent 1's token and agent 1 agent 0's.
    tokens = {(True, True): (top, 0), (True, False): (1, 0), (False, True): (top, 1),
              (False, False): (1, top)}
    pairs = []
    for t0, t1 in tokens.values():
        agents = []
        for label, token, hosted, partner, deg in ((0, t0, t1, top, 1), (top, t1, t0, 0, 2)):
            rank = RankState(label, token, RED, RED, params.tmax)
            others = full & ~(1 << label | 1 << partner)
            agents.append([
                NeighborState(rank, deg, dsum, reset, timer, others | known << partner,
                              full & ~(short << hosted))
                for timer in (0, 1, 2) for short in (0, 1) for dsum in (cap - 1, cap)
                for reset in (0, 1, 2) for known in (0, 1)
            ])
        pairs += [(s0, s1) for s0 in agents[0] for s1 in agents[1]]
    return pairs


def quiet_block_starts(g, params, count, seed):
    """Ranked configurations of agents near calm, with a block of pair indices each.

    Neighbor sets are exact, so only a reset signal ends a block early; timerP,
    counted, dsum and resetE are drawn so that steps on the general path turn
    agents calm (the last label counted, a resetE of 1 spent) or not calm (an
    audit reset, dsum reaching the cap) in mid-block.
    """
    rng = np.random.default_rng(seed)
    full, cap = (1 << g.n) - 1, 2 * params.m_known + 1
    for _ in range(count):
        config = []
        for v in range(g.n):
            short = int(rng.integers(0, g.n)) if rng.random() < 0.4 else None
            config.append(NeighborState(
                RankState(v, v, RED, RED, params.tmax), g.degree(v),
                int(rng.integers(cap - 4, cap)), int(rng.choice([0, 0, 0, 1])),
                int(rng.integers(1, params.pmax + 1)), mask_of(g.adjacency[v]),
                full if short is None else full & ~(1 << short)))
        yield config, rng.integers(0, len(g.directed_pairs), size=16)


def is_calm(s, params, n):
    return (s.resetE == 0 and s.dsum != 2 * params.m_known + 1
            and s.counted == (1 << n) - 1)


def python_closure(g, params, config, block):
    """The closure phase in Python: (pairs consumed, stopped on an output change,
    states after, how many times an agent whose calm bit a step turned steps again)."""
    states, turned, refreshed = list(config), set(), 0
    for i, e in enumerate(block):
        u, v = g.directed_pairs[e]
        refreshed += len(turned & {u, v})
        before = (states[u], states[v])
        states[u], states[v] = NEIGHBOR.step(states[u], states[v], params)
        for w, s in zip((u, v), before):
            if is_calm(s, params, g.n) != is_calm(states[w], params, g.n):
                turned.add(w)
        if any(NEIGHBOR.output(s) != NEIGHBOR.output(states[w]) for w, s in zip((u, v), before)):
            return i + 1, True, states, refreshed
    return len(block), False, states, refreshed


QUIET_GRAPHS = {"complete-3": ("complete", 3), "cycle-5": ("cycle", 5)}


@functools.cache
def quiet_graph(name):
    """The graph and its params, with ceilings small enough for the audit to reset often."""
    g = generate_graph(*QUIET_GRAPHS[name])
    return g, default_params(g, know_m=True, tmax=2, pmax=3, emax=3)


@functools.cache
def quiet_blocks(name):
    """The blocks of ``quiet_block_starts`` with their Python closure phases."""
    g, params = quiet_graph(name)
    return [(config, block, python_closure(g, params, config, block))
            for config, block in quiet_block_starts(g, params, 300, 7)]


def block_mismatches(lib, name):
    """Each block on which the compiled closure phase leaves the Python one."""
    g, params = quiet_graph(name)
    loop = _compiled.CompiledLoop(lib, NEIGHBOR, g, params, quiet_blocks(name)[0][0], 0)
    for config, block, (done, hit, states, _) in quiet_blocks(name):
        loop._states[:] = [NEIGHBOR.flatten(s) for s in config]
        if loop.closure(block) != (done, hit) or loop.states() != states:
            yield config, block


@pytest.mark.parametrize("name", QUIET_GRAPHS)
def test_quiet_path_boundary_pairs(compiled, name):
    g, params = quiet_graph(name)
    pairs = quiet_boundary_pairs(g, params)
    assert len(pairs) == 4 * 72 * 72
    assert_same_step(NEIGHBOR, g, params, pairs)


@pytest.mark.parametrize("name", QUIET_GRAPHS)
def test_quiet_path_blocks_refresh_the_calm_bits(compiled, name):
    # Blocks of 16 steps in which general steps turn agents calm or not calm
    # and those agents step again before the block ends.
    blocks = quiet_blocks(name)
    assert sum(refreshed for *_, (_, _, _, refreshed) in blocks) >= 1000
    assert {hit for *_, (_, hit, _, _) in blocks} == {True, False}
    assert list(block_mismatches(_compiled.library(), name)) == []


@pytest.mark.parametrize("kind", ["cycle", "complete"])
def test_compiled_loop_matches_python_loop_at_64_agents(compiled, kind):
    # The census arrays have one entry per label, 64 of them; the cap keeps
    # the Python loop short, so the run stops before convergence.
    g = generate_graph(kind, 64)
    params = default_params(g)
    res = assert_same_run(RANKING, g, params, 64, 200_000, 0, rank_safe_predicate(params))
    assert res.steps_to_safe is None


def converge_from(protocol, g, params, c0, pairs):
    """Run the compiled convergence loop from ``c0`` over the given directed pairs."""
    loop = _compiled.CompiledLoop(_compiled.library(), protocol, g, params, c0, 0)
    block = np.array([g.directed_pairs.index(p) for p in pairs], dtype=np.int64)
    return loop.converge(block), loop.states()


def is_permutation(labels, n):
    return sorted(labels) == list(range(n))


def test_census_gate_opens_on_distinct_labels_but_the_scan_rejects(compiled):
    # Tokens and labels stay permutations, so the predicate is asked after
    # every step; agent 3 is blue while the token of label 3 is red.
    g = generate_graph("complete", 4)
    params = ProtocolParams(n=4, tmax=100)
    c0 = [RankState(v, v, RED, RED, 100) for v in range(4)]
    c0[3] = RankState(3, 3, BLUE, RED, 100)
    pairs = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1)] * 12
    (done, hit), states = converge_from(RANKING, g, params, c0, pairs)
    assert (done, hit) == (60, False)
    assert is_permutation([s.idT for s in states], 4) and is_permutation([s.idA for s in states], 4)
    assert not rank_safe_predicate(params)(states)


RANKED_BY_ONE_STEP = {
    # Both tokens carry label 1; the responder's moves on to label 2.
    "token collision": [RankState(0, 1, WHITE, RED, 5), RankState(1, 1, WHITE, BLUE, 5),
                        RankState(2, 0, WHITE, RED, 5)],
    # Agent 1 shares label 0 and meets the red token 0 while blue: it moves on to label 1.
    "label bump": [RankState(0, 0, RED, RED, 5), RankState(0, 1, BLUE, BLUE, 5),
                   RankState(2, 2, WHITE, RED, 5)],
}


@pytest.mark.parametrize("how", RANKED_BY_ONE_STEP)
def test_census_follows_the_step_that_ranks(compiled, how):
    g = generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=5)
    c0 = RANKED_BY_ONE_STEP[how]
    pred = rank_safe_predicate(params)
    assert not pred(c0)
    (done, hit), states = converge_from(RANKING, g, params, c0, [(0, 1)] + [(1, 2), (2, 0)] * 20)
    assert (done, hit) == (1, True)
    assert pred(states)


NEIGHBOR_FLAWS = {
    "none": lambda s: s,
    # Agent 4's set holds label 2, which is no neighbor of it: still RANKED.
    "fake label": lambda s: s._replace(neighbors=s.neighbors | 1 << 2),
    # Agent 4 is blue while the token of its label is red: labels still distinct.
    "stale color": lambda s: s._replace(rank=s.rank._replace(colorA=BLUE)),
    # Agent 4's error signal is live: the census sees it, so the gate stays shut.
    "live reset": lambda s: s._replace(resetE=1),
}


@pytest.mark.parametrize("flaw", NEIGHBOR_FLAWS)
def test_census_gate_leaves_the_neighbor_checks_to_the_scan(compiled, flaw):
    # A safe configuration stays safe.  A flawed one keeps distinct tokens
    # and labels, so the label censuses let every step through (a live reset
    # shuts the gate itself), but agent 4 never interacts, so the flaw stays
    # and the configuration is never safe.
    g = generate_graph("cycle", 5)
    params = default_params(g, know_m=True)
    c0 = list(safe_neighbor_config(g, params))
    c0[4] = NEIGHBOR_FLAWS[flaw](c0[4])
    pairs = [(0, 1), (1, 2), (2, 1), (1, 0)] * 10
    (done, hit), states = converge_from(NEIGHBOR, g, params, c0, pairs)
    assert (done, hit) == ((1, True) if flaw == "none" else (40, False))
    assert is_permutation([s.rank.idT for s in states], 5)
    assert is_permutation([s.rank.idA for s in states], 5)
    assert neighbor_safe(states, g, params) is (flaw == "none")


def test_dispatch_takes_the_python_loop_unless_every_condition_holds(compiled):
    g = generate_graph("cycle", 5)
    params = default_params(g, know_m=True)
    c0 = sample_uniform_config(NEIGHBOR, params, 0)
    pred = safe_predicate(NEIGHBOR, g, params)
    assert engine._compiled_loop(NEIGHBOR, g, params, c0, 0, pred) is not None
    assert engine._compiled_loop(NEIGHBOR, g, params, c0, 0, lambda states: pred(states)) is None
    other = safe_predicate(NEIGHBOR, generate_graph("path", 5), params)
    assert engine._compiled_loop(NEIGHBOR, g, params, c0, 0, other) is None
    proxy = dataclasses.replace(NEIGHBOR)  # same functions, not the NEIGHBOR record
    assert engine._compiled_loop(proxy, g, params, c0, 0, pred) is None
    huge = dataclasses.replace(params, pmax=1 << 62)
    assert engine._compiled_loop(NEIGHBOR, g, huge, c0, 0, safe_predicate(NEIGHBOR, g, huge)) is None
    rank_params = default_params(g)
    rank_c0 = sample_uniform_config(RANKING, rank_params, 0)
    assert engine._compiled_loop(RANKING, g, rank_params, rank_c0, 0, pred) is None
    # Ranking with m known packs pmax, emax and m into the C header too.
    rank_huge = default_params(g, know_m=True, pmax=1 << 62)
    rank_huge_c0 = sample_uniform_config(RANKING, rank_huge, 0)
    assert engine._compiled_loop(RANKING, g, rank_huge, rank_huge_c0, 0,
                                 rank_safe_predicate(rank_huge)) is None
    g65 = generate_graph("path", 65)
    params65 = default_params(g65)
    c65 = sample_uniform_config(RANKING, params65, 0)
    assert engine._compiled_loop(RANKING, g65, params65, c65, 0,
                                 rank_safe_predicate(params65)) is None
    # Only an int seed is seeded in C; numpy seeds any other kind it takes.
    for seed in (np.uint64(7), np.random.SeedSequence(7), np.random.default_rng(7)):
        assert engine._compiled_loop(NEIGHBOR, g, params, c0, seed, pred) is None


def test_a_seed_that_is_not_an_int_takes_the_python_loop_with_the_same_record(compiled,
                                                                             monkeypatch):
    g = generate_graph("cycle", 5)
    params = default_params(g, know_m=True)
    c0 = sample_uniform_config(NEIGHBOR, params, 0)
    pred = safe_predicate(NEIGHBOR, g, params)
    python_seeds = []
    python_loop = engine._PythonLoop
    monkeypatch.setattr(engine, "_PythonLoop",
                        lambda *args: python_seeds.append(args[-1]) or python_loop(*args))
    runs = [run_until(NEIGHBOR, g, c0, params, seed, 10**6, pred, closure_window=500,
                      record_trace=True)
            for seed in (7, np.uint64(7))]
    assert [type(seed) for seed in python_seeds] == [np.uint64]
    assert runs[0] == runs[1] and runs[0].steps_to_safe is not None
    assert runs[0].final_states == runs[1].final_states
    assert runs[0].trace == runs[1].trace


# ---------------------------------------------------------------------------
# The seeding and draws in C against numpy: the streams, the blocks, the
# start, the last phase's tail and the stream check.
# ---------------------------------------------------------------------------

# One bound per branch of _loop.c's draw_below: 0, 32-bit Lemire (twice), the
# raw 32-bit word, 64-bit Lemire and the raw 64-bit word.
DRAW_BOUNDS = [1, 12, 2**32 - 1, 2**32, 2**33 + 1, 2**64]

# One to four entropy words, with a zero word inside and on both sides of 2^32 and 2^64.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 5]


def test_c_seeding_matches_numpy(compiled):
    lib = _compiled.library()
    rng = np.random.default_rng(20)
    seeds = EDGE_SEEDS + [int.from_bytes(rng.bytes(int(rng.integers(1, 17))), "little")
                          for _ in range(200)]
    for seed in seeds:
        for index in (0, 1):
            theirs = np.random.default_rng(mix_seed(seed, index))
            assert _compiled.stream(lib, seed, index).tolist() == _compiled.numpy_words(theirs)
        theirs = np.random.default_rng(seed)
        assert _compiled.stream(lib, seed).tolist() == _compiled.numpy_words(theirs)


def test_a_negative_seed_raises_numpys_error_on_both_paths(compiled):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(-1)
    message = re.escape(str(numpy_error.value))
    g = generate_graph("cycle", 4)
    params = default_params(g)
    pred = rank_safe_predicate(params)
    c0 = sample_uniform_config(RANKING, params, 0)
    for p in (pred, lambda states: pred(states)):
        with pytest.raises(ValueError, match=message):
            run_trial(RANKING, g, params, -1, max_steps=10, safe_predicate=p)
        with pytest.raises(ValueError, match=message):
            run_until(RANKING, g, c0, params, -1, 10, p)


@pytest.mark.parametrize("bound", DRAW_BOUNDS)
def test_c_draw_matches_rng_integers_at_every_branch(compiled, bound):
    lib = _compiled.library()
    ours, theirs = _compiled.stream(lib, bound % 997), np.random.default_rng(bound % 997)
    # An odd number of 32-bit draws first: the buffered half is live.
    _compiled.draw(lib, ours, 12, np.empty(3, dtype=np.uint64))
    theirs.integers(0, 12, size=3)
    got = np.empty(257, dtype=np.uint64)
    _compiled.draw(lib, ours, bound, got)
    want = theirs.integers(0, bound, size=len(got), dtype=np.uint64 if bound > 2**63 else np.int64)
    assert got.tolist() == want.tolist()
    assert ours.tolist() == _compiled.numpy_words(theirs)


@pytest.mark.parametrize("kind, n", [("path", 2), ("complete", 8), ("cycle", 64)])
def test_loop_draws_the_blocks_rng_integers_draws(compiled, kind, n):
    # A phase that another follows draws each block whole, stopped or not.
    g = generate_graph(kind, n)
    params = default_params(g)
    loop = _compiled.CompiledLoop(_compiled.library(), RANKING, g, params,
                                  sample_uniform_config(RANKING, params, 0), n)
    theirs = np.random.default_rng(n)
    assert loop._stream.tolist() == _compiled.numpy_words(theirs)
    for size, closure in ((1, False), (7, True), (engine._BLOCK, False), (100, True)):
        block, consumed, _ = loop.advance(size, closure, False)
        assert block.dtype == np.int64 and 1 <= consumed <= size
        assert block[:size].tolist() == theirs.integers(0, len(g.directed_pairs), size=size).tolist()
    assert loop._stream.tolist() == _compiled.numpy_words(theirs)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 33, 64])
@pytest.mark.parametrize("protocol", [RANKING, NEIGHBOR], ids=["ranking", "neighbor"])
def test_c_drawn_start_matches_sample_uniform_config(compiled, protocol, n):
    # Neighbor's label sets have 2^n values: at n = 32 the raw 32-bit word, at
    # n = 33 64-bit Lemire, at n = 64 the per-field path of random_below.
    lib = _compiled.library()
    after_start = []

    def draw_states(stream, *args):
        lib.draw_states(stream, *args)
        after_start.append(list((ctypes.c_uint64 * _compiled.STREAM_WORDS).from_address(stream)))

    g = generate_graph("path", n)
    params = default_params(g, know_m=protocol is NEIGHBOR)
    for seed in range(4):
        after_start.clear()
        loop = _compiled.CompiledLoop(lib._replace(draw_states=draw_states), protocol, g, params,
                                      None, seed)
        theirs = np.random.default_rng(mix_seed(seed, 0))
        assert loop.states() == list(sample_uniform_config(protocol, params, theirs))
        assert after_start == [_compiled.numpy_words(theirs)]
        schedule = np.random.default_rng(mix_seed(seed, 1))
        assert loop._stream.tolist() == _compiled.numpy_words(schedule)


@pytest.mark.parametrize("field, value, message", [
    (0, 3, "idA out of 0..2"),  # above the field
    (3, 0, "colorT out of 1..2"),  # below it
])
def test_drawn_start_outside_the_domain_raises_the_state_check(compiled, field, value, message):
    lib = _compiled.library()

    def bad_draw(stream, lo, top, fields, count, out):
        lib.draw_states(stream, lo, top, fields, count, out)
        ctypes.c_uint64.from_address(out + 8 * (fields + field)).value = value  # agent 1

    g = generate_graph("complete", 3)
    params = ProtocolParams(n=3, tmax=2)
    with pytest.raises(DomainViolation, match=message):
        _compiled.CompiledLoop(lib._replace(draw_states=bad_draw), RANKING, g, params, None, 0)


@pytest.mark.parametrize("kind, n", [("complete", 3), ("cycle", 6), ("complete", 8)])
def test_the_stream_after_convergence_ends_where_its_phase_ends(compiled, kind, n):
    # With a window to follow, the stream stands after whole blocks, where
    # numpy's stands; in the last phase, after the stopping step's draw.
    g = generate_graph(kind, n)
    params = default_params(g)
    pred = rank_safe_predicate(params)
    mid_block = 0
    for seed in range(6):
        c0 = sample_uniform_config(RANKING, params, seed)
        for last in (False, True):
            loop = _compiled.CompiledLoop(_compiled.library(), RANKING, g, params, c0, seed)
            steps, safe = engine._draw_and_advance(loop, False, last, g.directed_pairs, 10**7,
                                                   None)
            assert safe and steps > 0
            theirs = np.random.default_rng(seed)
            drawn = steps if last else -(-steps // engine._BLOCK) * engine._BLOCK
            for at in range(0, drawn, engine._BLOCK):
                theirs.integers(0, len(g.directed_pairs), size=min(engine._BLOCK, drawn - at))
            assert loop._stream.tolist() == _compiled.numpy_words(theirs)
        mid_block += steps % engine._BLOCK != 0
    assert mid_block == 6


@pytest.mark.parametrize("window", [0, 1, 1_696, 100_000])
def test_the_last_phase_rule_keeps_the_python_loops_runs(compiled, window):
    # Each run stops converging mid-block at n >= 3; a window that follows
    # starts where the Python loop's does.
    for kind, n, seeds in (("complete", 3, range(3)), ("cycle", 6, range(1))):
        g = generate_graph(kind, n)
        params = default_params(g)
        pred = rank_safe_predicate(params)
        for seed in seeds:
            res = assert_same_run(RANKING, g, params, seed, 10**6, window, pred)
            assert res.steps_to_safe % engine._BLOCK != 0
            runs = [run_trial(RANKING, g, params, seed, max_steps=10**6, safe_predicate=p,
                              closure_window=window, record_trace=True)
                    for p in (pred, lambda states: pred(states))]
            assert runs[0] == runs[1] and runs[0].steps_to_safe % engine._BLOCK != 0
            assert runs[0].final_states == runs[1].final_states
            assert runs[0].trace == runs[1].trace


@pytest.mark.parametrize("fork", ["values", "state"])
def test_library_refuses_a_draw_that_forks_the_seed_stream(compiled, monkeypatch, fork):
    reference = _compiled._reference_draws

    def forked(rng, bound, count):
        want = reference(rng, bound, count)
        if fork == "values":
            want[-1] ^= 1
        elif bound == _compiled._CHECK_BOUNDS[-1]:
            rng.integers(0, 2)  # the same numbers, then one more draw
        return want

    monkeypatch.setattr(_compiled, "_reference_draws", forked)
    with pytest.raises(OSError, match="other numbers" if fork == "values" else "another state"):
        _compiled.check_stream(_compiled.library())
    starts = []
    sample = engine.sample_uniform_config
    monkeypatch.setattr(engine, "sample_uniform_config",
                        lambda *args: starts.append(args) or sample(*args))
    _compiled.stream_checked.cache_clear()
    try:
        assert not _compiled.stream_checked()
        assert _compiled.library() is not None  # the verifier keeps its compiled tables
        g = generate_graph("cycle", 4)
        params = default_params(g)
        pred = rank_safe_predicate(params)
        assert engine._compiled_loop(RANKING, g, params, None, 0, pred) is None
        run_trial(RANKING, g, params, 0, max_steps=10**6, safe_predicate=pred, closure_window=10)
        assert len(starts) == 1  # the Python path samples the start in Python
    finally:
        monkeypatch.undo()
        _compiled.stream_checked.cache_clear()
    assert _compiled.stream_checked()


def test_verify_never_runs_the_stream_check(compiled, monkeypatch, capsys):
    def check_stream(lib):
        raise AssertionError("verify ran the stream check")

    tables = []
    step_pairs = _compiled.step_pairs
    monkeypatch.setattr(_compiled, "check_stream", check_stream)
    monkeypatch.setattr(_compiled, "step_pairs",
                        lambda *args: tables.append(len(args[3])) or step_pairs(*args))
    _compiled.stream_checked.cache_clear()
    try:
        assert cli.main(["verify", "--protocol", "ranking", "--graph", "complete:3",
                         "--tmax", "2"]) == 0
    finally:
        _compiled.stream_checked.cache_clear()
    assert '"verified": true' in capsys.readouterr().out
    assert tables  # the pair tables were stepped in C


# Each mutant is one text substitution of _loop.c that forks a seed stream.
STREAM_MUTANTS = {
    "seed words swapped": ("r.state += (u128)words[0] << 64 | words[1];",
                           "r.state += (u128)words[1] << 64 | words[0];"),
    "SeedSequence constant": ("#define MULT_A 0x931e8875U", "#define MULT_A 0x931e8877U"),
    "tail left undrawn before a window": ("if (!(phase & LAST))", "if (!LAST)"),
    "tail drawn from the wrong offset": ("for (int64_t i = done; i < len; i++)",
                                         "for (int64_t i = done + 1; i < len; i++)"),
}


def stream_forked(lib) -> bool:
    """Does the stream check refuse ``lib``, or a seeded run on it leave the Python loop's?"""
    try:
        _compiled.check_stream(lib)
    except OSError:
        return True
    g = generate_graph("complete", 3)
    params = default_params(g)
    pred = rank_safe_predicate(params)
    for seed in range(3):
        c0 = sample_uniform_config(RANKING, params, seed)
        want = run_until(RANKING, g, c0, params, seed, 10**6, lambda states: pred(states),
                         closure_window=1_000, record_trace=True)
        loop = _compiled.CompiledLoop(lib, RANKING, g, params, c0, seed)
        try:
            got = engine._run(loop, True, RANKING, g, params, seed, 10**6, pred, 1_000, True)
        except RuntimeError:  # the Python predicate disagreed with C
            return True
        if (got, got.final_states, got.trace) != (want, want.final_states, want.trace):
            return True
    return False


def test_stream_mutants_are_caught(compiled, tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    source = _compiled.SOURCE.read_text()
    libs = {}
    for name, (old, new) in {"unchanged": ("", ""), **STREAM_MUTANTS}.items():
        assert name == "unchanged" or source.count(old) == 1, name
        path = tmp_path / f"{len(libs)}.c"
        path.write_text(source.replace(old, new) if old else source)
        built = path.with_suffix(".so")
        subprocess.run([cc, *_compiled.CC_FLAGS, "-o", str(built), str(path)], check=True)
        libs[name] = _compiled.entries(built)
    assert not stream_forked(libs.pop("unchanged"))
    assert [name for name, lib in libs.items() if not stream_forked(lib)] == []


# Each mutant is one text substitution of the closure phase's home test in _loop.c.
HOME_MUTANTS = {
    "timer run out dropped": ("((cA != cT) | (tT == 0))", "(cA != cT)"),
    "white or stale dropped": ("((cA != cT) | (tT == 0))", "(tT == 0)"),
    "away taken for home": ("(idA == idT) & (", "(idA != idT) & ("),
}


def test_closure_home_mutants_are_caught(compiled, tmp_path):
    # The cell-by-cell check must tell each mutant's closure step from ranking.step.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    g, params, pairs = every_ranking_pair_k3()
    source = _compiled.SOURCE.read_text()
    caught = []
    for i, (name, (old, new)) in enumerate(HOME_MUTANTS.items()):
        assert source.count(old) == 1, name
        path = tmp_path / f"{i}.c"
        path.write_text(source.replace(old, new))
        built = path.with_suffix(".so")
        subprocess.run(["cc", *_compiled.CC_FLAGS, "-o", str(built), str(path)], check=True)
        lib = _compiled.entries(built)
        if next(closure_mismatches(lib, RANKING, g, params, pairs), None) is not None:
            caught.append(name)
    assert caught == list(HOME_MUTANTS)


# Each mutant is one text substitution of the neighbor closure step's quiet path in _loop.c.
QUIET_MUTANTS = {
    "timer test > 0": ("(a0[TIMERP] > 1)", "(a0[TIMERP] > 0)"),
    "calm refresh dropped": ("    t->calm[v0] = calm(a0, cap, full);\n"
                             "    t->calm[v1] = calm(a1, cap, full);\n", ""),
    "full mask one label short": ("((u64)1 << n) - 1", "((u64)1 << (n - 1)) - 1"),
    "dsum != cap dropped": ("(a[DSUM] != cap) & ", ""),
    "cached set bits when the set grew": ("(pop + grew) & home", "pop & home"),
}


@functools.cache
def python_counted_run(name):
    g, params, c0 = counted_case(name)
    pred = safe_predicate(NEIGHBOR, g, params)
    return run_until(NEIGHBOR, g, c0, params, g.n, 10, lambda states: pred(states),
                     closure_window=COUNTED_WINDOW, record_trace=True)


def counted_run_forked(lib, name) -> bool:
    """Does the closure window from ``counted_case(name)`` on ``lib`` leave the Python loop's?"""
    g, params, c0 = counted_case(name)
    loop = _compiled.CompiledLoop(lib, NEIGHBOR, g, params, c0, g.n)
    got = engine._run(loop, True, NEIGHBOR, g, params, g.n, 10,
                      safe_predicate(NEIGHBOR, g, params), COUNTED_WINDOW, True)
    want = python_counted_run(name)
    return (got, got.final_states, got.trace) != (want, want.final_states, want.trace)


def quiet_path_caught(lib) -> bool:
    """Does a check of the quiet path tell ``lib``'s closure step from ``neighbor.step``?

    The blocks, then the boundary pairs, then the closure windows of the two
    small counted cases.
    """
    if any(next(block_mismatches(lib, name), None) is not None for name in QUIET_GRAPHS):
        return True
    for name in QUIET_GRAPHS:
        g, params = quiet_graph(name)
        pairs = quiet_boundary_pairs(g, params)
        if next(closure_mismatches(lib, NEIGHBOR, g, params, pairs), None) is not None:
            return True
    return any(counted_run_forked(lib, name) for name in ("complete-2", "cycle-5"))


def test_quiet_path_mutants_are_caught(compiled, tmp_path):
    # The mutants build side by side; the unchanged source, which library()
    # built with the same flags, is the control.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    source = _compiled.SOURCE.read_text()
    builds = {}
    for i, (name, (old, new)) in enumerate(QUIET_MUTANTS.items()):
        assert source.count(old) == 1, name
        path = tmp_path / f"{i}.c"
        path.write_text(source.replace(old, new))
        built = path.with_suffix(".so")
        builds[name] = built, subprocess.Popen([cc, *_compiled.CC_FLAGS, "-o", str(built), str(path)])
    assert not quiet_path_caught(_compiled.library())
    missed = []
    for name, (built, proc) in builds.items():
        assert proc.wait(timeout=120) == 0, name
        if not quiet_path_caught(_compiled.entries(built)):
            missed.append(name)
    assert missed == []


@pytest.mark.parametrize("protocol", [RANKING, NEIGHBOR], ids=["ranking", "neighbor"])
def test_run_trial_draws_in_c_what_the_python_path_draws(compiled, monkeypatch, protocol):
    # run_trial on the compiled path draws its start and blocks in C; the
    # wrapped predicate takes the Python path, which draws them with numpy.
    starts = []
    sample = engine.sample_uniform_config
    monkeypatch.setattr(engine, "sample_uniform_config",
                        lambda *args: starts.append(args) or sample(*args))
    for i in range(150):
        g, params, max_steps, closure_window = differential_case(protocol, i)
        if i % 4 == 3:
            pred = always_safe(protocol, g, params)
        else:
            pred = safe_predicate(protocol, g, params)
        runs = []
        for p in (pred, lambda states: pred(states)):
            runs.append(run_trial(protocol, g, params, i, max_steps=max_steps, safe_predicate=p,
                                  closure_window=closure_window, record_trace=True))
            assert len(starts) == len(runs) - 1  # only the Python path samples in Python
        starts.clear()
        assert runs[0] == runs[1]
        assert runs[0].final_states == runs[1].final_states
        assert runs[0].trace == runs[1].trace


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
