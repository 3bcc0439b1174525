"""Ground-truth machinery independent of the simulator.

Problem-specification checkers, the nested safe-set classifier for the
ranking protocol, a structural safe predicate for neighbor recognition, the
one map from a protocol to its safe predicate (``safe_predicate``), exact Markov-chain solvers for the token random walk, Monte Carlo walk
estimators, and the token-collision game solver with its brute-force twin.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np

from .engine import mix_seed
from .errors import BadCounts, Singular, TooLarge
from .graph import Graph
from .neighbor import bits, mask_of
from .ranking import WHITE


class SafeLevel(IntEnum):
    """Nested safe sets of the ranking protocol (each level implies the previous)."""

    NONE = 0
    DISTINCT_TOKENS = 1  # every token label occurs exactly once
    COLOR_SYNCED = 2     # ... and every occupied agent label has a consistent witness
    RANKED = 3           # ... and agent labels are a permutation of 0..n-1


def classify_rank_config(states: Sequence, params) -> SafeLevel:
    """Highest safe level a ranking configuration belongs to.

    DISTINCT_TOKENS needs all token labels distinct.  COLOR_SYNCED needs, for
    every label x held by at least one agent, some agent labeled x that is
    white or shares the color of the token labeled x.  RANKED needs the agent
    labels to be distinct too.
    """
    n = params.n
    token_color = [-1] * n
    for s in states:
        if token_color[s.idT] != -1:
            return SafeLevel.NONE
        token_color[s.idT] = s.colorT
    occupied = [False] * n
    witnessed = [False] * n
    for s in states:
        x = s.idA
        occupied[x] = True
        if s.colorA == WHITE or s.colorA == token_color[x]:
            witnessed[x] = True
    for x in range(n):
        if occupied[x] and not witnessed[x]:
            return SafeLevel.DISTINCT_TOKENS
    seen = [False] * n
    for s in states:
        if seen[s.idA]:
            return SafeLevel.COLOR_SYNCED
        seen[s.idA] = True
    return SafeLevel.RANKED


def rank_safe_predicate(params):
    """Safe predicate: the configuration is fully ranked.

    The predicate carries the mark ``safe_for = ("ranking", None, params)``,
    which lets ``engine.run_until`` run the compiled loop's copy of it (and
    confirm that copy's verdicts with this one); a wrapper drops the mark.
    """

    def pred(states) -> bool:
        return classify_rank_config(states, params) is SafeLevel.RANKED

    pred.safe_for = ("ranking", None, params)
    return pred


def _as_label_set(value) -> frozenset[int]:
    if isinstance(value, int):
        return frozenset(bits(value))
    return frozenset(value)


def check_spec(problem: str, outputs: Sequence, g: Graph) -> bool:
    """Does an output vector satisfy a problem specification?

    elect:    exactly one agent outputs "L", the rest "F".
    ranking:  the outputs are exactly {0, ..., n-1}.
    degree:   every agent outputs its degree.
    neighbor: every agent outputs (label, label-set) with the set equal to
              its neighbors' labels and as large as its degree (which forces
              all neighbors of any agent to carry distinct labels).
    """
    n = g.n
    if len(outputs) != n:
        raise ValueError(f"expected {n} outputs, got {len(outputs)}")
    if problem == "elect":
        return sum(1 for o in outputs if o == "L") == 1 and all(o in ("L", "F") for o in outputs)
    if problem == "ranking":
        return set(outputs) == set(range(n))
    if problem == "degree":
        return all(outputs[v] == g.degree(v) for v in range(n))
    if problem == "neighbor":
        labels = [o[0] for o in outputs]
        for v in range(n):
            claimed = _as_label_set(outputs[v][1])
            actual = frozenset(labels[u] for u in g.adjacency[v])
            if claimed != actual or len(claimed) != g.degree(v):
                return False
        return True
    raise ValueError(f"unknown problem {problem!r}")


def neighbor_safe(states: Sequence, g: Graph, params) -> bool:
    """Structural safe predicate for neighbor recognition.

    True iff the embedded ranking part is RANKED, every agent's neighbor set
    equals the labels of its true neighbors, no error signal is live, every
    token's degree payload is at most the degree of its home agent, and every
    agent's audited sum is covered by the degrees of the labels it counted.
    That bound needs no cap at 2m: the ranking part is RANKED, so the counted
    labels belong to distinct agents and their degrees sum to at most 2m, and
    an audited sum inside it never reaches 2m+1.  The set of configurations
    satisfying this predicate is closed under interactions and implies the
    neighbor spec.
    """
    n = g.n
    ranks = [s.rank for s in states]
    if classify_rank_config(ranks, params) is not SafeLevel.RANKED:
        return False
    agent_of_label = [0] * n
    token_host = [0] * n
    for v, r in enumerate(ranks):
        agent_of_label[r.idA] = v
        token_host[r.idT] = v
    label_degree = [g.degree(agent_of_label[x]) for x in range(n)]
    for v, s in enumerate(states):
        if s.resetE != 0:
            return False
        if s.neighbors != mask_of(ranks[u].idA for u in g.adjacency[v]):
            return False
    for x in range(n):
        if states[token_host[x]].degreeT > label_degree[x]:
            return False
    for s in states:
        bound = sum(label_degree[x] for x in bits(s.counted))
        if s.dsum > bound:
            return False
    return True


def neighbor_safe_predicate(g: Graph, params):
    """neighbor_safe as an engine predicate, marked ``safe_for = ("neighbor", g, params)``.

    The mark plays the same part as in ``rank_safe_predicate``.
    """

    def pred(states) -> bool:
        return neighbor_safe(states, g, params)

    pred.safe_for = ("neighbor", g, params)
    return pred


def safe_predicate(protocol, g: Graph, params):
    """The safe predicate a protocol is run and verified against, by its name.

    ranking: ``rank_safe_predicate``; neighbor: ``neighbor_safe_predicate``;
    greedydegree and fixedoutput: every agent's ``protocol.output`` is its
    degree in ``g``.
    """
    if protocol.name == "ranking":
        return rank_safe_predicate(params)
    if protocol.name == "neighbor":
        return neighbor_safe_predicate(g, params)
    if protocol.name in ("greedydegree", "fixedoutput"):
        output = protocol.output

        def pred(states) -> bool:
            return check_spec("degree", [output(s) for s in states], g)

        return pred
    raise ValueError(f"no safe predicate for protocol {protocol.name!r}")


# ---------------------------------------------------------------------------
# Exact solvers for the per-step token walk.
#
# Under the uniformly random scheduler a single token sits on agent x and
# moves to a fixed neighbor with probability 1/m per step (the step must pick
# the hosting edge), so it stays put with probability 1 - deg(x)/m.  Hitting
# times to a target v solve the dense linear system
#
#     h[v] = 0,    h[x] = 1 + sum_y P(x, y) h[y]   (x != v).
# ---------------------------------------------------------------------------


def hitting_times_to(g: Graph, v: int) -> np.ndarray:
    """Expected steps for a token to first reach v, from every start agent."""
    n, m = g.n, g.m
    others = [x for x in range(n) if x != v]
    pos = {x: i for i, x in enumerate(others)}
    a = np.zeros((n - 1, n - 1))
    for i, x in enumerate(others):
        a[i, i] = g.degree(x) / m  # 1 - P(x, x)
        for y in g.adjacency[x]:
            if y != v:
                a[i, pos[y]] -= 1.0 / m
    try:
        h = np.linalg.solve(a, np.ones(n - 1))
    except np.linalg.LinAlgError as exc:  # unreachable on connected graphs
        raise Singular(str(exc)) from exc
    out = np.zeros(n)
    for i, x in enumerate(others):
        out[x] = h[i]
    return out


def exact_hitting_time(g: Graph, u: int, v: int) -> float:
    """Expected steps until the token starting on u first visits v.

    For u == v this is the return time, which equals n exactly on every
    population (the walk's stationary distribution is uniform).
    """
    h = hitting_times_to(g, v)
    if u != v:
        return float(h[u])
    return float(1.0 + sum(h[w] for w in g.adjacency[v]) / g.m)


def exact_meeting_time(g: Graph, u: int, v: int) -> float:
    """Expected steps until tokens started on u and v share an interaction.

    Solved on the chain of ordered distinct position pairs; the transition
    where the scheduler picks exactly the two hosting agents swaps the tokens
    and is absorbing here.
    """
    if u == v:
        raise ValueError("meeting time needs two distinct start agents")
    n, m = g.n, g.m
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    pos = {p: i for i, p in enumerate(pairs)}
    size = len(pairs)
    mat = np.zeros((size, size))
    rhs = np.ones(size)
    for i, (a, b) in enumerate(pairs):
        moves = 0
        for c in g.adjacency[a]:
            if c != b:
                mat[i, pos[(c, b)]] -= 1.0 / m
                moves += 1
        for dnode in g.adjacency[b]:
            if dnode != a:
                mat[i, pos[(a, dnode)]] -= 1.0 / m
                moves += 1
        if g.has_edge(a, b):
            moves += 1  # the meeting itself, absorbing
        mat[i, i] += moves / m  # 1 - P(stay)
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise Singular(str(exc)) from exc
    return float(sol[pos[(u, v)]])


class Estimate(NamedTuple):
    """Monte Carlo sample mean with its standard error."""

    mean: float
    stderr: float


def _estimate(samples) -> Estimate:
    arr = np.asarray(samples, dtype=float)
    if len(arr) < 2:
        return Estimate(float(arr.mean()), 0.0)
    return Estimate(float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(len(arr))))


def _walk_draws(rng, npairs: int):
    while True:
        yield from rng.integers(0, npairs, size=4096).tolist()


def _walk_steps(g: Graph, w: int, trials: int, seed: int, done) -> Estimate:
    """Steps until done(visited mask, moves) holds for token w, asked at start and per move."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= w < g.n:
        raise ValueError(f"start agent {w} is not an agent of a graph with {g.n} agents")
    pairs = g.directed_pairs
    samples = []
    for t in range(trials):
        draws = _walk_draws(np.random.default_rng(mix_seed(seed, t)), len(pairs))
        host = w
        visited = 1 << w
        moves = 0
        steps = 0
        while not done(visited, moves):
            while True:
                u, v = pairs[next(draws)]
                steps += 1
                if host == u or host == v:
                    break
            host = v if host == u else u
            visited |= 1 << host
            moves += 1
        samples.append(steps)
    return _estimate(samples)


def empirical_cover_time(g: Graph, w: int, trials: int, seed: int) -> Estimate:
    """Steps until token w has visited every agent (Monte Carlo, tracker runs)."""
    full = (1 << g.n) - 1
    return _walk_steps(g, w, trials, seed, lambda visited, moves: visited == full)


def empirical_move_count_steps(g: Graph, w: int, k: int, trials: int, seed: int) -> Estimate:
    """Steps until token w has changed host k times.

    The per-location wait is m/deg(x) steps in expectation, which pins the
    k=1 cases exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _walk_steps(g, w, trials, seed, lambda visited, moves: moves == k)


# ---------------------------------------------------------------------------
# The collision game: n players, states 0..n-1; whenever a selected pair
# shares a state, one of the two advances by one mod n.  Both protocols'
# label dynamics reduce to this game, and convergence rests on the fact that
# some state z is never entered from z-1.
# ---------------------------------------------------------------------------


def game_counts(states: Sequence[int]) -> tuple[int, ...]:
    n = len(states)
    counts = [0] * n
    for s in states:
        if not 0 <= s < n:
            raise BadCounts(f"player state {s} outside 0..{n - 1}")
        counts[s] += 1
    return tuple(counts)


def game_stable_set(counts: Sequence[int]) -> frozenset[int]:
    """States never entered from their predecessor, straight from the counts.

    z qualifies iff for every window length i = 1..n-1 the i states preceding
    z hold at most i players in the initial configuration; the set depends on
    the start alone, never on the schedule, and is always non-empty.
    """
    n = len(counts)
    if n < 1 or any(c < 0 for c in counts) or sum(counts) != n:
        raise BadCounts(f"counts must be non-negative and sum to {n}: {counts}")
    stable = []
    for z in range(n):
        acc = 0
        ok = True
        for i in range(1, n):
            acc += counts[(z - i) % n]
            if acc > i:
                ok = False
                break
        if ok:
            stable.append(z)
    return frozenset(stable)


def game_brute_force(states: Sequence[int]) -> frozenset[int]:
    """Exhaustive twin of game_stable_set over raw player-state vectors.

    Explores every reachable configuration under every pair choice and every
    tie-break, and reports which states are never entered via an increment
    from their predecessor.  n^n configurations, so n <= 5.
    """
    n = len(states)
    if n > 5:
        raise TooLarge(n**n, 5**5)
    game_counts(states)  # validates player-state ranges
    start = tuple(states)
    entered = set()
    seen = {start}
    queue = deque([start])
    while queue:
        cfg = queue.popleft()
        for i in range(n):
            for j in range(i + 1, n):
                if cfg[i] != cfg[j]:
                    continue
                entered.add((cfg[i] + 1) % n)
                for bump in (i, j):
                    nxt = list(cfg)
                    nxt[bump] = (nxt[bump] + 1) % n
                    key = tuple(nxt)
                    if key not in seen:
                        seen.add(key)
                        queue.append(key)
    return frozenset(range(n)) - entered
