"""Workload inputs, operations and correctness checks of the poplab benchmark.

Every input is drawn from the workload seed through numpy's SeedSequence, so
one seed always gives the same inputs.  The program receives only those
inputs (graph shapes, graph seeds, trial seeds, command lines), never the
workload seed itself.

The checks recompute what a correct output must be from the inputs alone:
the label set 0..n-1, the labels of each agent's true neighbors, the size of
the configuration space, the degrees of the two graphs of the impossibility
search.  None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ranking-selfstab", "neighbor-selfstab", "ranking-converge", "verify-exhaustive")

MAX_STEPS = 10**8
SELFSTAB_WINDOW = 10**5

# A round is one trial on every graph of the workload, or the three verify
# commands.  A run repeats its round until the measuring time is spent, so it
# attempts whole rounds of the same operations; each repetition must
# reproduce the first exactly.  The trial times are random with the seed, so
# a round holds enough distinct trials that its median and its step rate move
# little from seed to seed, and still fits two to four times in a run.
SELFSTAB_RANKING_PER_N = 3
SELFSTAB_NEIGHBOR_PER_N = 3

# ranking-converge uses one size, and one edge count for the random graphs, so
# that the graphs a seed draws move neither the per-step cost (the predicate
# is O(n)) nor the median trial much; many short trials keep that median
# steady across seeds.
CONVERGE_N = 8
CONVERGE_M = 2 * CONVERGE_N
CONVERGE_KINDS = ("cycle", "complete", "random_connected")
CONVERGE_PER_KIND = 36

VERIFY_TMAX = 2
VERIFY_RANKING_GRAPHS = ("complete:3", "path:3")
IMPOSSIBILITY_SPEC = "path:3,complete:3"


@dataclass(frozen=True)
class TrialSpec:
    """A graph and the trial settings every round runs on it."""

    protocol: str  # "ranking" or "neighbor"
    kind: str
    n: int
    m: int | None  # only for random_connected
    graph_seed: int
    trial_seed: int
    closure_window: int


@dataclass(frozen=True)
class VerifySpec:
    """One ``poplab verify`` command: a ranking check or the impossibility search."""

    kind: str  # "ranking" or "impossibility"
    graphs: str  # the graph spec, or "SUB,SUPER" for the impossibility search

    @property
    def argv(self) -> list[str]:
        if self.kind == "ranking":
            return ["verify", "--protocol", "ranking", "--graph", self.graphs,
                    "--tmax", str(VERIFY_TMAX)]
        return ["verify", "--protocol", "greedydegree", "--impossibility", self.graphs]


def _rng(seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *index)))


def selfstab_graphs(seed: int, protocol: str, n_max: int, per_n: int) -> list[TrialSpec]:
    """The generator of acceptance criteria 06 (ranking) and 08 (neighbor), stratified.

    The criteria draw n uniformly from 2..n_max and m uniformly over its
    feasible range.  Here each n gets ``per_n`` trials, and the k-th of them
    draws m uniformly from the k-th of ``per_n`` equal parts of that range, so
    the mix of small and large, sparse and dense populations does not change
    from seed to seed; only the graphs and the trials themselves do.
    """
    specs = []
    for n in range(2, n_max + 1):
        low, count = n - 1, n * (n - 1) // 2 - (n - 1) + 1
        for k in range(per_n):
            rng = _rng(seed, len(specs))
            m = low + int((k + rng.random()) / per_n * count)
            specs.append(TrialSpec(protocol, "random_connected", n, m, int(rng.integers(2**63)),
                                   int(rng.integers(2**63)), SELFSTAB_WINDOW))
    return specs


def converge_graphs(seed: int) -> list[TrialSpec]:
    """Cycles, complete graphs and random connected graphs with m = 2n, on n = 8."""
    specs = []
    for kind in CONVERGE_KINDS:
        for _ in range(CONVERGE_PER_KIND):
            rng = _rng(seed, len(specs))
            random = kind == "random_connected"
            specs.append(TrialSpec("ranking", kind, CONVERGE_N, CONVERGE_M if random else None,
                                   int(rng.integers(2**63)) if random else 0,
                                   int(rng.integers(2**63)), 0))
    return specs


def verify_commands(seed: int) -> list[VerifySpec]:
    """The three verify commands, in an order drawn from the seed."""
    specs = [VerifySpec("ranking", graph) for graph in VERIFY_RANKING_GRAPHS]
    specs.append(VerifySpec("impossibility", IMPOSSIBILITY_SPEC))
    order = _rng(seed).permutation(len(specs))
    return [specs[i] for i in order]


def round_operations(workload: str, seed: int) -> list:
    """What every round of the workload runs: one trial per graph, or the verify commands."""
    if workload == "ranking-selfstab":
        return selfstab_graphs(seed, "ranking", 8, SELFSTAB_RANKING_PER_N)
    if workload == "neighbor-selfstab":
        return selfstab_graphs(seed, "neighbor", 7, SELFSTAB_NEIGHBOR_PER_N)
    if workload == "ranking-converge":
        return converge_graphs(seed)
    if workload == "verify-exhaustive":
        return verify_commands(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def process_groups(ops: list) -> list[list[int]]:
    """The operations of a round that share one fresh process, by index.

    Each verify command gets a process of its own, as when a user runs
    ``poplab verify``; the trials on one kind of graph share one, as the
    trials of one ``poplab run`` command do.  No process runs an operation
    twice, so nothing a repetition leaves in memory can make the next one
    faster.  Each process also gives one sample of the set-up time.
    """
    groups: dict = {}
    for i, op in enumerate(ops):
        groups.setdefault(("verify", i) if isinstance(op, VerifySpec) else op.kind, []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Edge lists the benchmark builds itself, for the checks.
# ---------------------------------------------------------------------------


def named_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a ``complete:n`` or ``path:n`` spec."""
    kind, _, size = spec.partition(":")
    n = int(size)
    if kind == "complete":
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "path":
        return n, [(v, v + 1) for v in range(n - 1)]
    raise ValueError(f"no edge list for {spec!r}")


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


# ---------------------------------------------------------------------------
# Checks.  Each returns None when the output is correct, else the reason.
# ---------------------------------------------------------------------------


def check_trial(steps_to_safe, closure_ok, closure_window: int) -> str | None:
    if steps_to_safe is None:
        return "never reached the safe set"
    if closure_window > 0 and closure_ok is not True:
        return "changed an output inside the closure window"
    return None


def check_ranking_labels(labels, n: int) -> str | None:
    if sorted(labels) != list(range(n)):
        return f"final labels {sorted(labels)} are not exactly 0..{n - 1}"
    return None


def check_neighbor_masks(labels, masks, n: int, edges) -> str | None:
    """Every agent's neighbor mask must be the labels of its true neighbors."""
    problem = check_ranking_labels(labels, n)
    if problem:
        return problem
    expected = [0] * n
    for u, v in edges:
        expected[u] |= 1 << labels[v]
        expected[v] |= 1 << labels[u]
    for v in range(n):
        if masks[v] != expected[v]:
            return f"agent {v} claims neighbor labels {masks[v]:#b}, true ones are {expected[v]:#b}"
    return None


def ranking_config_count(n: int, tmax: int) -> int:
    """Per agent: idA, idT in 0..n-1, three agent colors, two token colors, timer 0..tmax."""
    return (6 * n * n * (tmax + 1)) ** n


def check_verify_ranking(exit_code: int, record: dict, spec: str, tmax: int) -> str | None:
    """The paper's theorem: ranking self-stabilizes, so the checker must verify it."""
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if record.get("verified") is not True:
        return "verified is not true"
    n, _ = named_edges(spec)
    expected = ranking_config_count(n, tmax)
    if record.get("configurations") != expected:
        return f"configurations {record.get('configurations')}, expected {expected}"
    return None


def _greedy_claims(states) -> list[int]:
    return [len(s["seen"]) for s in states]


def replay_greedy(states, pairs) -> list[dict]:
    """Replay a greedy-degree witness: each side adds the partner's label to ``seen``."""
    states = [{"label": s["label"], "seen": set(s["seen"])} for s in states]
    for u, v in pairs:
        states[u]["seen"].add(states[v]["label"])
        states[v]["seen"].add(states[u]["label"])
    return states


def check_impossibility(exit_code: int, record: dict, spec: str) -> str | None:
    """The witness must start degree-correct on the supergraph and fail on the subgraph."""
    if exit_code != 3:
        return f"exit code {exit_code}, expected 3 (witness found)"
    witness = record.get("witness")
    if not witness:
        return "no witness"
    sub_spec, _, super_spec = spec.partition(",")
    n, sub_edges = named_edges(sub_spec)
    _, super_edges = named_edges(super_spec)
    start = witness["start"]
    if _greedy_claims(start) != degrees(n, super_edges):
        return f"witness start claims {_greedy_claims(start)}, degrees on {super_spec} are {degrees(n, super_edges)}"
    agent = witness["agent"]
    if witness["kind"] == "frozen_output":
        if _greedy_claims(start)[agent] == degrees(n, sub_edges)[agent]:
            return f"frozen claim of agent {agent} equals its degree on {sub_spec}"
        return None
    if witness["kind"] == "output_change":
        allowed = set(sub_edges) | {(v, u) for u, v in sub_edges}
        pairs = [tuple(p) for p in witness["pairs"]]
        if not set(pairs) <= allowed:
            return f"witness pairs {pairs} are not all edges of {sub_spec}"
        end = _greedy_claims(replay_greedy(start, pairs))
        if end[agent] == _greedy_claims(start)[agent]:
            return f"replaying the witness on {sub_spec} leaves agent {agent}'s output unchanged"
        return None
    return f"unexpected witness kind {witness['kind']!r}"
