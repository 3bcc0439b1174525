"""The benchmark's correctness checks accept real program output and reject planted faults.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json

import pytest

import workloads as wl
from poplab import cli
from poplab.engine import default_params, run_trial
from poplab.graph import generate_graph
from poplab.neighbor import NEIGHBOR
from poplab.oracles import neighbor_safe_predicate, rank_safe_predicate
from poplab.ranking import RANKING


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue().splitlines()[-1])


def test_trial_check_rejects_no_convergence_and_broken_closure():
    assert wl.check_trial(120, True, wl.SELFSTAB_WINDOW) is None
    assert wl.check_trial(120, True, 0) is None
    assert wl.check_trial(None, None, wl.SELFSTAB_WINDOW)
    assert wl.check_trial(120, False, wl.SELFSTAB_WINDOW)


def test_ranking_check_rejects_duplicated_label():
    g = generate_graph("cycle", 5)
    params = default_params(g)
    res = run_trial(RANKING, g, params, 7, max_steps=10**8,
                    safe_predicate=rank_safe_predicate(params), closure_window=0)
    labels = [s.idA for s in res.final_states]
    assert wl.check_ranking_labels(labels, g.n) is None
    labels[labels.index(0)] = 1
    assert wl.check_ranking_labels(labels, g.n)


def test_neighbor_check_rejects_fake_label():
    g = generate_graph("path", 4)
    params = default_params(g, know_m=True)
    res = run_trial(NEIGHBOR, g, params, 3, max_steps=10**8,
                    safe_predicate=neighbor_safe_predicate(g, params), closure_window=1000)
    labels = [s.rank.idA for s in res.final_states]
    masks = [s.neighbors for s in res.final_states]
    assert wl.check_neighbor_masks(labels, masks, g.n, g.edges) is None
    # Plant a fake neighbor: agent 0 of the path claims agent 2, two hops away.
    masks[0] |= 1 << labels[2]
    assert wl.check_neighbor_masks(labels, masks, g.n, g.edges)


def test_verify_ranking_check_rejects_unverified_and_wrong_count():
    code, record = _cli(["verify", "--protocol", "ranking", "--graph", "complete:2", "--tmax", "2"])
    assert wl.check_verify_ranking(code, record, "complete:2", 2) is None
    assert record["configurations"] == wl.ranking_config_count(2, 2) == 72**2
    assert wl.check_verify_ranking(code, dict(record, verified=False), "complete:2", 2)
    assert wl.check_verify_ranking(
        code, dict(record, configurations=record["configurations"] + 1), "complete:2", 2)
    assert wl.check_verify_ranking(3, record, "complete:2", 2)


def test_impossibility_check_rejects_start_not_degree_correct():
    code, record = _cli(["verify", "--protocol", "greedydegree",
                         "--impossibility", wl.IMPOSSIBILITY_SPEC])
    assert wl.check_impossibility(code, record, wl.IMPOSSIBILITY_SPEC) is None
    witness = record["witness"]
    bad_start = [dict(s) for s in witness["start"]]
    bad_start[0]["seen"] = bad_start[0]["seen"][:1]
    planted = dict(record, witness=dict(witness, start=bad_start))
    assert "degrees on complete:3" in wl.check_impossibility(code, planted, wl.IMPOSSIBILITY_SPEC)
    assert wl.check_impossibility(0, record, wl.IMPOSSIBILITY_SPEC)


@pytest.mark.parametrize("pairs, accepted", [([[0, 1]], True), ([[0, 2]], False), ([], False)])
def test_impossibility_check_replays_output_change(pairs, accepted):
    start = [{"label": 0, "seen": [0, 2]}, {"label": 1, "seen": [0, 2]}, {"label": 2, "seen": [0, 1]}]
    record = {"witness": {"kind": "output_change", "start": start, "pairs": pairs,
                          "agent": 0, "before": 2, "after": 3}}
    problem = wl.check_impossibility(3, record, wl.IMPOSSIBILITY_SPEC)
    assert (problem is None) == accepted


def test_frozen_witness_must_contradict_subgraph_degree():
    start = [{"label": 0, "seen": [1, 2]}] * 3
    record = {"witness": {"kind": "frozen_output", "start": start, "pairs": [],
                          "agent": 1, "before": 2, "after": 2}}
    # Agent 1 is the middle of path:3, whose degree 2 matches its claim.
    assert wl.check_impossibility(3, record, wl.IMPOSSIBILITY_SPEC)
    record["witness"]["agent"] = 0
    assert wl.check_impossibility(3, record, wl.IMPOSSIBILITY_SPEC) is None


def test_round_operations_depend_only_on_seed():
    for name in wl.WORKLOADS:
        assert wl.round_operations(name, 5) == wl.round_operations(name, 5)
    assert wl.round_operations("ranking-selfstab", 5) != wl.round_operations("ranking-selfstab", 6)
    with pytest.raises(ValueError):
        wl.round_operations("no-such-workload", 1)


def test_process_groups_run_each_operation_once_and_each_verify_alone():
    for name in wl.WORKLOADS:
        ops = wl.round_operations(name, 5)
        groups = wl.process_groups(ops)
        assert sorted(i for g in groups for i in g) == list(range(len(ops)))
    assert [len(g) for g in wl.process_groups(wl.round_operations("verify-exhaustive", 5))] == [1, 1, 1]
    assert len(wl.process_groups(wl.round_operations("ranking-converge", 5))) == len(wl.CONVERGE_KINDS)
