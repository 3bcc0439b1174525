import csv
import hashlib
import json

import pytest

from poplab.cli import PROTOCOLS, main
from poplab.graph import generate_graph, save_edge_list

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def test_run_ranking_complete(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "ranking", "--graph", "complete:5",
        "--trials", "4", "--seed", "7", "--closure-window", "2000",
    )
    assert code == 0
    records = json_lines(out)
    trials = [r for r in records if "steps_to_safe" in r]
    summaries = [r for r in records if r.get("record") == "summary"]
    assert len(trials) == 4
    assert all(r["closure_ok"] is True for r in trials)
    assert all(r["protocol"] == "ranking" and r["n"] == 5 and r["m"] == 10 for r in trials)
    assert len(summaries) == 1
    assert summaries[0]["converged"] == 4
    assert summaries[0]["reference_steps"] > 0


def test_run_neighbor_path(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "neighbor", "--graph", "path:4",
        "--trials", "2", "--seed", "3", "--closure-window", "2000",
    )
    assert code == 0
    records = json_lines(out)
    trials = [r for r in records if "steps_to_safe" in r]
    assert len(trials) == 2
    assert all(r["closure_ok"] is True for r in trials)
    assert all(r["pmax"] is not None and r["emax"] is not None for r in trials)


def test_run_exit_1_when_trials_cannot_converge(capsys):
    # One step is never enough to rank five agents from a uniform start.
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "ranking", "--graph", "complete:5",
        "--trials", "2", "--seed", "1", "--max-steps", "1",
    )
    assert code == 1
    trials = [r for r in json_lines(out) if "steps_to_safe" in r]
    assert all(r["steps_to_safe"] is None and r["closure_ok"] is None for r in trials)


def test_run_missing_graph_file_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "ranking", "--graph", "file:missing.txt",
        "--trials", "1", "--seed", "0",
    )
    assert code == 2
    assert "not found" in err


def test_run_reads_edge_list_file(tmp_path, capsys):
    g = generate_graph("cycle", 4)
    path = tmp_path / "cycle.txt"
    save_edge_list(g, path)
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "ranking", "--graph", f"file:{path}",
        "--trials", "1", "--seed", "2", "--closure-window", "500",
    )
    assert code == 0
    assert json_lines(out)[0]["m"] == 4


def test_run_bad_spec_exits_2(capsys):
    code, _, _ = run_cli(capsys, "run", "--protocol", "ranking", "--graph",
                         "heptagon:9", "--trials", "1", "--seed", "0")
    assert code == 2


def test_strict_requires_seed(capsys):
    code, _, err = run_cli(capsys, "run", "--protocol", "ranking",
                           "--graph", "complete:3", "--trials", "1", "--strict")
    assert code == 2
    assert "seed" in err


def test_byte_identical_reruns(capsys):
    argv = ("run", "--protocol", "ranking", "--graph", "random_connected:5,6@11",
            "--trials", "3", "--seed", "5", "--closure-window", "1000")
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


# sha256 of the full stdout of each command, recorded before protocols shared
# one interface: a refactor or fast path that moves a record, a seed stream or
# a verdict changes a digest.
GOLDEN_STDOUT_SHA256 = [
    (("run", "--protocol", "ranking", "--graph", "random_connected:6,8@3",
      "--trials", "5", "--seed", "7", "--closure-window", "2000"),
     0, "432a7d3283ab2294e079649da2027f2d37622313edcea49990243e4e8a36b080"),
    (("run", "--protocol", "neighbor", "--graph", "path:4",
      "--trials", "5", "--seed", "7", "--closure-window", "2000"),
     0, "16cecca39a4d3660118f6e5370de788aa6cb113379c6a0fcba5117782eaeb96b"),
    (("verify", "--protocol", "ranking", "--graph", "complete:2"),
     0, "5ce2e165a09439d0db054c7891c6e0cd82cca99a8bf0dc751feaba321ddf748a"),
    (("verify", "--protocol", "greedydegree", "--impossibility", "path:3,complete:3"),
     3, "f850082b56d9f35b2b8b373cb84989fefcfe0644cd8e8921a4d409cd53df764b"),
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN_STDOUT_SHA256,
                         ids=[f"{a[0]}-{a[2]}" for a, _, _ in GOLDEN_STDOUT_SHA256])
def test_golden_stdout_digests(capsys, argv, exit_code, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("graph", ["path:64", "path:65"])
def test_run_neighbor_beyond_64_agents(capsys, graph):
    # Label masks wider than one int64 word are drawn without overflow.
    code, out, err = run_cli(
        capsys, "run", "--protocol", "neighbor", "--graph", graph, "--trials", "1",
        "--max-steps", "1000", "--closure-window", "0",
    )
    assert code == 1
    records = json_lines(out)
    assert [r.get("record") for r in records] == [None, "summary"]
    assert records[0]["n"] == int(graph.split(":")[1])
    assert records[0]["steps_to_safe"] is None
    assert err == ""


@pytest.mark.parametrize("protocol,option", [("ranking", "--tmax"), ("neighbor", "--pmax")])
def test_run_with_a_param_beyond_int64(capsys, protocol, option):
    # Timer fields wider than an int64 are drawn without overflow too.
    huge = 2**70
    code, out, err = run_cli(
        capsys, "run", "--protocol", protocol, "--graph", "path:4", option, str(huge),
        "--trials", "2", "--seed", "1", "--max-steps", "50", "--closure-window", "0",
    )
    assert code in (0, 1)
    records = json_lines(out)
    assert [r.get("record") for r in records] == [None, None, "summary"]
    assert all(r[option[2:]] == huge for r in records[:2])
    assert err == ""


RUN = ("run", "--protocol", "ranking", "--graph", "path:3")


@pytest.mark.parametrize("argv", [
    (*RUN, "--max-steps", "0"),
    (*RUN, "--max-steps", "-4"),
    ("sweep", "--protocol", "ranking", "--kinds", "path", "--ns", "3", "--max-steps", "0"),
    ("walk", "--graph", "path:3", "--mode", "cover", "--trials", "0"),
    ("walk", "--graph", "star:4", "--mode", "drift", "--k", "0"),
    (*RUN, "--trials", "-1"),
    (*RUN, "--closure-window", "-5"),
    (*RUN, "--seed", "-1"),
    ("verify", "--protocol", "ranking", "--graph", "complete:2", "--tmax", "0"),
    ("verify", "--protocol", "greedydegree", "--impossibility", "path:3,complete:3",
     "--tmax", "-1"),
    ("run", "--protocol", "ranking", "--graph", "path:3@x"),
    (*RUN, "--pmax", "5"),
    (*RUN, "--emax", "3"),
    ("sweep", "--protocol", "ranking", "--kinds", "path", "--ns", "3,x"),
    ("game", "--states", "a"),
    ("game", "--counts", "1,x"),
], ids=lambda argv: " ".join(argv[-2:]) + f" ({argv[0]})")
def test_out_of_domain_input_exits_2(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the value
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "error:" in out.err


def test_csv_matches_json(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "ranking", "--graph", "complete:4",
        "--trials", "3", "--seed", "9", "--closure-window", "1000",
        "--csv", str(csv_path),
    )
    assert code == 0
    trials = [r for r in json_lines(out) if "steps_to_safe" in r]
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trials) == 3
    for row, rec in zip(rows, trials):
        for key in ("protocol", "n", "m", "d", "seed", "tmax", "steps_to_safe"):
            assert row[key] == str(rec[key])
        assert row["closure_ok"] == str(rec["closure_ok"])
        assert row["pmax"] == "" and rec["pmax"] is None


def test_sweep_cartesian(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--protocol", "ranking", "--kinds", "complete,path",
        "--ns", "3,4", "--trials", "2", "--seed", "1", "--closure-window", "500",
    )
    assert code == 0
    records = json_lines(out)
    summaries = [r for r in records if r.get("record") == "summary"]
    assert [s["graph"] for s in summaries] == ["complete:3", "complete:4", "path:3", "path:4"]
    trials = [r for r in records if "steps_to_safe" in r]
    assert len(trials) == 8


def test_sweep_random_connected_cells(capsys):
    # random_connected cells take m = min(2n, n(n-1)/2) pairs: 6 at n = 4, 12 at n = 6.
    code, out, _ = run_cli(
        capsys, "sweep", "--protocol", "ranking", "--kinds", "random_connected",
        "--ns", "4,6", "--trials", "2", "--seed", "1", "--closure-window", "500",
    )
    assert code == 0
    records = json_lines(out)
    summaries = [r for r in records if r.get("record") == "summary"]
    assert [s["graph"] for s in summaries] == ["random_connected:4,6", "random_connected:6,12"]
    trials = [r for r in records if "steps_to_safe" in r]
    assert [(r["n"], r["m"]) for r in trials] == [(4, 6), (4, 6), (6, 12), (6, 12)]


def test_verify_ranking_k2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "ranking",
                           "--graph", "complete:2", "--seed", "0")
    assert code == 0
    record = json_lines(out)[0]
    assert record["verified"] is True
    assert record["configurations"] == 2304
    assert record["final_sets"] >= 2


def test_verify_neighbor_too_large(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "neighbor",
                           "--graph", "complete:2", "--seed", "0")
    assert code == 4
    assert json_lines(out)[0]["error"] == "TooLarge"


def test_verify_budget_env(capsys):
    # --budget is the one way to change the budget.
    code, out, _ = run_cli(capsys, "verify", "--protocol", "ranking",
                           "--graph", "complete:2", "--seed", "0", "--budget", "100")
    assert code == 4
    assert json_lines(out)[0]["error"] == "TooLarge"


def test_verify_broken_protocol_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--protocol", "greedydegree",
                           "--graph", "path:3", "--seed", "0")
    assert code == 3
    record = json_lines(out)[0]
    assert record["verified"] is False
    assert record["witness"]["kind"] in ("unsafe_final", "output_change")


def test_verify_impossibility_witness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--protocol", "greedydegree",
        "--impossibility", "path:3,complete:3", "--seed", "0",
    )
    assert code == 3
    record = json_lines(out)[0]
    witness = record["witness"]
    assert witness["kind"] == "frozen_output"
    assert witness["agent"] in (0, 2)
    assert witness["before"] == 2


@pytest.mark.parametrize("graphs", ["path:2,complete:2", "path:2,complete:3"])
def test_verify_impossibility_bad_graph_pair_exits_2(capsys, graphs):
    # Not a strict edge subset, and two different agent sets.
    code, out, err = run_cli(capsys, "verify", "--protocol", "greedydegree",
                             "--impossibility", graphs)
    assert code == 2
    assert out == ""
    assert graphs in err


VERIFY_K2_EXPECTED = {
    "ranking": (0, "verify", True),
    "greedydegree": (3, "verify", False),
    "fixedoutput": (3, "verify", False),
    "neighbor": (4, "error", None),
}


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_verify_every_protocol_on_k2(capsys, name):
    exit_code, kind, verified = VERIFY_K2_EXPECTED[name]
    code, out, _ = run_cli(capsys, "verify", "--protocol", name, "--graph", "complete:2")
    assert code == exit_code
    (record,) = json_lines(out)
    assert record["record"] == kind
    if kind == "error":
        assert record["error"] == "TooLarge"
        return
    assert record["protocol"] == name
    assert record["verified"] is verified
    assert ("witness" in record) is (not verified)


def test_verify_needs_graph_or_impossibility(capsys):
    code, _, err = run_cli(capsys, "verify", "--protocol", "ranking", "--seed", "0")
    assert code == 2


def test_walk_hit_k3(capsys):
    code, out, _ = run_cli(capsys, "walk", "--graph", "complete:3",
                           "--mode", "hit", "--seed", "0")
    assert code == 0
    rows = json_lines(out)
    assert len(rows) == 6
    for row in rows:
        assert row["value"] == pytest.approx(3.0)
        assert row["bound"] == 9
        assert row["pass"] is True


def test_walk_meet_p2(capsys):
    code, out, _ = run_cli(capsys, "walk", "--graph", "path:2",
                           "--mode", "meet", "--seed", "0")
    rows = json_lines(out)
    assert code == 0
    assert rows == [{"mode": "meet", "u": 0, "v": 1, "value": 1.0, "bound": 8, "pass": True}]


def test_walk_cover_p2(capsys):
    code, out, _ = run_cli(capsys, "walk", "--graph", "path:2", "--mode", "cover",
                           "--trials", "40", "--seed", "0")
    rows = json_lines(out)
    assert code == 0
    assert len(rows) == 2
    for row in rows:
        assert row["mean"] == 1.0 and row["stderr"] == 0.0
        assert row["bound"] == 8 and row["pass"] is True


def test_walk_drift_star(capsys):
    code, out, _ = run_cli(capsys, "walk", "--graph", "star:4", "--mode", "drift",
                           "--k", "2", "--trials", "60", "--seed", "1")
    rows = json_lines(out)
    assert code == 0
    assert len(rows) == 4
    assert all(row["pass"] for row in rows)


def test_game_counts_and_brute(capsys):
    code, out, _ = run_cli(capsys, "game", "--counts", "3,0,0", "--brute")
    record = json_lines(out)[0]
    assert code == 0
    assert record["stable"] == [0]
    assert record["brute"] == [0]


def test_game_states_input(capsys):
    code, out, _ = run_cli(capsys, "game", "--states", "0,1")
    record = json_lines(out)[0]
    assert code == 0
    assert record["counts"] == [1, 1]
    assert record["stable"] == [0, 1]


def test_game_requires_exactly_one_input(capsys):
    code, _, _ = run_cli(capsys, "game")
    assert code == 2
    code, _, _ = run_cli(capsys, "game", "--counts", "2,0", "--states", "0,0")
    assert code == 2


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "poplab", "game", "--counts", "2,0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stable"] == [0]


@pytest.mark.parametrize("option,value", [
    ("--pmax", "99999999999999999999"),
    ("--emax", "9223372036854775808"),
])
def test_run_ranking_with_a_param_beyond_the_compiled_header(capsys, option, value):
    # The compiled loop's header holds every param, so a ranking run with m
    # known and a ceiling past its int64 fields takes the Python loop.
    code, out, err = run_cli(
        capsys, "run", "--protocol", "ranking", "--graph", "complete:3", "--know-m",
        option, value, "--trials", "1",
    )
    assert code == 0
    assert err == ""
    assert json_lines(out)[0][option[2:]] == int(value)


def test_run_know_m_sizes_tmax_from_m(capsys):
    argv = ("run", "--protocol", "ranking", "--graph", "complete:3", "--trials", "1", "--seed", "0")
    code, out, _ = run_cli(capsys, *argv, "--know-m")
    assert code == 0
    assert json_lines(out)[0]["tmax"] == 36  # 4mn
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json_lines(out)[0]["tmax"] == 54  # 2n^3
