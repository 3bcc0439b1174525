"""The poplab benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports poplab from ``src/``.
A run repeats the workload's round of operations for as many whole rounds
as fit in ``--seconds``.  Every round runs in fresh processes (``worker.py``), one at a time
and with BLAS/OpenMP thread pools capped at the number of CPUs this process
may use: one process per round of trials, one per verify command.  With
``--trace 0`` the last line of standard output is the end-to-end result;
with ``--trace 1`` every layer is traced, and the last line carries the
per-layer metrics.  The line before the last one holds the run's detail:
rounds, work counters, set-up samples and a digest of the round's records.
The whole output also goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEADLINE_S = 170  # every run must end within 180 s; a hung workload is killed before that
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_process(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload could finish")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"workload process did not finish within {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_round(workload: str, seed: int, groups: list[list[int]], trace: bool,
              deadline: float) -> dict:
    """One round: each group of operations in a fresh process, in order."""
    parts = [run_process(["--workload", workload, "--seed", str(seed),
                          "--ops", ",".join(map(str, group))] + (["--trace"] if trace else []),
                         deadline)
             for group in groups]
    work, trace_totals = {}, {}
    for part in parts:
        for key, value in part["work"].items():
            work[key] = work.get(key, 0) + value
        for key, value in part.get("trace", {}).items():
            trace_totals[key] = trace_totals.get(key, 0) + value
    return {
        "op_seconds": [s for p in parts for s in p["op_seconds"]],
        "records": [r for p in parts for r in p["records"]],
        "wrong": [w for p in parts for w in p["wrong"]],
        "failed": sum(p["failed"] for p in parts),
        "setup_s": [p["setup_s"] for p in parts],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "work": work,
        "trace": trace_totals,
        "spans": [p.get("spans", []) for p in parts],
    }


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def end_to_end(rounds: list) -> dict:
    """Rates over the whole run and the median over every operation it timed.

    Every round runs the same operations, each in a process that has run
    nothing before it.  On a shared machine the same operation's time moves
    by half from one moment to the next; the median and the total over a
    whole run of repetitions move far less between runs than the fastest
    repetition does, which depends on a few lucky moments.
    """
    seconds = [s for r in rounds for s in r["op_seconds"]]
    work = rounds[0]["work"]
    if "verify.configurations" in work:
        steps = work["verify.transitions"]
        configs = work["verify.configurations"]
    else:
        steps = work.get("engine.steps", 0)
        configs = steps + work.get("engine.trials", 0)  # one start configuration per trial
    return {
        "setup_s": statistics.median(s for r in rounds for s in r["setup_s"]),
        "steps_per_s": steps * len(rounds) / sum(seconds),
        "trial_p50_ms": statistics.median(seconds) * 1000.0,
        "configs_per_s": configs * len(rounds) / sum(seconds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds: list) -> dict:
    """Layer metrics per round: the counts of one round and its mean seconds.

    Every round sets up afresh, so the graph metrics include set-up: the
    simulation workloads build their graphs at set-up, each verify command
    builds its own.
    """
    totals = {}
    for r in rounds:
        for key, value in r["trace"].items():
            totals[key] = totals.get(key, 0) + value

    def d(key):
        per_round = totals.get(key, 0) / len(rounds)
        return int(per_round) if per_round.is_integer() else per_round

    steps = d("ranking.step:calls") + d("neighbor.step:calls")
    converge = rounds[0]["work"].get("engine.steps_converge", 0)
    pred_calls = d("oracles.pred:calls")
    out = {
        "engine.trials": d("engine.run_until:calls"),
        "engine.steps": steps,
        "engine.steps_converge": converge,
        "engine.steps_closure": steps - converge,
        "engine.closure_share": (steps - converge) / steps if steps else 0.0,
        "engine.run_s": d("engine.run_until:s"),
        "engine.self_s": d("engine.run_until:self_s"),
        "engine.start_s": d("engine.sample_uniform_config:s"),
        "oracles.pred_calls": pred_calls,
        "oracles.pred_s": d("oracles.pred:s"),
        "oracles.pred_calls_per_step": pred_calls / converge if converge else 0.0,
        "graph.graphs": d("graph.generate_graph:calls"),
        "graph.build_s": d("graph.generate_graph:s"),
        "verifier.configs": d("verifier.configs"),
        "verifier.transitions": d("verifier.transitions"),
        "verifier.final_configs": d("verifier.final_configs"),
        "verifier.build_s": d("verifier.build_transition_graph:s"),
        "verifier.final_sets_calls": d("verifier.final_sets:calls"),
        "verifier.final_sets_s": d("verifier.final_sets:s"),
        "verifier.check_s": d("verifier.verify_transition_graph:self_s"),
        "verifier.impossibility_s": d("verifier.impossibility_witness:self_s"),
        "cli.commands": d("cli.main:calls"),
        "cli.self_s": d("cli.main:self_s"),
    }
    for layer in ("ranking", "neighbor"):
        out[f"{layer}.step_calls"] = d(f"{layer}.step:calls")
        out[f"{layer}.step_s"] = d(f"{layer}.step:s")
        out[f"{layer}.output_calls"] = d(f"{layer}.output:calls")
        out[f"{layer}.output_s"] = d(f"{layer}.output:s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="poplab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "poplab" / "__init__.py").is_file():
            raise BenchError(f"no poplab source under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
        ops = workloads.round_operations(args.workload, args.seed)
        groups = workloads.process_groups(ops)

        # A round starts only when a round as long as the longest so far still
        # ends within --seconds, so a run lasts about --seconds, never much more.
        rounds, longest = [], 0.0
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            rounds.append(run_round(args.workload, args.seed, groups, bool(args.trace), deadline))
            now = time.monotonic()
            longest = max(longest, now - round_start)
            if now - start + longest > args.seconds:
                break
        values = per_layer(rounds) if args.trace else end_to_end(rounds)
        if set(values) != set(units):
            raise BenchError(f"workload reported {sorted(values)}, BENCHMARK.json names {sorted(units)}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    round_digest = digest(rounds[0]["records"])
    wrong = [w for r in rounds for w in r["wrong"]]
    if any(digest(r["records"]) != round_digest for r in rounds[1:]):
        wrong.append("a repeated round did not reproduce the first round's records")
    for w in wrong[:10]:
        print(f"wrong output: {w}", file=sys.stderr)

    round_seconds = [sum(r["op_seconds"]) for r in rounds]
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "ops_per_round": len(ops), "processes_per_round": len(groups),
        "round_seconds": round_seconds,
        # Each round runs in fresh processes, so a first round much slower
        # than the fastest points at the machine, not at state carried over.
        "first_round_over_fastest": round_seconds[0] / min(round_seconds),
        "digest": round_digest, "work": rounds[0]["work"],
        "setup_samples": [s for r in rounds for s in r["setup_s"]],
    }
    final = {
        "correct": not wrong,
        "attempted": len(rounds) * len(ops),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = OUT_DIR / f"spans-{stem}.json"
        spans_path.write_text(json.dumps([{"round": k, "process": p, "spans": spans}
                                          for k, r in enumerate(rounds)
                                          for p, spans in enumerate(r["spans"])]))
        detail["spans"] = str(spans_path.relative_to(ROOT))
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {"result": final, "detail": detail, "op_seconds": [r["op_seconds"] for r in rounds]},
        indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
