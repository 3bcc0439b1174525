"""Steadiness check: run every workload repeatedly on one commit and compare the runs.

    python3 bench/steady.py

Each of two sets runs each workload of ``BENCHMARK.json`` once per seed,
untraced, on seeds 1..10 (the same seeds in every set), and then once traced
on seed 1.  For each workload and end-to-end metric it prints each
set's median, quartiles and spread (the distance between the quartiles over
the median), and it checks that

* every spread is within the metric's bound,
* no later set's median differs from the first set's, up or down, by more
  than the bound,
* the share of failed operations is the same in every set,
* each seed's work counters and record digest are the same in every set,
* the traced run reproduces the untraced run's records and work counters on
  its seed, and its per-layer counts are the same in every set.

It also prints the tracing overhead: the traced over the untraced time of the
fastest round, which is the same work on the same seed.  The full summary
goes to ``bench/out/steady.json``.  The exit code is 0 when every check holds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 200
SEEDS = list(range(1, 11))
SETS = 2


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def change(first: float, later: float) -> float:
    """How far ``later`` is from ``first``, either way, as a share of ``first``."""
    return abs(later - first) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = SEEDS
    metrics = bench["end_to_end"]
    count_layers = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]

    problems = []
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            runs = {seed: bench_run(workload, seed, seconds, 0) for seed in seeds}
            traced = bench_run(workload, seeds[0], seconds, 1)
            sets.append((runs, traced))
            print(f"{workload}: set {k + 1} of {SETS} done", file=sys.stderr, flush=True)

        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [quartiles([runs[s][1]["metrics"][name]["value"] for s in seeds])
                       for runs, _ in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in per_set]
            worst = max((change(per_set[0][1], p[1]) for p in per_set[1:]), default=0.0)
            rows[name] = {"unit": m["unit"], "bound": bound, "quartiles": per_set,
                          "spreads": spreads, "worst_median_change": worst}
            if max(spreads) > bound:
                problems.append(f"{workload} {name}: spread {max(spreads):.3f} > bound {bound}")
            if worst > bound:
                problems.append(f"{workload} {name}: median moved by {worst:.3f} > bound {bound}")

        shares = {round(sum(r[1]["failed"] for r in runs.values())
                        / sum(r[1]["attempted"] for r in runs.values()), 12)
                  for runs, _ in sets}
        if len(shares) != 1:
            problems.append(f"{workload}: failed shares differ across sets: {sorted(shares)}")
        for runs, _ in sets:
            for seed, (detail, result) in runs.items():
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed}: output check failed")
                first = sets[0][0][seed][0]
                if (detail["work"], detail["digest"]) != (first["work"], first["digest"]):
                    problems.append(f"{workload} seed {seed}: work counters or records differ")

        overheads = []
        for runs, (t_detail, t_result) in sets:
            u_detail = runs[seeds[0]][0]
            if (t_detail["work"], t_detail["digest"]) != (u_detail["work"], u_detail["digest"]):
                problems.append(f"{workload}: traced run differs from untraced run")
            if not t_result["correct"]:
                problems.append(f"{workload}: traced run's output check failed")
            overheads.append(min(t_detail["round_seconds"]) / min(u_detail["round_seconds"]) - 1.0)
        layer_counts = [{n: t[1]["metrics"][n]["value"] for n in count_layers} for _, t in sets]
        if any(c != layer_counts[0] for c in layer_counts[1:]):
            problems.append(f"{workload}: traced per-layer counts differ across sets")

        summary[workload] = {"metrics": rows, "failed_share": sorted(shares),
                             "work": sets[0][0][seeds[0]][0]["work"],
                             "layer_counts": layer_counts[0], "tracing_overhead": overheads}
        print(f"\n{workload}  (work per round, seed {seeds[0]}: {summary[workload]['work']})")
        print(f"  {'metric':<14}{'unit':>6}  {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7}"
              f" {'bound':>6}  set")
        for name, row in rows.items():
            for k, (q1, med, q3) in enumerate(row["quartiles"]):
                print(f"  {name:<14}{row['unit']:>6}  {med:12.5g} {q1:12.5g} {q3:12.5g}"
                      f" {row['spreads'][k]:7.3f} {row['bound']:6.2f}  {k + 1}")
        print(f"  tracing overhead per round: {', '.join(f'{o:+.0%}' for o in overheads)}")

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"seeds": seeds, "sets": SETS, "workloads": summary, "problems": problems}, indent=1))
    print("\n" + ("\n".join(f"PROBLEM: {p}" for p in problems) if problems
                  else "steady: every check holds"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
