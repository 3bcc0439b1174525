"""One benchmark process: set up, run some operations of a round once, report.

    python3 bench/worker.py --workload NAME --seed N --ops 0,1,2 [--trace]

``run.py`` starts a fresh one of these for every round of a simulation
workload and for every verify command, so no process ever runs the same
operation twice.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


class Workload:
    """The inputs of the given operations, built once, and the means to run and check them."""

    def __init__(self, name: str, seed: int, indices: list[int], tracer=None):
        # Set-up is timed from here: importing poplab is part of it.
        start = time.perf_counter()
        import poplab
        import poplab.cli
        import workloads

        self.poplab = poplab
        self.workloads = workloads
        self.tracer = tracer
        if tracer is not None:
            tracer.install(poplab)
        ops = workloads.round_operations(name, seed)
        self.ops = [(i, *self._prepare(ops[i])) for i in indices]
        self.setup_s = time.perf_counter() - start

    def _prepare(self, op):
        if isinstance(op, self.workloads.VerifySpec):
            return op, None
        pl = self.poplab
        g = pl.graph.generate_graph(op.kind, op.n, op.m, seed=op.graph_seed)
        if op.protocol == "ranking":
            protocol = pl.ranking.RANKING
            params = pl.engine.default_params(g)
            predicate = pl.oracles.rank_safe_predicate(params)
        else:
            protocol = pl.neighbor.NEIGHBOR
            params = pl.engine.default_params(g, know_m=True)
            predicate = pl.oracles.neighbor_safe_predicate(g, params)
        if self.tracer is not None:
            protocol = self.tracer.protocol(protocol)
            predicate = self.tracer.predicate(predicate)
        return op, (g, protocol, params, predicate)

    def run(self) -> dict:
        out = {"op_seconds": [], "records": [], "work": {}, "failed": 0, "wrong": []}
        for i, op, built in self.ops:
            span = (self.tracer.span("trial" if built else "verify", op=i)
                    if self.tracer is not None else contextlib.nullcontext())
            with span:
                if built:
                    outcome = self._trial(op, built)
                else:
                    outcome = self._verify(op)
            out["op_seconds"].append(outcome["seconds"])
            out["records"].append(outcome["record"])
            for key, value in outcome["work"].items():
                out["work"][key] = out["work"].get(key, 0) + value
            if outcome["failed"]:
                out["failed"] += 1
            if outcome["wrong"]:
                out["wrong"].append(f"op {i}: {outcome['wrong']}")
        return out

    def _trial(self, op, built) -> dict:
        g, protocol, params, predicate = built
        check = self.workloads
        start = time.perf_counter()
        try:
            res = self.poplab.engine.run_trial(
                protocol, g, params, op.trial_seed, max_steps=check.MAX_STEPS,
                safe_predicate=predicate, closure_window=op.closure_window,
            )
        except Exception:  # an operation that raises did not finish; the run goes on
            traceback.print_exc()
            return {"seconds": time.perf_counter() - start, "record": None,
                    "work": {"engine.trials": 1}, "failed": True, "wrong": None}
        seconds = time.perf_counter() - start

        converged = res.steps_to_safe is not None
        closure = op.closure_window if converged and res.closure_ok else 0
        converge = res.steps_to_safe if converged else check.MAX_STEPS
        work = {"engine.trials": 1, "engine.steps": converge + closure,
                "engine.steps_converge": converge, "engine.steps_closure": closure}
        record = res.to_record()
        record["final_states"] = repr(res.final_states)

        wrong = check.check_trial(res.steps_to_safe, res.closure_ok, op.closure_window)
        if wrong is None:
            if op.protocol == "ranking":
                wrong = check.check_ranking_labels([s.idA for s in res.final_states], g.n)
            else:
                wrong = check.check_neighbor_masks(
                    [s.rank.idA for s in res.final_states],
                    [s.neighbors for s in res.final_states], g.n, g.edges)
        return {"seconds": seconds, "record": record, "work": work,
                "failed": wrong is not None, "wrong": wrong if converged else None}

    def _verify(self, op) -> dict:
        check = self.workloads
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                exit_code = self.poplab.cli.main(op.argv)
        except Exception:  # an operation that raises did not finish; the run goes on
            traceback.print_exc()
            return {"seconds": time.perf_counter() - start, "record": None, "work": {},
                    "failed": True, "wrong": None}
        seconds = time.perf_counter() - start

        lines = buf.getvalue().splitlines()
        record = json.loads(lines[-1]) if lines else {}
        if op.kind == "ranking":
            wrong = check.check_verify_ranking(exit_code, record, op.graphs, check.VERIFY_TMAX)
            configs = record.get("configurations", 0)
            _, edges = check.named_edges(op.graphs)
            work = {"verify.configurations": configs,
                    "verify.transitions": configs * 2 * len(edges),
                    "verify.final_configurations": record.get("final_configurations", 0)}
        else:
            wrong = check.check_impossibility(exit_code, record, op.graphs)
            # The search enumerates the supergraph's greedy-degree space: (n * 2^n)^n.
            n, edges = check.named_edges(op.graphs.partition(",")[2])
            configs = (n << n) ** n
            work = {"verify.configurations": configs,
                    "verify.transitions": configs * 2 * len(edges)}
        return {"seconds": seconds, "record": {"exit": exit_code, "output": record},
                "work": work, "failed": wrong is not None, "wrong": wrong}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", required=True, help="indices of the round's operations to run")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    wl = Workload(args.workload, args.seed, [int(i) for i in args.ops.split(",")], tracer)
    out = wl.run()
    out["setup_s"] = wl.setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        out["trace"] = tracer.snapshot()
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
