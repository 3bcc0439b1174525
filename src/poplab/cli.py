"""Command-line front end: run, sweep, verify, walk, game.

Every record is one JSON object per line (keys sorted, so identical command
lines with identical seeds give byte-identical output); ``--csv`` mirrors the
trial records to a CSV file with the same columns.  All randomness flows from
``--seed``; with ``--strict`` a missing seed is an error instead of the fixed
default 0.  ``verify --budget`` caps the configurations the verifier may
enumerate (default ``verifier.DEFAULT_BUDGET``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys

from . import engine, graph as graphs, oracles, verifier
from .errors import Infeasible, NotConnected, NotSimple, PoplabError, TooLarge
from .neighbor import NEIGHBOR
from .ranking import RANKING
from .verifier import FIXED_OUTPUT, GREEDY_DEGREE

EXIT_OK = 0
EXIT_TRIAL_FAILED = 1
EXIT_SPEC_ERROR = 2
EXIT_WITNESS = 3
EXIT_TOO_LARGE = 4

PROTOCOLS = {
    "ranking": RANKING,
    "neighbor": NEIGHBOR,
    "greedydegree": GREEDY_DEGREE,
    "fixedoutput": FIXED_OUTPUT,
}


class SpecError(PoplabError):
    """Bad command-line specification (exit code 2)."""


def parse_graph_spec(spec: str, seed: int) -> graphs.Graph:
    """Mini-language: ``kind:n[,m][@seed]`` or ``file:path``."""
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            return graphs.load_edge_list(path)
        except FileNotFoundError as exc:
            raise SpecError(f"graph file not found: {path}") from exc
        except (NotSimple, NotConnected, ValueError) as exc:
            raise SpecError(f"bad graph file {path}: {exc}") from exc
    if ":" not in spec:
        raise SpecError(f"bad graph spec {spec!r}; expected kind:n[,m][@seed] or file:path")
    kind, _, rest = spec.partition(":")
    rest, at, seed_part = rest.partition("@")
    parts = rest.split(",")
    try:
        gseed = int(seed_part) if at else seed
        n = int(parts[0])
        m = int(parts[1]) if len(parts) > 1 else None
        return graphs.generate_graph(kind, n, m, seed=gseed)
    except (ValueError, Infeasible) as exc:
        raise SpecError(f"bad graph spec {spec!r}: {exc}") from exc


def _int_list(text: str, option: str) -> list[int]:
    """Comma-separated integers, else SpecError naming ``option``."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise SpecError(f"{option} {text!r}: {exc}") from exc


def _int_at_least(lowest: int):
    """An argparse type: an integer no smaller than ``lowest``, else exit 2 with a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message names the type
    return parse


def _emit(record: dict, csv_writer=None) -> None:
    print(json.dumps(record, sort_keys=True))
    if csv_writer is not None:
        csv_writer.writerow(record)


def _require_seed(args) -> int:
    if args.seed is None:
        if args.strict:
            raise SpecError("--strict requires an explicit --seed")
        return 0
    return args.seed


def _params_for(protocol, g, args) -> engine.ProtocolParams:
    return engine.default_params(g, know_m=protocol.needs_m or args.know_m,
                                 tmax=args.tmax, pmax=args.pmax, emax=args.emax)


def _reference_steps(g, params) -> float:
    """Convergence yardstick m*n^3*d*log2(n) + n^2*tmax for ratio reporting."""
    n = g.n
    return g.m * n**3 * g.diameter * math.log2(n) + n * n * params.tmax


def _run_cell(protocol, g, args, master_seed, csv_writer, graph_label) -> bool:
    params = _params_for(protocol, g, args)
    predicate = oracles.safe_predicate(protocol, g, params)
    all_ok = True
    steps_seen = []
    for i in range(args.trials):
        res = engine.run_trial(
            protocol, g, params, engine.mix_seed(master_seed, i),
            max_steps=args.max_steps, safe_predicate=predicate,
            closure_window=args.closure_window,
        )
        record = res.to_record()
        record["graph"] = graph_label
        record["trial"] = i
        _emit(record, csv_writer)
        ok = res.steps_to_safe is not None and bool(res.closure_ok)
        all_ok = all_ok and ok
        if res.steps_to_safe is not None:
            steps_seen.append(res.steps_to_safe)
    reference = _reference_steps(g, params)
    summary = {
        "record": "summary",
        "graph": graph_label,
        "protocol": protocol.name,
        "trials": args.trials,
        "converged": len(steps_seen),
        "mean_steps_to_safe": statistics.mean(steps_seen) if steps_seen else None,
        "median_steps_to_safe": statistics.median(steps_seen) if steps_seen else None,
        "reference_steps": reference,
        "mean_over_reference": (statistics.mean(steps_seen) / reference) if steps_seen else None,
    }
    _emit(summary)
    return all_ok


def _open_csv(args):
    if not args.csv:
        return None, None
    fh = open(args.csv, "w", newline="", encoding="utf-8")
    writer = csv.DictWriter(fh, fieldnames=list(engine.RunResult.RECORD_FIELDS), extrasaction="ignore")
    writer.writeheader()
    return fh, writer


def cmd_run(args) -> int:
    master_seed = _require_seed(args)
    protocol = PROTOCOLS[args.protocol]
    g = parse_graph_spec(args.graph, master_seed)
    fh, writer = _open_csv(args)
    try:
        all_ok = _run_cell(protocol, g, args, master_seed, writer, args.graph)
    finally:
        if fh:
            fh.close()
    return EXIT_OK if all_ok else EXIT_TRIAL_FAILED


def cmd_sweep(args) -> int:
    master_seed = _require_seed(args)
    protocol = PROTOCOLS[args.protocol]
    kinds = args.kinds.split(",")
    ns = _int_list(args.ns, "--ns")
    fh, writer = _open_csv(args)
    all_ok = True
    try:
        for cell, (kind, n) in enumerate((k, n) for k in kinds for n in ns):
            # random_connected cells draw m = min(2n, n(n-1)/2) pairs.
            m = min(2 * n, n * (n - 1) // 2) if kind == "random_connected" else None
            label = f"{kind}:{n}" if m is None else f"{kind}:{n},{m}"
            try:
                g = graphs.generate_graph(kind, n, m, seed=master_seed)
            except (ValueError, Infeasible) as exc:
                raise SpecError(f"sweep cell {label}: {exc}") from exc
            cell_seed = engine.mix_seed(master_seed, 1_000_000 + cell)
            ok = _run_cell(protocol, g, args, cell_seed, writer, label)
            all_ok = all_ok and ok
    finally:
        if fh:
            fh.close()
    return EXIT_OK if all_ok else EXIT_TRIAL_FAILED


def cmd_verify(args) -> int:
    try:
        return _verify(args)
    except TooLarge as exc:
        _emit({"record": "error", "error": "TooLarge", "detail": str(exc)})
        return EXIT_TOO_LARGE


def _verify(args) -> int:
    seed = _require_seed(args)
    protocol = PROTOCOLS[args.protocol]
    if args.impossibility:
        sub_spec, _, super_spec = args.impossibility.partition(",")
        if not super_spec:
            raise SpecError("--impossibility needs two comma-separated graph specs")
        g_sub = parse_graph_spec(sub_spec, seed)
        g_super = parse_graph_spec(super_spec, seed)
        params = engine.ProtocolParams(n=g_sub.n, tmax=1 if args.tmax is None else args.tmax)
        try:
            witness = verifier.impossibility_witness(protocol, g_sub, g_super, params, args.budget)
        except ValueError as exc:  # not a strict subgraph on one agent set
            raise SpecError(f"--impossibility {args.impossibility}: {exc}") from exc
        _emit({"record": "impossibility", "witness": witness.to_json(protocol)})
        return EXIT_WITNESS

    if not args.graph:
        raise SpecError("verify needs --graph (or --impossibility)")
    g = parse_graph_spec(args.graph, seed)
    if protocol.needs_m:
        params = engine.default_params(g, know_m=True, tmax=args.tmax)
    else:
        params = engine.ProtocolParams(n=g.n, tmax=1 if args.tmax is None else args.tmax)
    tg = verifier.build_transition_graph(protocol, g, params, args.budget)
    fsets = verifier.final_sets(tg)
    verdict = verifier.verify_transition_graph(tg, fsets, oracles.safe_predicate(protocol, g, params))
    report = {
        "record": "verify",
        "protocol": protocol.name,
        "graph": args.graph,
        "configurations": tg.config_count,
        "final_sets": len(fsets),
        "final_configurations": sum(len(f) for f in fsets),
        "verified": verdict is True,
    }
    if verdict is True:
        _emit(report)
        return EXIT_OK
    report["witness"] = verdict.to_json(protocol)
    _emit(report)
    return EXIT_WITNESS


def cmd_walk(args) -> int:
    seed = _require_seed(args)
    g = parse_graph_spec(args.graph, seed)
    n, m, d = g.n, g.m, g.diameter
    dist = g.metrics.distances
    if args.mode == "hit":
        for v in range(n):
            h = oracles.hitting_times_to(g, v)
            for u in range(n):
                if u == v:
                    continue
                bound = m * n * int(dist[u, v])
                value = float(h[u])
                _emit({"mode": "hit", "u": u, "v": v, "value": value,
                       "bound": bound, "pass": value <= bound})
    elif args.mode == "meet":
        bound = 2 * m * n * n * d
        for u in range(n):
            for v in range(u + 1, n):
                value = oracles.exact_meeting_time(g, u, v)
                _emit({"mode": "meet", "u": u, "v": v, "value": value,
                       "bound": bound, "pass": value < bound})
    elif args.mode == "cover":
        bound = 2 * m * n * n
        for w in range(n):
            est = oracles.empirical_cover_time(g, w, args.trials, engine.mix_seed(seed, w))
            _emit({"mode": "cover", "w": w, "mean": est.mean, "stderr": est.stderr,
                   "bound": bound, "pass": est.mean + 3 * est.stderr <= bound})
    else:  # drift
        bound = 2 * (n * args.k + m * n * d)
        for w in range(n):
            est = oracles.empirical_move_count_steps(g, w, args.k, args.trials, engine.mix_seed(seed, w))
            _emit({"mode": "drift", "w": w, "k": args.k, "mean": est.mean,
                   "stderr": est.stderr, "bound": bound, "pass": est.mean <= bound})
    return EXIT_OK


def cmd_game(args) -> int:
    if (args.counts is None) == (args.states is None):
        raise SpecError("game needs exactly one of --counts or --states")
    if args.counts is not None:
        counts = tuple(_int_list(args.counts, "--counts"))
        states = []
        for value, count in enumerate(counts):
            states.extend([value] * count)
    else:
        states = _int_list(args.states, "--states")
        counts = oracles.game_counts(states)
    record = {
        "record": "game",
        "counts": list(counts),
        "stable": sorted(oracles.game_stable_set(counts)),
    }
    if args.brute:
        record["brute"] = sorted(oracles.game_brute_force(states))
    _emit(record)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poplab",
        description="Self-stabilizing population-protocol laboratory",
        epilog="Graph specs: kind:n[,m][@seed] with kind in "
               f"{graphs.GENERATOR_KINDS}, or file:path (edge-list format: "
               "first line 'n m', then one 'u v' line per unordered edge).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_int_at_least(0), default=None, help="master seed (default 0)")
        p.add_argument("--strict", action="store_true", help="fail instead of defaulting the seed")

    def add_run_options(p):
        p.add_argument("--protocol", choices=("ranking", "neighbor"), required=True)
        p.add_argument("--trials", type=_int_at_least(1), default=10)
        p.add_argument("--max-steps", type=_int_at_least(1), default=100_000_000, dest="max_steps")
        p.add_argument("--closure-window", type=_int_at_least(0),
                       default=engine.DEFAULT_CLOSURE_WINDOW, dest="closure_window")
        p.add_argument("--tmax", type=int, default=None)
        p.add_argument("--pmax", type=int, default=None)
        p.add_argument("--emax", type=int, default=None)
        p.add_argument("--know-m", action="store_true", dest="know_m",
                       help="size tmax from the exact pair count even for ranking")
        p.add_argument("--csv", default=None, help="also write trial records to this CSV file")

    run = sub.add_parser("run", help="seeded convergence trials on one graph")
    add_common(run)
    add_run_options(run)
    run.add_argument("--graph", required=True)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="cartesian product of graph kinds and sizes")
    add_common(sweep)
    add_run_options(sweep)
    sweep.add_argument("--kinds", required=True,
                       help="comma-separated generator kinds; random_connected cells "
                            "use m = min(2n, n(n-1)/2)")
    sweep.add_argument("--ns", required=True, help="comma-separated agent counts")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="exhaustive final-set verification")
    add_common(verify)
    verify.add_argument("--protocol", choices=tuple(PROTOCOLS), required=True)
    verify.add_argument("--graph", default=None)
    verify.add_argument("--impossibility", default=None,
                        help="SUBGRAPH,SUPERGRAPH specs for the witness search")
    verify.add_argument("--tmax", type=int, default=None,
                        help="timer ceiling for model checking (default 1)")
    verify.add_argument("--budget", type=int, default=verifier.DEFAULT_BUDGET,
                        help="configuration budget (default %(default)s)")
    verify.set_defaults(func=cmd_verify)

    walk = sub.add_parser("walk", help="token-walk measurements against their bounds")
    add_common(walk)
    walk.add_argument("--graph", required=True)
    walk.add_argument("--mode", choices=("hit", "meet", "cover", "drift"), required=True)
    walk.add_argument("--trials", type=_int_at_least(1), default=500)
    walk.add_argument("--k", type=_int_at_least(1), default=1, help="move count for drift mode")
    walk.set_defaults(func=cmd_walk)

    game = sub.add_parser("game", help="stable states of the collision game")
    add_common(game)
    game.add_argument("--counts", default=None, help="players per state, comma-separated")
    game.add_argument("--states", default=None, help="one state per player, comma-separated")
    game.add_argument("--brute", action="store_true", help="also run the exhaustive check")
    game.set_defaults(func=cmd_game)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except PoplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
