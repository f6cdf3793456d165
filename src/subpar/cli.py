"""Command-line front end.

subpar run     one algorithm on one instance file, JSON/CSV report
subpar sweep   grid of (n, epsilon, seed) cells on generated instances, CSV
subpar verify  invariant suites, nonzero exit naming any violated invariant
               or any --instance a suite could not check

Exit codes: 0 success, 1 runtime error or failed verification,
2 flag/validation error (message names the offending flag).
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import TooLarge, brute_force, double_greedy, random_half
from .continuous import ParamOutOfRange, check_epsilon, run_continuous
from .discrete import DiscreteParams, run_discrete
from .drbox import BoxDomain, grid_search_optimum, run_dr
from .instances import (InvalidInstance, MultilinearQuadraticInstance,
                        NonNegativityViolation, UnreadableInstance,
                        generate_random_instance, load_instance)
from .multilinear import MultilinearOracle
from .oracles import SetOracle, ids_of
from .reports import CSV_COLUMNS, RunReport, csv_row, with_ratio

ALGORITHMS = ("continuous", "discrete", "dr", "double-greedy",
              "double-greedy-det", "random-half", "brute-force")
BRUTE_LIMIT = 24
GRID_OPT_LIMIT = 6
SMALL_N = 3     # below this, set algorithms delegate to brute force


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except UnreadableInstance as e:     # only --instance files are read
        parser.error(f"--instance: {e}")
    except (TooLarge, NonNegativityViolation, ParamOutOfRange,
            RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subpar",
        description="Submodular maximization with batched oracles and "
                    "adaptive-round accounting.")
    parser.add_argument("--version", action="version", version=f"subpar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one algorithm on one instance file")
    run_p.add_argument("--instance", required=True, help="instance JSON file")
    run_p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run_p.add_argument("--epsilon", type=float, default=0.1)
    run_p.add_argument("--seed", type=_u64, default=0)
    run_p.add_argument("--oracle", default="exact",
                       help="exact | sampled:K (K samples per extension query)")
    run_p.add_argument("--mode", choices=("theorem", "engineering"),
                       default="engineering")
    run_p.add_argument("--sample-override", type=_positive_int, default=None,
                       help="cap the discrete G-estimator sample counts")
    run_p.add_argument("--out", default=None, help="report file path")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="benchmark grid over n, epsilon, seeds")
    sweep_p.add_argument("--algorithm", required=True,
                         choices=("continuous", "discrete", "double-greedy",
                                  "double-greedy-det", "random-half"))
    sweep_p.add_argument("--kind", choices=("cut", "coverage"), default="cut")
    sweep_p.add_argument("--n-values", default="8,12,16",
                         help="comma-separated ground-set sizes")
    sweep_p.add_argument("--epsilon-values", default="0.1",
                         help="comma-separated epsilon values")
    sweep_p.add_argument("--seeds-per-cell", type=_positive_int, default=5)
    sweep_p.add_argument("--oracle", default="auto:2000",
                         help="exact | sampled:K | auto:K (exact while feasible)")
    sweep_p.add_argument("--mode", choices=("theorem", "engineering"),
                         default="engineering")
    sweep_p.add_argument("--sample-override", type=_positive_int, default=None)
    sweep_p.add_argument("--out", default=None, help="CSV output path")
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run invariant suites")
    verify_p.add_argument("--suite", default=None,
                          help="restrict to one suite (default: all)")
    verify_p.add_argument("--instance", default=None,
                          help="also check this instance file (n <= 12; a larger one "
                               "is reported as not checked)")
    verify_p.add_argument("--epsilon", type=float, default=0.1)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def _u64(text):
    v = int(text)
    if not (0 <= v < 2 ** 64):
        raise argparse.ArgumentTypeError(f"{v} outside [0, 2^64)")
    return v


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{v} is not a positive integer")
    return v


def _parse_oracle(spec, parser, allow_auto=False):
    """Returns (mode, samples) with mode in {exact, sampled, auto}."""
    if spec == "exact":
        return "exact", None
    for prefix in (("sampled",) + (("auto",) if allow_auto else ())):
        if spec.startswith(prefix + ":"):
            try:
                k = int(spec.split(":", 1)[1])
            except ValueError:
                k = 0
            if k < 1:
                parser.error(f"--oracle: sample count in {spec!r} must be a "
                             f"positive integer")
            return prefix, k
    parser.error(f"--oracle: expected exact or sampled:K"
                 f"{' or auto:K' if allow_auto else ''}, got {spec!r}")


def _check_epsilon(algorithm, mode, epsilon, parser, flag="--epsilon"):
    """Exit 2 naming flag when the driver behind algorithm rejects epsilon."""
    try:
        if algorithm in ("continuous", "dr"):
            check_epsilon(epsilon)
        elif algorithm == "discrete":
            DiscreteParams(epsilon=epsilon, mode=mode)
    except ParamOutOfRange as e:
        parser.error(f"{flag}: {algorithm}: {e}")


def _load(path, parser):
    if not os.path.exists(path):
        parser.error(f"--instance: file not found: {path}")
    try:
        return load_instance(path)
    except (InvalidInstance, NonNegativityViolation) as e:
        parser.error(f"--instance: invalid instance: {e}")


def _opt_for(instance, box=None):
    """Ground-truth optimum on a fresh oracle (not charged to the run)."""
    if isinstance(instance, MultilinearQuadraticInstance):
        if instance.n > GRID_OPT_LIMIT:
            return None
        lo = box.lower if box is not None else None
        hi = box.upper if box is not None else None
        _, opt = grid_search_optimum(instance.value_batch, instance.n,
                                     lower=lo, upper=hi)
        return opt
    if instance.n > BRUTE_LIMIT:
        return None
    _, opt = brute_force(SetOracle(instance))
    return opt


# -- run --------------------------------------------------------------------

def cmd_run(args, parser):
    _check_epsilon(args.algorithm, args.mode, args.epsilon, parser)
    instance, box_spec = _load(args.instance, parser)
    instance_id = os.path.splitext(os.path.basename(args.instance))[0]
    report = execute(instance, box_spec, instance_id, args, parser)
    emit_report(report, args)
    return 0


def execute(instance, box_spec, instance_id, args, parser):
    alg = args.algorithm
    n = instance.n
    oracle_mode, oracle_k = _parse_oracle(args.oracle, parser)
    t0 = time.perf_counter()

    if alg == "dr":
        if not isinstance(instance, MultilinearQuadraticInstance):
            parser.error("--algorithm: dr requires a quadratic instance "
                         f"(got kind {instance.kind!r})")
        box = BoxDomain(*box_spec) if box_spec is not None else None
        res = run_dr(instance, args.epsilon, box)
        report = RunReport(
            instance_id=instance_id, algorithm=alg, epsilon=args.epsilon,
            seed=args.seed, solution={"fractional": [float(v) for v in res.x]},
            value=res.value, opt_value=_opt_for(instance, box),
            adaptive_rounds=res.oracle.rounds_meter.rounds,
            f_queries=res.oracle.f_queries,
            F_queries=res.oracle.F_queries,
            grad_queries=res.oracle.grad_queries,
            iterations=res.iterations,
            trace=(res.core.traces if res.core else []),
            n=n, oracle="direct", mode=args.mode)
        report.wall_time_ms = (time.perf_counter() - t0) * 1000.0
        return with_ratio(report)

    delegated = None
    if alg in ("continuous", "discrete") and n < SMALL_N:
        delegated = alg
        alg = "brute-force"

    set_oracle = SetOracle(instance)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xA15)))

    if alg == "continuous":
        if oracle_mode == "sampled":
            m = MultilinearOracle(set_oracle, mode="sampled", samples=oracle_k,
                                  rng=np.random.default_rng(
                                      np.random.SeedSequence((args.seed, 0x5A11))))
        else:
            m = MultilinearOracle(set_oracle, mode="exact")
        res = run_continuous(m, args.epsilon, seed=args.seed)
        solution = {
            "fractional": [float(v) for v in res.core.x],
            "rounded": ids_of(res.rounded),
            "rounded_value": float(res.rounded_value),
        }
        report = RunReport(
            instance_id=instance_id, algorithm="continuous",
            epsilon=args.epsilon, seed=args.seed, solution=solution,
            value=res.core.value, opt_value=_opt_for(instance),
            adaptive_rounds=set_oracle.accounting.rounds,
            f_queries=set_oracle.accounting.queries,
            F_queries=m.F_queries, iterations=res.core.iterations,
            trace=res.core.traces, n=n, oracle=args.oracle, mode=args.mode)
    elif alg == "discrete":
        params = DiscreteParams(epsilon=args.epsilon, mode=args.mode,
                                sample_override=args.sample_override,
                                seed=args.seed)
        res = run_discrete(set_oracle, params)
        report = RunReport(
            instance_id=instance_id, algorithm="discrete",
            epsilon=args.epsilon, seed=args.seed,
            solution={"subset": res.ids},
            value=res.value, opt_value=_opt_for(instance),
            adaptive_rounds=set_oracle.accounting.rounds,
            f_queries=set_oracle.accounting.queries,
            iterations=res.iterations, trace=res.traces,
            n=n, oracle="set", mode=args.mode)
    elif alg in ("double-greedy", "double-greedy-det"):
        members = double_greedy(set_oracle, randomized=(alg == "double-greedy"),
                                rng=rng)
        value = float(set_oracle.eval_batch(members[None, :])[0])
        report = RunReport(
            instance_id=instance_id, algorithm=alg, epsilon=None,
            seed=args.seed, solution={"subset": ids_of(members)}, value=value,
            opt_value=_opt_for(instance),
            adaptive_rounds=set_oracle.accounting.rounds,
            f_queries=set_oracle.accounting.queries, n=n, oracle="set")
    elif alg == "random-half":
        members = random_half(set_oracle, rng=rng)
        value = float(set_oracle.eval_batch(members[None, :])[0])
        report = RunReport(
            instance_id=instance_id, algorithm=alg, epsilon=None,
            seed=args.seed, solution={"subset": ids_of(members)}, value=value,
            opt_value=_opt_for(instance),
            adaptive_rounds=set_oracle.accounting.rounds,
            f_queries=set_oracle.accounting.queries, n=n, oracle="set")
    else:   # brute-force
        members, value = brute_force(set_oracle, n_limit=BRUTE_LIMIT)
        report = RunReport(
            instance_id=instance_id, algorithm="brute-force",
            epsilon=(args.epsilon if delegated else None),
            seed=args.seed, solution={"subset": ids_of(members)}, value=value,
            opt_value=value,
            adaptive_rounds=set_oracle.accounting.rounds,
            f_queries=set_oracle.accounting.queries, n=n, oracle="set",
            delegated=delegated)
    report.wall_time_ms = (time.perf_counter() - t0) * 1000.0
    return with_ratio(report)


def emit_report(report, args):
    if args.out:
        if args.format == "json":
            with open(args.out, "w") as fh:
                fh.write(report.to_json())
        else:
            with open(args.out, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(CSV_COLUMNS)
                w.writerow(_csv_strs(csv_row(report)))
    print(f"{report.instance_id}: {report.summary_line()}")


def _csv_strs(row):
    return ["" if v is None else v for v in row]


# -- sweep --------------------------------------------------------------------

def _int_list(text, parser, flag):
    try:
        vals = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        vals = []
    if not vals or min(vals) < 1:
        parser.error(f"{flag}: expected comma-separated positive integers, "
                     f"got {text!r}")
    return vals


def _float_list(text, parser, flag):
    try:
        vals = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        vals = []
    if not vals:
        parser.error(f"{flag}: expected comma-separated floats, got {text!r}")
    return vals


def cmd_sweep(args, parser):
    n_values = _int_list(args.n_values, parser, "--n-values")
    eps_values = _float_list(args.epsilon_values, parser, "--epsilon-values")
    for eps in eps_values:
        _check_epsilon(args.algorithm, args.mode, eps, parser, "--epsilon-values")
    oracle_mode, oracle_k = _parse_oracle(args.oracle, parser, allow_auto=True)

    rows = []
    for n in n_values:
        for eps in eps_values:
            cell = []
            for seed in range(args.seeds_per_cell):
                run_args = argparse.Namespace(
                    algorithm=args.algorithm, epsilon=eps, seed=seed,
                    oracle=_resolve_auto(args.oracle, oracle_mode, oracle_k, n),
                    mode=args.mode, sample_override=args.sample_override)
                instance = generate_random_instance(args.kind, n, seed)
                rep = execute(instance, None, f"{args.kind}-n{n}-s{seed}",
                              run_args, parser)
                cell.append(rep)
                rows.append(_csv_strs(csv_row(rep)))
            rows.extend(_aggregate_rows(cell, n, eps, args.algorithm))
    out = args.out or f"sweep-{args.algorithm}.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows(rows)
    print(f"sweep: {len(rows)} rows -> {out}")
    return 0


AUTO_EXACT_LIMIT = 16   # exact extension folding is cheap up to here


def _resolve_auto(spec, mode, k, n):
    if mode == "auto":
        return "exact" if n <= AUTO_EXACT_LIMIT else f"sampled:{k}"
    return spec


def _aggregate_rows(cell, n, eps, algorithm):
    """mean / stddev rows over one cell, in the seed column."""
    cols = {
        "value": [r.value for r in cell],
        "opt": [r.opt_value for r in cell],
        "ratio": [r.ratio for r in cell],
        "rounds": [r.adaptive_rounds for r in cell],
        "f_queries": [r.f_queries for r in cell],
        "F_queries": [r.F_queries for r in cell],
        "iterations": [r.iterations for r in cell],
        "wall_ms": [r.wall_time_ms for r in cell],
    }

    def stat(vals, fn):
        vals = [v for v in vals if v is not None]
        if not vals:
            return ""
        return round(float(fn(np.asarray(vals, dtype=np.float64))), 6)

    mean_row = [n, eps, "mean", algorithm] + [
        stat(cols[c], np.mean) for c in
        ("value", "opt", "ratio", "rounds", "f_queries", "F_queries",
         "iterations", "wall_ms")]
    std_row = [n, eps, "stddev", algorithm] + [
        stat(cols[c], lambda v: v.std(ddof=0)) for c in
        ("value", "opt", "ratio", "rounds", "f_queries", "F_queries",
         "iterations", "wall_ms")]
    return [mean_row, std_row]


# -- verify -------------------------------------------------------------------

def cmd_verify(args, parser):
    from .verify import INSTANCE_SUITES, SUITES, run_verify
    if args.suite is not None and args.suite not in SUITES:
        parser.error(f"--suite: unknown suite {args.suite!r} "
                     f"(choices: {', '.join(SUITES)})")
    _check_epsilon("continuous", None, args.epsilon, parser)
    suites = list(SUITES) if args.suite is None else [args.suite]
    if args.instance is not None:
        if not os.path.exists(args.instance):
            parser.error(f"--instance: file not found: {args.instance}")
        if not set(suites) & set(INSTANCE_SUITES):
            parser.error(f"--instance: only the {' and '.join(INSTANCE_SUITES)} "
                         f"suites read it, not {args.suite}")
    names, findings = run_verify(suites=suites, instance_path=args.instance,
                                 epsilon=args.epsilon)
    failed = {f.suite for f in findings if not f.skipped}
    skipped = {f.suite for f in findings if f.skipped}
    for nm in names:
        status = "FAIL" if nm in failed else "SKIP" if nm in skipped else "ok"
        print(f"{nm:15s} {status}")
    for f in findings:
        print(str(f), file=sys.stderr)
    if findings:
        unchecked = sum(f.skipped for f in findings)
        print(f"verify: {len(findings) - unchecked} violation(s), "
              f"{unchecked} check(s) skipped", file=sys.stderr)
        return 1
    print("verify: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
