"""Command-line front end.

Subcommands: run, verify, bench, replay, xos-constant.
Exit codes: 0 success, 1 verification failures or unreproduced replays,
2 malformed input, 3 enumeration cap exceeded, 4 I/O or worker-pool error.
"""

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor

from .errors import CapExceeded, InputError, SchemaError
from .instance_io import (
    instance_hash,
    instance_to_json,
    load_instance_file,
    outcome_to_json,
    read_json,
)
from .intersection import IntersectionSpec, get_blackbox
from .mechanisms import run_intersection_mechanism, run_matroid_mechanism
from .oracle import brute_force_opt
from .matroids import set_weight
from .rationals import format_rational, mpq, parse_rational, to_decimal
from .verify import (
    BLACKBOX_OF,
    DEFAULT_VERIFY_CONFIG,
    load_sweep_config,
    make_runner,
    replay_failure,
    report_failures,
    run_sweep,
    run_verification,
    sweep_instance,
)
from .xos import XosParams, optimize_constant, xos_mechanism_main

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_IO = 4


def _print_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_run(args):
    loaded = load_instance_file(args.instance)
    # parsed on every path, so a malformed flag fails whatever mechanism runs
    alpha = parse_rational(args.alpha, "--alpha")
    beta = parse_rational(args.beta, "--beta")
    gamma = parse_rational(args.gamma, "--gamma")
    mechanism = args.mechanism
    if mechanism is None:
        if loaded.structure is None:
            mechanism = "xos"
        elif isinstance(loaded.structure, IntersectionSpec):
            mechanism = "intersection"
        else:
            mechanism = "matroid"

    if mechanism == "matroid":
        outcome = run_matroid_mechanism(loaded.mechanism_instance())
    elif mechanism == "intersection":
        inst = loaded.mechanism_instance()
        blackbox = get_blackbox(args.apx, inst.structure)
        outcome = run_intersection_mechanism(inst, blackbox)
    elif mechanism == "xos":
        if loaded.xos is None:
            raise SchemaError("xos", "missing (required for --mechanism xos)")
        params = XosParams(alpha=alpha, beta=beta, gamma=gamma, seed=args.seed)
        outcome = xos_mechanism_main(loaded.xos, loaded.costs, loaded.bids,
                                     loaded.budget, params)
    else:
        raise SchemaError("mechanism", f"unknown mechanism {mechanism!r}")

    doc = outcome_to_json(outcome, include_trace=args.trace)
    doc["mechanism"] = mechanism
    _print_json(doc)
    return EXIT_OK


def _cmd_verify(args):
    cfg = load_sweep_config(read_json(args.config), DEFAULT_VERIFY_CONFIG, args.threads)
    os.makedirs(args.out, exist_ok=True)
    reports, total_failures = run_verification(cfg)

    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w") as fh:
        json.dump({"reports": [r.to_json() for r in reports]}, fh, indent=2,
                  sort_keys=True)
    csv_path = os.path.join(args.out, "summary.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["property", "mechanism", "checked", "failed"])
        for r in reports:
            writer.writerow([r.property, r.mechanism, r.instances_checked,
                             len(r.failures)])

    for r in reports:
        status = "ok" if r.passed else f"{len(r.failures)} failure(s)"
        print(f"{r.property:16s} {r.mechanism:22s} checked={r.instances_checked:<6d} {status}")
    if total_failures:
        print(f"FAILURES: {total_failures}")
        return EXIT_FAILURES
    print("all properties hold")
    return EXIT_OK


# keys a bench config may set, with their values when absent
BENCH_DEFAULTS = {
    "seed": 0,
    "count": 100,
    "n_range": [3, 12],
    "kinds": ["uniform", "partition", "graphic", "deadline"],
    "weight_dist": "uniform",
    "budget_regime": "mixed",
    "mechanisms": ["matroid"],
}


def _bench_row(cfg, mechanism, index):
    inst = sweep_instance(cfg, mechanism, index)
    if mechanism == "matroid":
        kind = inst.structure.kind
        alpha = ""
    else:
        kind = "bipartite"
        alpha = format_rational(get_blackbox(BLACKBOX_OF[mechanism], inst.structure).alpha)
    runner = make_runner(mechanism, inst)
    started = time.perf_counter_ns()
    outcome = runner(inst)
    elapsed_us = (time.perf_counter_ns() - started) // 1000
    alloc_value = set_weight(inst.weights, outcome.allocation)
    opt = brute_force_opt(inst.structure, inst.weights, inst.true_costs, inst.budget)
    opt_value = set_weight(inst.weights, opt)
    ratio = opt_value / alloc_value if alloc_value > 0 else mpq(0)
    return [
        instance_hash(instance_to_json(inst)),
        len(inst.structure.ground),
        kind,
        mechanism,
        alpha,
        to_decimal(ratio),
        to_decimal(outcome.total_payment / inst.budget),
        elapsed_us,
    ]


def _cmd_bench(args):
    cfg = load_sweep_config(read_json(args.config), BENCH_DEFAULTS, args.threads)
    # every row first: a sweep that stops early leaves no partial file behind
    rows = list(run_sweep(_bench_row, cfg, cfg["mechanisms"]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "instance_hash", "n", "matroid_kind", "mechanism", "alpha",
            "ratio", "total_payment_over_budget", "runtime_us",
        ])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_replay(args):
    records = report_failures(read_json(args.report))
    if not records:
        print("report contains no failures; nothing to replay")
        return EXIT_OK
    missing = 0
    for idx, record in enumerate(records):
        reproduced = replay_failure(record)
        tag = "reproduced" if reproduced else "MISSING"
        print(f"[{idx}] {record['property']} {record['mechanism']} "
              f"element={record.get('element')} deviation={record.get('deviation')}: {tag}")
        if not reproduced:
            missing += 1
    if missing:
        print(f"{missing} failure record(s) did not reproduce")
        return EXIT_FAILURES
    print(f"all {len(records)} failure record(s) reproduced")
    return EXIT_OK


def _cmd_xos_constant(args):
    gamma = parse_rational(args.gamma, "--gamma")
    alpha, beta, ratio = optimize_constant(gamma)
    _print_json({
        "gamma": format_rational(gamma),
        "alpha": format_rational(alpha),
        "alpha_decimal": to_decimal(alpha),
        "beta": format_rational(beta),
        "beta_decimal": to_decimal(beta),
        "ratio": format_rational(ratio),
        "ratio_decimal": to_decimal(ratio),
    })
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="budgetmech",
        description="Budget-feasible procurement mechanisms over matroids, "
                    "matroid intersections and XOS valuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism on an instance file")
    p_run.add_argument("instance", help="path to the instance JSON file")
    p_run.add_argument("--mechanism", choices=["matroid", "intersection", "xos"],
                       default=None, help="default: inferred from the file")
    p_run.add_argument("--apx", choices=["exact-bipartite", "greedy"],
                       default="exact-bipartite",
                       help="blackbox for the intersection mechanism")
    p_run.add_argument("--seed", type=int, default=0, help="XOS coin-tape seed")
    p_run.add_argument("--alpha", default="218")
    p_run.add_argument("--beta", default="9/2")
    p_run.add_argument("--gamma", default="4")
    p_run.add_argument("--trace", action="store_true", help="include the run trace")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the property-verification suites")
    p_verify.add_argument("config", help="path to the verification config JSON")
    p_verify.add_argument("--out", default="verify-reports",
                          help="directory for report.json and summary.csv")
    p_verify.add_argument("--threads", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="Monte Carlo benchmark sweep to CSV")
    p_bench.add_argument("config", help="sweep config JSON")
    p_bench.add_argument("out", help="output CSV path")
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.set_defaults(func=_cmd_bench)

    p_replay = sub.add_parser("replay", help="re-derive failures from a report file")
    p_replay.add_argument("report", help="path to report.json written by verify")
    p_replay.set_defaults(func=_cmd_replay)

    p_const = sub.add_parser("xos-constant",
                             help="optimal (alpha, beta) and ratio for a gamma")
    p_const.add_argument("--gamma", default="3")
    p_const.set_defaults(func=_cmd_xos_constant)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SchemaError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        where = exc.filename if exc.filename is not None else "I/O"
        print(f"error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenExecutor as exc:
        print(f"error: worker pool: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
