"""Benchmark of budgetmech: closed loop, one caller, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload run-large --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, every metric

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times are scaled to a nominal machine speed (see
``harness.Speed``).  The full result, with its stamp, is written under
``perfbench/_work/``.  The package is imported from ``src/`` of the checkout
the script sits in.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NAMES = ("run-large", "verify-sweep", "xos-sampling")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(result):
    """Prints every metric by name with its unit, then the one-line result."""
    name = result["workload"]
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    for metric, value in result["unscaled"].items():
        print(f"{name} {metric} unscaled = {value:.6g}")
    print(f"{name} reference slice = {result['reference_slice_ms']:.4g} ms "
          f"(times above are scaled to {result['nominal_slice_ms']:g} ms)")
    print(f"{name} failed_share = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops, "
          f"{result['passes']} pass(es) of {result['ops_per_pass']})")
    if result["first_error"]:
        print(f"{name} first failure: {result['first_error']}", file=sys.stderr)


def run_all(args):
    results = []
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results.append((name, json.loads(lines[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{metric}": m for name, r in results
                    for metric, m in r["metrics"].items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "budgetmech", "__init__.py")):
        print(f"error: no budgetmech package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    sys.path.insert(0, SRC)
    import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(harness.WORK, exist_ok=True)
    path = os.path.join(harness.WORK,
                        f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
