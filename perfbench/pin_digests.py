"""Rewrites digests.json: the output digest of every op, for the default seed
and one held-out seed.

Every op must pass its own checks first.  Run from the repository root, only
after a change that is meant to alter outputs:

    python3 perfbench/pin_digests.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# 0 is run.py's default seed; 104729 is held out: no tuning run uses it, so
# a claim can be re-checked on inputs it was not developed against
PINNED_SEEDS = (0, 104729)


def main():
    pinned = {}
    for name in WORKLOADS:
        for seed in PINNED_SEEDS:
            result = harness.run_workload(name, seed, seconds=0, trace=0, expected={})
            if result["failed"]:
                sys.exit(f"{name} seed {seed}: {result['first_error']}")
            pinned.setdefault(name, {})[str(seed)] = result["digests"]
            print(f"{name} seed {seed}: {len(result['digests'])} ops pinned")
    with open(harness.DIGESTS, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
