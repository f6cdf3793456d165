"""Regenerate references.json: the default seed's meters and values.

    PYTHONPATH=src python3 perfbench/pin_references.py

Each workload's row per solve is [rounds, f_queries, F_queries,
iterations, value].  Re-pin only in a change that is meant to alter the
meters or answers, and say so in that change.
"""

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main():
    refs = {}
    for size in workloads.SIZES:
        refs[size] = {}
        for name in workloads.NAMES:
            jobs = workloads.build(name, workloads.DEFAULT_SEED, size)
            _, outcomes = workloads.run_pass(jobs)
            refs[size][name] = [out.reference_row() for out in outcomes]
            print(size, name, "pinned", len(outcomes), "solves", file=sys.stderr)
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
