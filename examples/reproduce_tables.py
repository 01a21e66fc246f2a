#!/usr/bin/env python3
"""Regenerate the paper's evaluation tables (a thin wrapper over ``repro.bench``).

Run with::

    python examples/reproduce_tables.py            # quick preset (small benchmarks)
    python examples/reproduce_tables.py --full     # the paper's full parameter set

The quick preset keeps the total runtime to a couple of minutes; the full run
reproduces every row of Tables 2 and 3 and can take tens of minutes on the
largest instances (euclidex3, merge-sort), mirroring the runtimes the paper
reports for its Java implementation.
"""

from __future__ import annotations

import argparse

from repro.bench.runner import measure_many, quick_subset
from repro.bench.tables import render_measurements, render_table1
from repro.suite.registry import benchmarks_by_category


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run the paper's full parameter set")
    parser.add_argument("--solve", action="store_true", help="also run the Step-4 solver per benchmark")
    args = parser.parse_args()
    quick = not args.full

    print(render_table1())
    print()

    table2 = benchmarks_by_category("nonrecursive")
    table3 = benchmarks_by_category("reinforcement") + benchmarks_by_category("recursive")
    if quick:
        table2 = quick_subset(table2)
        table3 = quick_subset(table3)

    measurements2 = measure_many(table2, solve=args.solve, quick=quick)
    print()
    print(render_measurements(measurements2, "Table 2 - non-recursive benchmarks"))

    measurements3 = measure_many(table3, solve=args.solve, quick=quick)
    print()
    print(render_measurements(measurements3, "Table 3 - recursive and RL benchmarks"))


if __name__ == "__main__":
    main()
