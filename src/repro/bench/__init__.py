"""Benchmark harness: regenerate the paper's Tables 1, 2 and 3.

Use the command line entry point::

    python -m repro.bench table2            # Table 2 (non-recursive)
    python -m repro.bench table3            # Table 3 (recursive + RL)
    python -m repro.bench table1            # Table 1 (literature summary)
    python -m repro.bench ablation          # Putinar vs Handelman vs Farkas
    python -m repro.bench all --quick       # everything, small parameter preset
    python -m repro.bench table2 --solve    # add the Step-4 solve per row

or the programmatic API in :mod:`repro.bench.runner` and
:mod:`repro.bench.tables`.  The runner is a thin measurement layer over
:class:`repro.api.Engine`, so whole tables share Step 1-3 reductions.
"""

from repro.bench.runner import (
    Measurement,
    bench_engine,
    measure_benchmark,
    measure_many,
    measurement_from_response,
    request_from_benchmark,
)
from repro.bench.tables import render_measurements, render_table1, table_rows

__all__ = [
    "Measurement",
    "bench_engine",
    "measure_benchmark",
    "measure_many",
    "measurement_from_response",
    "render_measurements",
    "render_table1",
    "request_from_benchmark",
    "table_rows",
]
