"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import os
import sys

import pytest

# Allow running the tests from a fresh checkout without installing the package.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cfg.builder import build_cfg  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.spec.preconditions import Precondition  # noqa: E402
from repro.suite.running_example import SUM_SOURCE  # noqa: E402


@pytest.fixture(scope="session")
def sum_source() -> str:
    """Source text of the paper's running example (Figure 2)."""
    return SUM_SOURCE


@pytest.fixture(scope="session")
def sum_program(sum_source):
    """Parsed running example."""
    return parse_program(sum_source)


@pytest.fixture(scope="session")
def sum_cfg(sum_program):
    """CFG of the running example (labels 1..9 as in Figure 3)."""
    return build_cfg(sum_program)


@pytest.fixture(scope="session")
def sum_precondition(sum_cfg):
    """The paper's pre-condition n >= 1 at the entry label of sum."""
    return Precondition.from_spec(sum_cfg, {"sum": {1: "n >= 1"}})


def _rows_digest(rows) -> str:
    digest = hashlib.sha256()
    digest.update(repr(rows.names).encode())
    digest.update(repr(tuple((value.numerator, value.denominator) for value in rows.pool)).encode())
    for array in (rows.kinds, rows.term_row, rows.term_a, rows.term_b, rows.term_coeff):
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="session")
def rows_digest():
    """sha256 of a system's ``RowArrays``: names, pool, kinds and every term column.

    Two systems with equal digests compile to the same Step-4 problem; the
    frozen digests of ``tests/integration/test_golden_reduction.py`` are
    values of this function.
    """
    return _rows_digest


@pytest.fixture(scope="session")
def quick_sum_system():
    """The Step-3 system of suite program ``sum`` at the quick preset (upsilon=1)."""
    from repro.invariants.synthesis import build_task
    from repro.suite.registry import get_benchmark

    benchmark = get_benchmark("sum")
    options = benchmark.options(upsilon=1)
    return build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options).system


RECURSIVE_SUM_SOURCE = """
recursive_sum(n) {
    if n <= 0 then
        return n
    else
        m := n - 1;
        s := recursive_sum(m);
        if * then
            s := s + n
        else
            skip
        fi;
        return s
    fi
}
"""


@pytest.fixture(scope="session")
def recursive_sum_source() -> str:
    """Source text of the recursive summation program (Figure 4)."""
    return RECURSIVE_SUM_SOURCE


@pytest.fixture(scope="session")
def recursive_sum_cfg(recursive_sum_source):
    """CFG of the recursive summation program."""
    return build_cfg(parse_program(recursive_sum_source))


@pytest.fixture
def solve_limits(monkeypatch) -> list:
    """The ``time_limit`` of every Step-4 solve an engine runs, in order."""
    from repro.api import engine as engine_module

    limits = []
    solve = engine_module._solve_system

    def recording(solver, system):
        limits.append(solver.options.time_limit)
        return solve(solver, system)

    monkeypatch.setattr(engine_module, "_solve_system", recording)
    return limits
