"""Unit tests for the benchmark suite and harness (repro.suite, repro.bench)."""

import pytest

from repro.bench.runner import Measurement, measure_benchmark, quick_subset
from repro.bench.tables import render_measurements, render_rows, render_table1, table_rows
from repro.errors import SpecificationError
from repro.semantics.interpreter import Interpreter
from repro.semantics.scheduler import RandomScheduler
from repro.suite.registry import all_benchmarks, benchmark_names, benchmarks_by_category, get_benchmark


def test_suite_has_all_paper_benchmarks():
    names = set(benchmark_names())
    expected_table2 = {
        "cohendiv", "divbin", "hard", "mannadiv", "wensley", "sqrt", "dijkstra", "z3sqrt",
        "freire1", "freire2", "euclidex1", "euclidex2", "euclidex3", "lcm1", "lcm2",
        "prodbin", "prod4br", "cohencu", "petter",
    }
    expected_table3 = {
        "recursive-sum", "recursive-square-sum", "recursive-cube-sum", "pw2", "merge-sort",
        "inverted-pendulum", "strict-inverted-pendulum", "oscillator",
    }
    assert expected_table2 <= names
    assert expected_table3 <= names
    assert "sum" in names  # running example


def test_every_benchmark_parses_and_builds_cfg():
    for benchmark in all_benchmarks():
        cfg = benchmark.cfg()
        assert cfg.label_count() > 0


def test_variable_counts_match_paper_where_reported():
    for benchmark in all_benchmarks():
        if benchmark.paper is None or benchmark.name == "merge-sort":
            continue
        assert benchmark.variable_count() == benchmark.paper.variables, benchmark.name


def test_recursive_benchmarks_are_recursive():
    for benchmark in benchmarks_by_category("recursive"):
        assert benchmark.program().is_recursive(), benchmark.name
    for benchmark in benchmarks_by_category("nonrecursive"):
        assert not benchmark.program().is_recursive(), benchmark.name


def test_get_benchmark_and_errors():
    assert get_benchmark("sqrt").name == "sqrt"
    with pytest.raises(SpecificationError):
        get_benchmark("does-not-exist")
    with pytest.raises(SpecificationError):
        benchmarks_by_category("no-such-category")


def test_objectives_construct_for_targeted_benchmarks():
    for benchmark in all_benchmarks():
        objective = benchmark.objective()
        assert objective is not None


def test_sqrt_benchmark_semantics():
    """The sqrt benchmark really computes the integer square root."""
    benchmark = get_benchmark("sqrt")
    interpreter = Interpreter(benchmark.cfg(), scheduler=RandomScheduler(seed=0))
    for n, expected in [(0, 0), (1, 1), (8, 2), (9, 3), (26, 5)]:
        result = interpreter.run({"n": n})
        assert result.completed
        assert result.return_value == expected


def test_cohencu_benchmark_semantics():
    benchmark = get_benchmark("cohencu")
    interpreter = Interpreter(benchmark.cfg())
    result = interpreter.run({"n": 4})
    assert result.return_value == 125  # x = (n+1)^3 after the loop exits at a = n+1


def test_recursive_sum_benchmark_semantics():
    benchmark = get_benchmark("recursive-sum")
    interpreter = Interpreter(benchmark.cfg(), scheduler=RandomScheduler(seed=1))
    for n in range(0, 7):
        value = interpreter.run({"n": n}).return_value
        assert 0 <= value <= n * (n + 1) // 2


def test_benchmark_options_reflect_table_parameters():
    benchmark = get_benchmark("pw2")
    options = benchmark.options()
    assert options.degree == 1
    assert options.conjuncts == 2
    overridden = benchmark.options(degree=3)
    assert overridden.degree == 3


# -- harness -------------------------------------------------------------------------------


def test_measure_benchmark_records_row():
    benchmark = get_benchmark("freire1")
    measurement = measure_benchmark(benchmark, options=benchmark.options(upsilon=1))
    assert measurement.system_size > 0
    assert measurement.variables == 3
    assert measurement.reduction_seconds > 0
    assert measurement.paper_system_size == 1210
    assert measurement.total_seconds == pytest.approx(measurement.reduction_seconds)


def test_measure_many_survives_solver_failure(monkeypatch):
    from repro.api import engine as engine_module
    from repro.bench.runner import measure_many

    def exploding_solve(solver, system):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine_module, "_solve_system", exploding_solve)
    benchmark = get_benchmark("freire1")
    measurements = measure_many(
        [benchmark],
        solve=True,
        quick=True,
        verbose=True,  # regression: the progress line must cope with solve_seconds=None
    )
    assert measurements[0].solver_status == "error"
    assert measurements[0].solve_seconds is None


def test_quick_subset_filters_by_variable_count():
    small = quick_subset(all_benchmarks(), limit_variables=4)
    assert all(benchmark.variable_count() <= 4 for benchmark in small)
    assert any(benchmark.name == "freire1" for benchmark in small)


def test_table_rendering():
    measurement = Measurement(
        name="demo", category="nonrecursive", conjuncts=1, degree=2, variables=3,
        constraint_pairs=5, system_size=100, unknowns=80, reduction_seconds=0.5,
        paper_system_size=120, paper_runtime_seconds=75.0,
    )
    rows = table_rows([measurement])
    assert rows[0]["|S|"] == "100"
    assert rows[0]["Runtime (paper)"] == "1m15.0s"
    rendered = render_measurements([measurement], title="Demo")
    assert "Demo" in rendered and "demo" in rendered
    assert render_rows([]) == "(no rows)"


def test_render_table1_contains_this_work():
    table = render_table1()
    assert "This work" in table
    assert "Colon" in table
