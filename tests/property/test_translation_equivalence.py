"""The vectorised Step-3 kernel is an exact drop-in for the symbolic translator.

:mod:`repro.invariants.translation` rebuilds the Putinar and Handelman
translations as flat numpy index kernels; this file is the oracle pinning it
to the per-``Polynomial`` reference loop (``kernel="symbolic"``): same
constraints in the same order, same origins, same unknown-variable order,
same provenance, same objective.  Hypothesis drives the translation knobs;
the constraint pairs are derived once per program and reused so each example
stays in the milliseconds.
"""

from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.invariants.handelman import handelman_translate
from repro.invariants.putinar import putinar_translate
from repro.invariants.synthesis import SynthesisOptions, build_task

LOOP_SOURCE = """
count(n) {
    i := 0;
    while i <= n do
        i := i + 1
    od;
    return i
}
"""

BRANCH_SOURCE = """
gain(x) {
    y := 0;
    while x >= 1 do
        if * then y := y + x else y := y + 1 fi;
        x := x - 1
    od;
    return y
}
"""

PROGRAMS = {
    "loop": (LOOP_SOURCE, {"count": {1: "n >= 0"}}),
    "branch": (BRANCH_SOURCE, {"gain": {1: "x >= 0"}}),
}


@lru_cache(maxsize=None)
def pairs_for(program: str, degree: int):
    source, precondition = PROGRAMS[program]
    task = build_task(source, precondition, options=SynthesisOptions(degree=degree, upsilon=1))
    return tuple(task.pairs)


def snapshot(system):
    """Everything the rest of the pipeline can observe about a translation."""
    return (
        [(c.kind, c.origin, str(c.polynomial)) for c in system.constraints],
        system.variables(),
        [repr(p) for p in system.provenance],
        str(system.objective),
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=st.sampled_from(sorted(PROGRAMS)),
    degree=st.integers(min_value=1, max_value=2),
    upsilon=st.integers(min_value=1, max_value=2),
    with_witness=st.booleans(),
    encode_sos=st.booleans(),
)
def test_vectorized_putinar_matches_symbolic(program, degree, upsilon, with_witness, encode_sos):
    pairs = pairs_for(program, degree)
    symbolic = putinar_translate(
        pairs, upsilon=upsilon, with_witness=with_witness, encode_sos=encode_sos,
        kernel="symbolic",
    )
    vectorized = putinar_translate(
        pairs, upsilon=upsilon, with_witness=with_witness, encode_sos=encode_sos,
    )
    assert snapshot(vectorized) == snapshot(symbolic)
    assert vectorized.translation_profile is not None


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=st.sampled_from(sorted(PROGRAMS)),
    degree=st.integers(min_value=1, max_value=2),
    max_factors=st.integers(min_value=1, max_value=2),
    with_witness=st.booleans(),
)
def test_vectorized_handelman_matches_symbolic(program, degree, max_factors, with_witness):
    pairs = pairs_for(program, degree)
    symbolic = handelman_translate(
        pairs, max_factors=max_factors, with_witness=with_witness, kernel="symbolic"
    )
    vectorized = handelman_translate(pairs, max_factors=max_factors, with_witness=with_witness)
    assert snapshot(vectorized) == snapshot(symbolic)
