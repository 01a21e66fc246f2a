"""The Step-3 translation kernel behind Putinar and Handelman.

:func:`repro.invariants.putinar.putinar_translate` and
:func:`repro.invariants.handelman.handelman_translate` build their systems
here, as dense monomial-index arithmetic over the graded-lexicographic basis
rather than as ``Polynomial`` dict arithmetic (millions of small hash-map
merges for a deep-degree system):

1. **Compile** (:func:`_compile_putinar_pair` / :func:`_compile_handelman_pair`)
   lowers one constraint pair to flat int64 arrays: program-part exponent rows,
   unknown ids and :class:`~repro.polynomial.compiled.CoefficientPool` ids.
   Exact :class:`~fractions.Fraction` coefficients never reach the kernel.
2. **Kernel** (:func:`run_kernel`) forms all guard products ``h_i * g_i`` by
   broadcasting exponent matrices, ranks every resulting program monomial with
   :func:`~repro.polynomial.ordering.grlex_ranks`, and batch-groups the terms
   of every coefficient-matching equality with one stable argsort.  The kernel
   touches integers only.
3. **Emission** appends the grouped index arrays, pair by pair, to the
   :class:`~repro.invariants.quadratic_system.RowArrays` of the system: one
   row per equality group, each pair's local unknown and coefficient ids
   mapped into one name table and one ``Fraction`` pool, plus the witness,
   Cholesky-diagonal and lambda rows.  No ``Polynomial`` is built; Step 4
   compiles the arrays directly.  The ``coeff[...]`` origin labels are
   unranked from the emitted groups' grlex ranks with
   :func:`~repro.polynomial.ordering.grlex_labels` when read
   (:class:`GrlexOrigins`), so no basis monomial is ever enumerated.

Why this is exact: every term a kernel emits carries a *distinct* unknown
monomial within its equality group (the t/l/eps id layout is collision-free by
construction), so grouping never has to add two ``Fraction`` coefficients and
each pooled id is a coefficient of (†) as written.  The emitted rows are
frozen as sha256 digests in ``tests/integration/test_golden_reduction.py``,
recorded after a per-``Polynomial`` expansion of (†) agreed with them
constraint for constraint, and ``tests/integration/test_row_arrays.py``
compares the compiled arrays with the per-polynomial lowering of the
system's constraint view.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import SynthesisError
from repro.invariants.constraints import ConstraintPair
from repro.invariants.quadratic_system import (
    ConstraintKind,
    PairProvenance,
    QuadraticSystem,
    RowBuilder,
)
from repro.invariants.template import UNKNOWN_PREFIX
from repro.polynomial.compiled import (
    POOL_MINUS_ONE,
    POOL_MINUS_TWO,
    POOL_PLUS_ONE,
    CoefficientPool,
    lower_gram_triples,
    lower_mixed,
)
from repro.polynomial.ordering import (
    count_monomials_up_to_degree,
    grlex_exponents,
    grlex_labels,
    grlex_ranks,
)
from repro.polynomial.polynomial import Polynomial

_NO_UNKNOWN = -1


# ---------------------------------------------------------------------------
# Kernel payload and result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelPayload:
    """Name-free numeric description of one pair's coefficient-matching block.

    ``direct`` rows are terms that appear verbatim on one side of (†): the
    conclusion, the witness ``-eps``, the free multiplier ``-h_0`` and (for
    Handelman) the ``-lambda_k * S^k`` products.  The ``prod`` rows describe
    the guard products ``-h_i * g_i``: the kernel broadcasts the shared
    multiplier basis ``h_exponents`` against every row, with ``prod_t_base``
    giving the t-variable id of the row's multiplier block.
    """

    width: int  # number of program variables v
    h_count: int  # J = |M_Upsilon|; 0 disables the broadcast section
    h_exponents: np.ndarray  # (J, v) int64
    direct_exponents: np.ndarray  # (nd, v) int64
    direct_a: np.ndarray  # (nd,) unknown id or -1
    direct_b: np.ndarray  # (nd,) second unknown id or -1
    direct_coeff: np.ndarray  # (nd,) CoefficientPool ids
    prod_exponents: np.ndarray  # (np, v) int64
    prod_b: np.ndarray  # (np,) unknown id of the guard term or -1
    prod_coeff: np.ndarray  # (np,) CoefficientPool ids (sign pre-baked)
    prod_t_base: np.ndarray  # (np,) id of t_{i,0} for the row's multiplier


@dataclass(frozen=True)
class KernelResult:
    """The grouped coefficient-matching equalities of one payload.

    Equality ``g`` matches the coefficient of the basis monomial with grlex
    rank ``eq_mu[g]`` and owns the term slice ``eq_offsets[g]:eq_offsets[g+1]``
    of the parallel ``term_*`` arrays.  Groups are emitted in ascending rank
    order — the canonical constraint order of both translation kernels.
    """

    eq_mu: np.ndarray  # (n_eq,) ascending grlex ranks
    eq_offsets: np.ndarray  # (n_eq + 1,)
    term_a: np.ndarray  # (n_terms,) unknown id or -1
    term_b: np.ndarray  # (n_terms,) unknown id or -1
    term_coeff: np.ndarray  # (n_terms,) CoefficientPool ids


_EMPTY = np.zeros(0, dtype=np.int64)


def run_kernel(payload: KernelPayload) -> KernelResult:
    """Form all products, rank all monomials, group all equalities — batched."""
    width = payload.width
    mu_parts = [grlex_ranks(payload.direct_exponents)]
    a_parts = [payload.direct_a]
    b_parts = [payload.direct_b]
    coeff_parts = [payload.direct_coeff]
    if payload.h_count and payload.prod_b.size:
        h_dim = payload.h_count
        n_prod = payload.prod_b.size
        products = payload.h_exponents[:, None, :] + payload.prod_exponents[None, :, :]
        mu_parts.append(grlex_ranks(products.reshape(-1, width)))
        a_parts.append(
            (payload.prod_t_base[None, :] + np.arange(h_dim, dtype=np.int64)[:, None]).reshape(-1)
        )
        b_parts.append(np.broadcast_to(payload.prod_b[None, :], (h_dim, n_prod)).reshape(-1))
        coeff_parts.append(
            np.broadcast_to(payload.prod_coeff[None, :], (h_dim, n_prod)).reshape(-1)
        )
    mu = np.concatenate(mu_parts) if mu_parts else _EMPTY
    if not mu.size:
        return KernelResult(_EMPTY, np.zeros(1, dtype=np.int64), _EMPTY, _EMPTY, _EMPTY)
    order = np.argsort(mu, kind="stable")
    mu = mu[order]
    eq_mu, starts = np.unique(mu, return_index=True)
    eq_offsets = np.append(starts, mu.size).astype(np.int64, copy=False)
    return KernelResult(
        eq_mu=eq_mu,
        eq_offsets=eq_offsets,
        term_a=np.concatenate(a_parts)[order],
        term_b=np.concatenate(b_parts)[order],
        term_coeff=np.concatenate(coeff_parts)[order],
    )


# ---------------------------------------------------------------------------
# Shared combinatorial tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _basis_exponents(width: int, degree: int) -> np.ndarray:
    """Exponent matrix of the grlex basis — independent of variable names."""
    ranks = np.arange(count_monomials_up_to_degree(width, degree), dtype=np.int64)
    return grlex_exponents(ranks, width)


@lru_cache(maxsize=128)
def _sos_template(width: int, upsilon: int) -> KernelResult:
    """The SOS block ``h = y^T L L^T y`` in *local* ids, shared across pairs.

    Local id ``j < J`` is the multiplier coefficient ``t_j``; local id ``J +
    r*(r+1)//2 + c`` is the Cholesky entry ``l_{r,c}``.  The block depends
    only on (variable count, upsilon), so one template serves every multiplier
    of every pair with that shape.
    """
    h_dim = count_monomials_up_to_degree(width, upsilon)
    sos_dim = count_monomials_up_to_degree(width, upsilon // 2)
    sos_exponents = _basis_exponents(width, upsilon // 2)
    rows_a, rows_b, cols, doubled = lower_gram_triples(sos_dim)
    gram_exponents = sos_exponents[rows_a] + sos_exponents[rows_b]
    gram_a = h_dim + rows_a * (rows_a + 1) // 2 + cols
    gram_b = h_dim + rows_b * (rows_b + 1) // 2 + cols
    gram_coeff = np.where(doubled, POOL_MINUS_TWO, POOL_MINUS_ONE)
    payload = KernelPayload(
        width=width,
        h_count=0,
        h_exponents=_EMPTY.reshape(0, width),
        direct_exponents=np.concatenate([_basis_exponents(width, upsilon), gram_exponents]),
        direct_a=np.concatenate([np.arange(h_dim, dtype=np.int64), gram_a]),
        direct_b=np.concatenate([np.full(h_dim, _NO_UNKNOWN, dtype=np.int64), gram_b]),
        direct_coeff=np.concatenate(
            [np.full(h_dim, POOL_PLUS_ONE, dtype=np.int64), gram_coeff]
        ),
        prod_exponents=_EMPTY.reshape(0, width),
        prod_b=_EMPTY,
        prod_coeff=_EMPTY,
        prod_t_base=_EMPTY,
    )
    return run_kernel(payload)


# ---------------------------------------------------------------------------
# Translation profile (compile/fanout/assemble sub-timings)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslationProfile:
    """Where one translation's wall-clock went (attached to the system).

    ``fanout_seconds`` times the in-process kernel (:func:`run_kernel` over
    every pair) and ``assemble_seconds`` the emission of the row arrays;
    both keep their names because clients read the
    ``stage_translation_fanout_seconds`` / ``..._assemble_seconds`` timing
    keys built from them.
    """

    compile_seconds: float
    fanout_seconds: float
    assemble_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.fanout_seconds + self.assemble_seconds


# ---------------------------------------------------------------------------
# Putinar: compile and emit
# ---------------------------------------------------------------------------


@dataclass
class _PairJob:
    """The metadata needed to emit one pair's kernel result as rows."""

    provenance: PairProvenance
    pair_name: str
    tag: str
    variables: tuple[str, ...]
    unknown_names: tuple[str, ...]  # input (template) unknowns in id order
    pool_values: tuple[Fraction, ...]
    payload: KernelPayload
    # Putinar-only shape data (None markers unused for Handelman).
    multiplier_count: int = 0  # m + 1
    h_dim: int = 0  # J
    sos_dim: int = 0  # J'
    with_witness: bool = True
    encode_sos: bool = True
    upsilon: int = 0
    # Handelman-only: the product labels in enumeration order.
    product_labels: tuple[str, ...] = ()


def _compile_putinar_pair(
    pair: ConstraintPair, pair_index: int, upsilon: int, with_witness: bool, encode_sos: bool
) -> _PairJob:
    tag = f"c{pair_index}"
    variables = tuple(pair.relevant_program_variables())
    width = len(variables)
    unknown_index: dict[str, int] = {}
    pool = CoefficientPool()
    conclusion = lower_mixed(pair.conclusion, variables, unknown_index, pool)
    assumptions = [
        lower_mixed(assumption, variables, unknown_index, pool, negate=True)
        for assumption in pair.assumptions
    ]
    input_count = len(unknown_index)
    assumption_count = len(pair.assumptions)
    h_dim = count_monomials_up_to_degree(width, upsilon)
    h_exponents = _basis_exponents(width, upsilon)

    # Output unknown id layout: input unknowns, then the (m+1) t-blocks, the
    # witness, then the (m+1) Cholesky blocks (row-major lower triangles).
    eps_id = input_count + (assumption_count + 1) * h_dim

    direct_exponents = [conclusion.exponents]
    direct_a = [conclusion.unknown_ids]
    direct_b = [np.full(conclusion.unknown_ids.size, _NO_UNKNOWN, dtype=np.int64)]
    direct_coeff = [conclusion.coefficient_ids]
    if with_witness:
        direct_exponents.append(np.zeros((1, width), dtype=np.int64))
        direct_a.append(np.asarray([eps_id], dtype=np.int64))
        direct_b.append(np.asarray([_NO_UNKNOWN], dtype=np.int64))
        direct_coeff.append(np.asarray([POOL_MINUS_ONE], dtype=np.int64))
    # -h_0: the free multiplier's terms appear directly in (†).
    direct_exponents.append(h_exponents)
    direct_a.append(input_count + np.arange(h_dim, dtype=np.int64))
    direct_b.append(np.full(h_dim, _NO_UNKNOWN, dtype=np.int64))
    direct_coeff.append(np.full(h_dim, POOL_MINUS_ONE, dtype=np.int64))

    prod_exponents = [np.zeros((0, width), dtype=np.int64)]
    prod_b = [_EMPTY]
    prod_coeff = [_EMPTY]
    prod_t_base = [_EMPTY]
    for which, lowered in enumerate(assumptions, start=1):
        prod_exponents.append(lowered.exponents)
        prod_b.append(lowered.unknown_ids)
        prod_coeff.append(lowered.coefficient_ids)
        prod_t_base.append(
            np.full(lowered.unknown_ids.size, input_count + which * h_dim, dtype=np.int64)
        )

    payload = KernelPayload(
        width=width,
        h_count=h_dim,
        h_exponents=h_exponents,
        direct_exponents=np.concatenate(direct_exponents),
        direct_a=np.concatenate(direct_a),
        direct_b=np.concatenate(direct_b),
        direct_coeff=np.concatenate(direct_coeff),
        prod_exponents=np.concatenate(prod_exponents),
        prod_b=np.concatenate(prod_b),
        prod_coeff=np.concatenate(prod_coeff),
        prod_t_base=np.concatenate(prod_t_base),
    )
    provenance = PairProvenance(
        index=pair_index,
        name=pair.name,
        target=pair.target,
        scheme="putinar",
        assumption_count=assumption_count,
        variables=variables,
        upsilon=upsilon,
        with_witness=with_witness,
    )
    return _PairJob(
        provenance=provenance,
        pair_name=pair.name,
        tag=tag,
        variables=variables,
        unknown_names=tuple(unknown_index),
        pool_values=pool.values(),
        payload=payload,
        multiplier_count=assumption_count + 1,
        h_dim=h_dim,
        sos_dim=count_monomials_up_to_degree(width, upsilon // 2),
        with_witness=with_witness,
        encode_sos=encode_sos,
        upsilon=upsilon,
    )


class GrlexOrigins:
    """The origin labels ``prefix[monomial]`` of grlex-ranked rows, built when read.

    A translation emits one label per coefficient-matching row; building
    them all costs more than the arrays they describe, and only printing and
    a failed exact check read them.
    """

    __slots__ = ("prefix", "ranks", "variables")

    def __init__(self, prefix: str, ranks: np.ndarray, variables: Sequence[str]):
        self.prefix = prefix
        self.ranks = ranks
        self.variables = variables

    def __len__(self) -> int:
        return int(self.ranks.size)

    def __getitem__(self, index: int) -> str:
        return self._labels(self.ranks[index : index + 1])[0]

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels(self.ranks))

    def _labels(self, ranks: np.ndarray) -> list[str]:
        prefix = self.prefix
        return [f"{prefix}[{label}]" for label in grlex_labels(ranks, self.variables)]


def _group_rows(result: KernelResult) -> np.ndarray:
    """The group (row) of every term of a grouped kernel result."""
    return np.repeat(np.arange(result.eq_mu.size, dtype=np.int64), np.diff(result.eq_offsets))


def _check_constant_groups(
    result: KernelResult, pool_values: Sequence[Fraction], origins: GrlexOrigins
) -> None:
    """Refuse a coefficient-matching equality that reduces to a non-zero constant.

    Terms never cancel inside a group (see the module docstring), so such a
    group is a single unknown-free term.
    """
    starts = result.eq_offsets[:-1]
    lone = (np.diff(result.eq_offsets) == 1) & (result.term_a[starts] < 0)
    if lone.any():
        group = int(np.flatnonzero(lone)[0])
        value = pool_values[int(result.term_coeff[starts[group]])]
        raise SynthesisError(
            f"inconsistent constant equality from {origins[group]!r}: "
            f"{Polynomial.constant(value)} = 0"
        )


def _emit_groups(
    builder: RowBuilder,
    result: KernelResult,
    ids: np.ndarray,
    pool: np.ndarray,
    origins: GrlexOrigins,
) -> None:
    """One equality row per group, its terms in kernel order over the global ids.

    ``ids`` maps the pair's local unknown ids to the global name table and
    ends with ``-1``, so the kernel's ``-1`` padding maps to itself.
    """
    builder.add_rows(
        ConstraintKind.EQUALITY,
        origins,
        _group_rows(result),
        ids[result.term_a],
        ids[result.term_b],
        pool[result.term_coeff],
    )


def _emit_unit_rows(
    builder: RowBuilder,
    kind: ConstraintKind,
    origins: Sequence[str],
    unknowns: np.ndarray,
    pool: np.ndarray,
) -> None:
    """Rows ``x (kind) 0``, one per unknown id (the witness, diagonal and lambda rows)."""
    count = len(unknowns)
    builder.add_rows(
        kind,
        origins,
        np.arange(count, dtype=np.int64),
        unknowns,
        np.full(count, _NO_UNKNOWN, dtype=np.int64),
        np.full(count, pool[POOL_PLUS_ONE], dtype=np.int64),
    )


def _emit_putinar(builder: RowBuilder, job: _PairJob, result: KernelResult) -> None:
    tag = job.tag
    h_dim = job.h_dim
    sos_dim = job.sos_dim
    tri_count = sos_dim * (sos_dim + 1) // 2
    input_count = len(job.unknown_names)
    eps_id = input_count + job.multiplier_count * h_dim
    cholesky_base = eps_id + (1 if job.with_witness else 0)

    names: list[str] = list(job.unknown_names)
    for which in range(job.multiplier_count):
        for j in range(h_dim):
            names.append(f"{UNKNOWN_PREFIX}t_{tag}_{which}_{j}")
    if job.with_witness:
        names.append(f"{UNKNOWN_PREFIX}eps_{tag}")
    if job.encode_sos:
        for which in range(job.multiplier_count):
            for row in range(sos_dim):
                for col in range(row + 1):
                    names.append(f"{UNKNOWN_PREFIX}l_{tag}_{which}_{row}_{col}")
    ids = np.append(builder.name_ids(names), _NO_UNKNOWN)
    pool = builder.pool_ids(job.pool_values)

    pair_name = job.pair_name
    if job.with_witness:
        _emit_unit_rows(
            builder, ConstraintKind.POSITIVE, (f"{pair_name}:witness",), ids[[eps_id]], pool
        )
    origins = GrlexOrigins(f"{pair_name}:coeff", result.eq_mu, job.variables)
    _check_constant_groups(result, job.pool_values, origins)
    _emit_groups(builder, result, ids, pool, origins)

    if not job.encode_sos:
        return

    template = _sos_template(len(job.variables), job.upsilon)
    local_a = template.term_a
    local_b = template.term_b
    diagonal = np.asarray([row * (row + 1) // 2 + row for row in range(sos_dim)], dtype=np.int64)
    for which in range(job.multiplier_count):
        t_offset = input_count + which * h_dim
        l_offset = cholesky_base + which * tri_count - h_dim
        shifted = KernelResult(
            eq_mu=template.eq_mu,
            eq_offsets=template.eq_offsets,
            term_a=np.where(local_a < h_dim, local_a + t_offset, local_a + l_offset),
            term_b=np.where(
                local_b < 0,
                local_b,
                np.where(local_b < h_dim, local_b + t_offset, local_b + l_offset),
            ),
            term_coeff=template.term_coeff,
        )
        _emit_groups(
            builder,
            shifted,
            ids,
            pool,
            GrlexOrigins(f"{pair_name}:sos{which}", template.eq_mu, job.variables),
        )
        _emit_unit_rows(
            builder,
            ConstraintKind.NONNEGATIVE,
            (f"{pair_name}:diag{which}",) * sos_dim,
            ids[cholesky_base + which * tri_count + diagonal],
            pool,
        )


# ---------------------------------------------------------------------------
# Handelman: compile and emit
# ---------------------------------------------------------------------------


def _compile_handelman_pair(
    pair: ConstraintPair, pair_index: int, max_factors: int, with_witness: bool
) -> _PairJob:
    from repro.invariants.handelman import enumerate_products

    tag = f"c{pair_index}"
    variables = tuple(pair.relevant_program_variables())
    width = len(variables)
    unknown_index: dict[str, int] = {}
    pool = CoefficientPool()
    conclusion = lower_mixed(pair.conclusion, variables, unknown_index, pool)
    products = enumerate_products(pair.assumptions, max_factors)
    lowered_products = [
        lower_mixed(product, variables, unknown_index, pool, negate=True)
        for _, _, product in products
    ]
    input_count = len(unknown_index)
    eps_id = input_count if with_witness else None
    lambda_base = input_count + (1 if with_witness else 0)

    direct_exponents = [conclusion.exponents]
    direct_a = [conclusion.unknown_ids]
    direct_b = [np.full(conclusion.unknown_ids.size, _NO_UNKNOWN, dtype=np.int64)]
    direct_coeff = [conclusion.coefficient_ids]
    if with_witness:
        direct_exponents.append(np.zeros((1, width), dtype=np.int64))
        direct_a.append(np.asarray([eps_id], dtype=np.int64))
        direct_b.append(np.asarray([_NO_UNKNOWN], dtype=np.int64))
        direct_coeff.append(np.asarray([POOL_MINUS_ONE], dtype=np.int64))
    for k, lowered in enumerate(lowered_products):
        direct_exponents.append(lowered.exponents)
        direct_a.append(np.full(lowered.unknown_ids.size, lambda_base + k, dtype=np.int64))
        direct_b.append(lowered.unknown_ids)
        direct_coeff.append(lowered.coefficient_ids)

    payload = KernelPayload(
        width=width,
        h_count=0,
        h_exponents=_EMPTY.reshape(0, width),
        direct_exponents=np.concatenate(direct_exponents),
        direct_a=np.concatenate(direct_a),
        direct_b=np.concatenate(direct_b),
        direct_coeff=np.concatenate(direct_coeff),
        prod_exponents=_EMPTY.reshape(0, width),
        prod_b=_EMPTY,
        prod_coeff=_EMPTY,
        prod_t_base=_EMPTY,
    )
    provenance = PairProvenance(
        index=pair_index,
        name=pair.name,
        target=pair.target,
        scheme="handelman",
        assumption_count=len(pair.assumptions),
        variables=variables,
        max_factors=max_factors,
        with_witness=with_witness,
    )
    return _PairJob(
        provenance=provenance,
        pair_name=pair.name,
        tag=tag,
        variables=variables,
        unknown_names=tuple(unknown_index),
        pool_values=pool.values(),
        payload=payload,
        with_witness=with_witness,
        product_labels=tuple(label for label, _, _ in products),
    )


def _emit_handelman(builder: RowBuilder, job: _PairJob, result: KernelResult) -> None:
    tag = job.tag
    names: list[str] = list(job.unknown_names)
    if job.with_witness:
        names.append(f"{UNKNOWN_PREFIX}eps_{tag}")
    for k in range(len(job.product_labels)):
        names.append(f"{UNKNOWN_PREFIX}t_{tag}_{k}_0")
    ids = np.append(builder.name_ids(names), _NO_UNKNOWN)
    pool = builder.pool_ids(job.pool_values)
    lambda_base = len(job.unknown_names) + (1 if job.with_witness else 0)

    pair_name = job.pair_name
    if job.with_witness:
        _emit_unit_rows(
            builder,
            ConstraintKind.POSITIVE,
            (f"{pair_name}:witness",),
            ids[[len(job.unknown_names)]],
            pool,
        )
    _emit_unit_rows(
        builder,
        ConstraintKind.NONNEGATIVE,
        tuple(f"{pair_name}:lambda[{label}]" for label in job.product_labels),
        ids[lambda_base + np.arange(len(job.product_labels), dtype=np.int64)],
        pool,
    )
    origins = GrlexOrigins(f"{pair_name}:coeff", result.eq_mu, job.variables)
    _check_constant_groups(result, job.pool_values, origins)
    _emit_groups(builder, result, ids, pool, origins)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def translate(
    pairs: Sequence[ConstraintPair],
    compile_pair: Callable[[ConstraintPair, int], _PairJob],
    emit: Callable[[RowBuilder, _PairJob, KernelResult], None],
    objective: Polynomial | None,
) -> QuadraticSystem:
    """Compile every pair, run the kernel on each, and emit the rows of one system.

    ``compile_pair(pair, index)`` and ``emit`` are one scheme's halves
    (Putinar or Handelman); the three phases are timed into the system's
    :class:`TranslationProfile`.
    """
    start = time.perf_counter()
    jobs = [compile_pair(pair, index) for index, pair in enumerate(pairs)]
    compiled_at = time.perf_counter()
    results = [run_kernel(job.payload) for job in jobs]
    fanned_at = time.perf_counter()
    builder = RowBuilder()
    for job, result in zip(jobs, results):
        emit(builder, job, result)
    system = QuadraticSystem(
        objective=objective,
        provenance=[job.provenance for job in jobs],
        rows=builder.freeze(),
    )
    system.translation_profile = TranslationProfile(
        compile_seconds=compiled_at - start,
        fanout_seconds=fanned_at - compiled_at,
        assemble_seconds=time.perf_counter() - fanned_at,
    )
    return system
