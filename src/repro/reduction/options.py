"""Synthesis options: the paper's parameters d, n and Upsilon plus pipeline knobs.

This module is the canonical home of :class:`SynthesisOptions` (historically
defined in :mod:`repro.invariants.synthesis`, which still re-exports it).  It
lives in :mod:`repro.reduction` because the options determine the fingerprints
of every reduction stage; keeping them next to the stage compiler avoids a
circular import between the reduction package and the algorithm entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError

#: The sentinel accepted by ``SynthesisOptions.degree``: try d = 1, 2, ...,
#: ``max_degree`` under the request deadline and keep the smallest degree
#: that yields an invariant (the paper's "smallest template that works").
AUTO_DEGREE = "auto"


@dataclass(frozen=True)
class SynthesisOptions:
    """Parameters of the synthesis pipeline (the paper's d, n and Upsilon plus knobs).

    Attributes
    ----------
    degree:
        Degree ``d`` of the invariant templates, or the string ``"auto"`` to
        escalate adaptively: the engine tries d = 1, 2, ..., ``max_degree``
        (reusing every shared reduction stage between attempts) and returns
        the invariant of the smallest feasible degree.
    max_degree:
        The largest degree tried by adaptive escalation (``degree="auto"``);
        ignored for fixed degrees.
    conjuncts:
        Number ``n`` of atomic assertions per label.
    upsilon:
        The technical parameter: degree bound of the SOS multipliers.
    translation:
        ``"putinar"`` (the paper's main encoding) or ``"handelman"``
        (the Remark-2 alternative without Gram matrices).
    add_entry_assumptions:
        Add the implicit entry-label assumptions of Section 2.3.
    bounded:
        Apply the bounded-reals model (adds the compactness ball constraint of
        Remark 5 to every label's pre-condition).  Compactness is only needed
        for the *semi-completeness* guarantee; soundness holds without it and
        the numeric solvers behave better on the un-balled systems, so the
        default is off.
    bound:
        The bound ``c`` of the bounded-reals model (only meaningful when
        ``bounded=True``).
    with_witness:
        Include strict positivity witnesses (set to ``False`` for the
        non-strict variant of Remark 6).
    encode_sos:
        Encode SOS-ness of the multipliers through Cholesky factors.
    strategy:
        The Step-4 back-end: a registered strategy name (``"qclp"``,
        ``"gauss-newton"``, ``"alternating"``, ...) or ``"portfolio"`` to
        walk several strategies in order on the compiled problem (see
        :mod:`repro.solvers.portfolio`).
    portfolio:
        The strategy list walked when ``strategy="portfolio"`` (empty means
        the default portfolio).
    verify:
        Post-solve verification tier (weak modes): ``"none"`` trusts the
        solver, ``"sample"`` runs the dynamic checker
        (:mod:`repro.certify.sampling`), ``"exact"`` lifts the solution to a
        rational :class:`~repro.certify.certificate.Certificate` validated by
        pure polynomial identity (:mod:`repro.certify.lift`).  A rejected
        solution enters the counterexample-guided repair loop.
    max_repair_rounds:
        Bound on the repair loop's harvest-cut-re-solve rounds after a failed
        verification (0 disables repair).  Repair always re-runs the solver
        portfolio (this options' ``portfolio`` line-up when non-empty) — the
        pinned ``strategy`` already produced the rejected solution.
    verify_seed:
        Seed of all verification/repair randomness (simulation schedules,
        derived arguments, sample valuations), for reproducible runs.
    """

    degree: int | str = 2
    conjuncts: int = 1
    upsilon: int = 2
    translation: str = "putinar"
    add_entry_assumptions: bool = True
    bounded: bool = False
    bound: int = 100
    with_witness: bool = True
    encode_sos: bool = True
    strategy: str = "qclp"
    portfolio: tuple[str, ...] = ()
    max_degree: int = 3
    verify: str = "none"
    max_repair_rounds: int = 2
    verify_seed: int = 0

    def __post_init__(self) -> None:
        from repro.solvers.portfolio import STRATEGIES

        if self.degree != AUTO_DEGREE and (
            isinstance(self.degree, bool) or not isinstance(self.degree, int) or self.degree < 1
        ):
            raise SynthesisError(
                f"degree must be a positive integer or {AUTO_DEGREE!r}, got {self.degree!r}"
            )
        if isinstance(self.max_degree, bool) or not isinstance(self.max_degree, int) or self.max_degree < 1:
            raise SynthesisError(f"max_degree must be a positive integer, got {self.max_degree!r}")
        for name, least in (("conjuncts", 1), ("upsilon", 0), ("bound", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise SynthesisError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("add_entry_assumptions", "bounded", "with_witness", "encode_sos"):
            if not isinstance(getattr(self, name), bool):
                raise SynthesisError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        if self.translation not in ("putinar", "handelman"):
            raise SynthesisError(f"unknown translation {self.translation!r}")
        object.__setattr__(self, "portfolio", tuple(self.portfolio))
        known = (*STRATEGIES, "portfolio")
        if self.strategy not in known:
            raise SynthesisError(
                f"unknown strategy {self.strategy!r}; known strategies: {', '.join(known)}"
            )
        unknown = [name for name in self.portfolio if name not in STRATEGIES]
        if unknown:
            raise SynthesisError(
                f"unknown portfolio strategies {unknown!r}; known strategies: {', '.join(STRATEGIES)}"
            )
        if len(set(self.portfolio)) != len(self.portfolio):
            raise SynthesisError(f"duplicate portfolio strategies in {self.portfolio!r}")
        if self.verify not in ("none", "sample", "exact"):
            raise SynthesisError(
                f"unknown verify tier {self.verify!r}; known tiers: none, sample, exact"
            )
        if (
            isinstance(self.max_repair_rounds, bool)
            or not isinstance(self.max_repair_rounds, int)
            or self.max_repair_rounds < 0
        ):
            raise SynthesisError(
                f"max_repair_rounds must be a non-negative integer, got {self.max_repair_rounds!r}"
            )
        if isinstance(self.verify_seed, bool) or not isinstance(self.verify_seed, int):
            raise SynthesisError(f"verify_seed must be an integer, got {self.verify_seed!r}")

    @property
    def is_auto_degree(self) -> bool:
        """Whether this request asks for adaptive degree escalation."""
        return self.degree == AUTO_DEGREE

    def escalation_degrees(self) -> list[int]:
        """The degree ladder tried by adaptive escalation (d = 1, ..., max_degree)."""
        return list(range(1, self.max_degree + 1))

    def reduction_fingerprint(self) -> tuple:
        """The option fields that determine the Step 1-3 reduction.

        Solver-side knobs (``strategy``, ``portfolio``) and the post-solve
        verification knobs (``verify``, ``max_repair_rounds``,
        ``verify_seed``) are deliberately excluded so jobs differing only in
        their Step-4 back-end or their verification tier share one reduction
        in the pipeline's task cache.  ``bound`` only participates
        when ``bounded=True``: an unused bound must not split the cache (two
        jobs differing only in an ignored ``bound`` share their reduction).
        """
        return (
            self.degree,
            self.conjuncts,
            self.upsilon,
            self.translation,
            self.add_entry_assumptions,
            self.bounded,
            self.bound if self.bounded else None,
            self.with_witness,
            self.encode_sos,
        )
