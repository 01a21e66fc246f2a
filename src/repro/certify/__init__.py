"""repro.certify — certificate-carrying results and counterexample-guided repair.

The paper's guarantee rests on Positivstellensatz witnesses, yet a numeric
Step-4 solution is only trustworthy up to solver tolerances.  This package
closes the gap, end to end:

* :mod:`repro.certify.lift` — **exact lifting**: continued-fraction
  rationalization of the numeric assignment at escalating denominators, exact
  witness completion over :class:`fractions.Fraction`, exact re-evaluation of
  the quadratic system (:func:`exact_violations`) — no float tolerances in
  any verdict;
* :mod:`repro.certify.certificate` — serializable :class:`Certificate`
  objects validated by :func:`check_certificate` through pure polynomial
  identity and exact rational PSD checks — no solver, no sampling;
* :mod:`repro.certify.repair` — a CEGIS-style :func:`repair_solution` loop
  harvesting violating valuations (exact residuals + semantics-trace
  falsification) into sound template cuts and re-running the portfolio;
* :mod:`repro.certify.sampling` — the dynamic checking tier with
  pre-condition-derived simulation arguments and reproducible seeding;
* :mod:`repro.certify.verify` — the engine-side orchestration behind
  ``SynthesisOptions(verify="none"|"sample"|"exact")``.

See DESIGN.md ("Certificates and repair") for the lift/check/repair dataflow.
"""

from repro.certify.certificate import (
    Certificate,
    CertificateCheck,
    PairCertificate,
    SOSWitness,
    check_certificate,
)
from repro.certify.lift import (
    DENOMINATOR_LADDER,
    ExactViolation,
    LiftResult,
    exact_violations,
    lift_solution,
    rationalize,
)
from repro.certify.linalg import is_psd, ldl_decompose, solve_linear
from repro.certify.repair import (
    RepairOutcome,
    RepairRound,
    harvest_trace_cuts,
    repair_solution,
)
from repro.certify.sampling import (
    CheckReport,
    Violation,
    check_invariant,
    derive_argument_sets,
)
from repro.certify.verify import VerificationOutcome, verify_solution

__all__ = [
    "Certificate",
    "CertificateCheck",
    "CheckReport",
    "DENOMINATOR_LADDER",
    "ExactViolation",
    "LiftResult",
    "PairCertificate",
    "RepairOutcome",
    "RepairRound",
    "SOSWitness",
    "VerificationOutcome",
    "Violation",
    "check_certificate",
    "check_invariant",
    "derive_argument_sets",
    "exact_violations",
    "harvest_trace_cuts",
    "is_psd",
    "ldl_decompose",
    "lift_solution",
    "rationalize",
    "repair_solution",
    "solve_linear",
    "verify_solution",
]
