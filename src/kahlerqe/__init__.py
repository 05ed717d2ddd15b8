"""Conformally Kahler quasi-Einstein metrics: construction and verification.

Builds, in explicit coordinates, Kahler metrics on complex line bundles
whose conformal rescalings satisfy a quasi-Einstein equation, and checks
every claimed identity either exactly (rational-function algebra) or
numerically (second-order automatic differentiation of curvature).
"""

from kahlerqe.builder import (
    BaseModel,
    ConstructionError,
    SKRChart,
    WarpProfile,
    assemble_chart,
    build_warp,
    end_to_end,
    expected_kahler,
    positivity_intervals,
    q_from_phi,
)
from kahlerqe.odes import (
    ExactParameterError,
    LinearODE1,
    LinearODE2,
    SKRParams,
    ScalarProfile,
    alpha_profile,
    appendix_system,
    closed_form_certificate,
    first_order_reduction,
    lemma_quantities,
    nonexistence_decision,
    phi_closed_form,
    solsys_system,
    system_12,
)
from kahlerqe.rational import PoleError, Polynomial, RationalFunction
from kahlerqe.verify import (
    DEFAULT_TOLERANCES,
    CheckRecord,
    VerificationReport,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BaseModel",
    "CheckRecord",
    "ConstructionError",
    "DEFAULT_TOLERANCES",
    "ExactParameterError",
    "LinearODE1",
    "LinearODE2",
    "PoleError",
    "Polynomial",
    "RationalFunction",
    "SKRChart",
    "SKRParams",
    "ScalarProfile",
    "VerificationReport",
    "WarpProfile",
    "alpha_profile",
    "appendix_system",
    "assemble_chart",
    "build_warp",
    "closed_form_certificate",
    "end_to_end",
    "expected_kahler",
    "first_order_reduction",
    "lemma_quantities",
    "nonexistence_decision",
    "phi_closed_form",
    "positivity_intervals",
    "q_from_phi",
    "run_suite",
    "solsys_system",
    "system_12",
]
