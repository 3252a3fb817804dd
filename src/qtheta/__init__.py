"""qtheta: exact verification of theta-constant / eta-quotient q-series
identities over cyclotomic number fields.

Everything is computed in exact arithmetic (arbitrary-precision
rationals and canonical cyclotomic coordinates); every identity check is
a zero-tolerance coefficient comparison up to a stated q-order.
"""

from ._kernels import BACKEND as kernel_backend
from .cyclotomic import (
    ConductorError,
    CyclotomicNumber,
    PoleError,
    Rational,
    cyclotomic_polynomial,
    embed_conductor,
    euler_phi,
    root_of_unity,
    trig_value,
)
from .identities import (
    HalfSumSpec,
    VerificationReport,
    half_sum,
    tan_square_sum,
    theorem_rhs,
    verify_eta_theta_bridges,
    verify_k3_corollary,
    verify_lem2,
    verify_lemd,
    verify_meq1,
    verify_second_derivatives,
    verify_theorem,
)
from .jets import T_of_log, ZJet, compare_jets
from .modular import (
    ThetaPoint,
    eta_log_ddq,
    eta_product,
    halfprod_constant,
    log_deriv_lambert,
    theta2_jet,
    theta2_triple_product,
)
from .selftest import run_selftest
from .series import (
    Mismatch,
    PrecisionError,
    QExpansion,
    compare,
    lambert,
)

__version__ = "0.1.0"

__all__ = [
    "ConductorError",
    "CyclotomicNumber",
    "HalfSumSpec",
    "Mismatch",
    "PoleError",
    "PrecisionError",
    "QExpansion",
    "Rational",
    "T_of_log",
    "ThetaPoint",
    "VerificationReport",
    "ZJet",
    "compare",
    "compare_jets",
    "cyclotomic_polynomial",
    "embed_conductor",
    "eta_log_ddq",
    "eta_product",
    "euler_phi",
    "half_sum",
    "halfprod_constant",
    "kernel_backend",
    "lambert",
    "log_deriv_lambert",
    "root_of_unity",
    "run_selftest",
    "tan_square_sum",
    "theorem_rhs",
    "theta2_jet",
    "theta2_triple_product",
    "trig_value",
    "verify_eta_theta_bridges",
    "verify_k3_corollary",
    "verify_lem2",
    "verify_lemd",
    "verify_meq1",
    "verify_second_derivatives",
    "verify_theorem",
]
