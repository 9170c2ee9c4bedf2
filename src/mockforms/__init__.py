"""Numerical and formal evaluation of theta functions, mock theta functions,
their real-analytic modifications, and the N=3 / N=4 / big N=4
superconformal character families, with an identity-verification harness."""

from .qkernel import (
    DEFAULT_POLICY,
    DomainError,
    EvalPoint,
    HalfInt,
    PoleProximityError,
    TruncationOverflowError,
    TruncationPolicy,
    UnknownIdentityError,
    UnsupportedCaseError,
    lattice_distance,
    nome,
)
from .theta import ThetaIndex, dedekind_eta, jacobi_theta, theta_jm
from .mock import MockIndex, PsiIndex, phi, phi1, psi
from .modification import phi1_tilde, phi_add, phi_tilde, psi_tilde, r_window
from .formal import FormalSeries, expand_phi1, expand_theta, series_equal
from .verifier import standard_grid, suite, verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
