"""Hyponormality, k-hyponormality, and completion tests for block
Toeplitz operators with scalar or matrix rational symbols."""

from .symbols import (
    Symbol,
    RationalSymbol,
    is_normal_symbol,
)
from .rational import RationalFn
from .blaschke import (
    BlaschkeProduct,
    lcm,
    divides,
    coanalytic_decompose,
    coprime_matrix_check,
)
from .modelspace import (
    InterpolationInconsistent,
    tm_basis,
    build_M,
    poly_of_M,
    compression_oracle,
    hermite_fejer_solve,
)
from .operators import (
    WindowedOperator,
    PositivityReport,
    toeplitz_window,
    selfcommutator_exact,
    k_hypo_window,
    square_hypo_window,
    normal_nontoeplitz_completion,
    positivity_report,
)
from .decide import (
    HypoFactorization,
    Verdict,
    factorize,
    verify_in_C,
    decide_hyponormal,
    classify_normal_or_analytic,
    complete_ustar,
    no_hypo_completion_shift_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
