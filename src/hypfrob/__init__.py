"""Exact L-functions, Frobenius traces and eigenphase statistics for the
full ensemble of hyperelliptic curves y^2 = Q(x) over a small odd prime
field, with unitary-symplectic matrix-integral comparisons."""

from .ensemble import (
    DecompositionData,
    EnsembleData,
    EnsembleSpec,
    MomentSpec,
    TraceEngine,
    compute_ensemble_data,
    ensemble_average,
    moebius_decomposed_average,
    multi_char_sum,
    sigma_sum,
    squares_prediction,
    term_decomposition,
    trace_product_moment,
)
from .charsym import chi, jacobi_symbol, legendre, residue_symbol_def
from .lfunction import (
    Curve,
    complete_l,
    dirichlet_coefficients,
    eigenphases,
    point_count_direct,
    traces_explicit,
)
from .linstat import TestFunction, mock_gaussian_reference, triangular, z_moments, z_statistic
from .polyfield import Factorization, PrimeTable, factorize, get_prime_table
from .rmt import gaussian_moment, usp_moment_exact, weyl_quadrature_moment

__version__ = "0.1.0"
