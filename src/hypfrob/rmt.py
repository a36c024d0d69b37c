"""Matrix-integral side: exact moments of products of traces over the
unitary symplectic group, and an independent quadrature oracle at low rank.

The exact route evaluates the Gaussian-variable product formula, valid for
distinct powers with sum a_j k_j <= 2g+1.  The quadrature route integrates
the trace product against the eigenphase density of USp(2g) for g in
{1, 2}; the normalization constant is always computed by integrating 1,
never hard-coded.
"""

import math
from dataclasses import dataclass

import numpy as np

QUADRATURE_TOL = 1e-8


@dataclass(frozen=True)
class RmtMoment:
    value: int
    valid: bool


def gaussian_moment(i):
    """E[Z^i] for standard normal Z: (i-1)!! for even i, 0 for odd."""
    if i < 0:
        raise ValueError("moment order must be >= 0")
    if i % 2:
        return 0
    return math.factorial(i) // (2 ** (i // 2) * math.factorial(i // 2))


def _terms(spec_or_terms):
    terms = getattr(spec_or_terms, "terms", spec_or_terms)
    terms = tuple((int(k), int(a)) for k, a in terms)
    ks = [k for k, _ in terms]
    if len(set(ks)) != len(ks):
        raise ValueError("powers must be distinct")
    return terms


def usp_moment_exact(spec_or_terms, g):
    """Product over j of E[(sqrt(k_j) Z_j - eta_{k_j})^{a_j}], exact integer.

    The value itself has no g dependence; g only sets the validity flag
    sum a_j k_j <= 2g + 1.
    """
    terms = _terms(spec_or_terms)
    value = 1
    for k, a in terms:
        eta = 1 if k % 2 == 0 else 0
        acc = 0
        for i in range(a // 2 + 1):
            tail = (-eta) ** (a - 2 * i)
            if tail == 0 and a - 2 * i > 0:
                continue
            acc += math.comb(a, 2 * i) * k ** i * gaussian_moment(2 * i) * tail
        value *= acc
    total = sum(k * a for k, a in terms)
    return RmtMoment(value=value, valid=total <= 2 * g + 1)


def weyl_quadrature_moment(spec_or_terms, g, tol=QUADRATURE_TOL):
    """Numerical eigenphase-density integral of the trace product, g in {1, 2}.

    Gauss-Legendre tensor rules with node doubling until successive values
    agree within tol; the integrand is a trigonometric polynomial, so
    convergence is fast and certified by the doubling check.
    """
    terms = _terms(spec_or_terms)
    if g not in (1, 2):
        raise ValueError("quadrature oracle implemented for g in {1, 2}")
    prev = None
    n = 64
    while n <= 4096:
        val = _weyl_integral(terms, g, n)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        n *= 2
    raise ArithmeticError("quadrature failed to settle within tolerance")


def _weyl_integral(terms, g, n):
    x, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * np.pi * (x + 1.0)
    wt = 0.5 * np.pi * w
    if g == 1:
        dens = np.sin(theta) ** 2
        norm = float(dens @ wt)
        vals = np.ones_like(theta)
        for k, a in terms:
            vals = vals * (2.0 * np.cos(k * theta)) ** a
        return float((vals * dens) @ wt) / norm
    t1 = theta[:, None]
    t2 = theta[None, :]
    dens = (np.cos(t1) - np.cos(t2)) ** 2 * np.sin(t1) ** 2 * np.sin(t2) ** 2
    w2 = wt[:, None] * wt[None, :]
    norm = float((dens * w2).sum())
    vals = np.ones_like(dens)
    for k, a in terms:
        vals = vals * (2.0 * np.cos(k * t1) + 2.0 * np.cos(k * t2)) ** a
    return float((vals * dens * w2).sum()) / norm
