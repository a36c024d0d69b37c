"""Quadratic residue and Jacobi symbols over F_q[x], and curve characters.

Two independent evaluation routes are provided: a definitional modular
exponentiation for prime moduli (`residue_symbol_def`) and a
factorization-free Euclidean reduction using quadratic reciprocity
(`jacobi_symbol`).  `jacobi_symbols` runs the same reduction on many pairs
at once in numpy; the scalar `jacobi_symbol` is its test oracle.  The
character chi(D, .) places D in the numerator slot: chi_D(f) = (D / f).
"""

import math
from functools import lru_cache

import numpy as np

from .polyfield import (
    ONE,
    check_field,
    degree,
    factorize,
    get_prime_table,
    is_monic,
    make_monic,
    poly_mod,
    poly_mul,
    poly_pow_mod,
    poly_sub,
)


@lru_cache(maxsize=None)
def legendre_table(q):
    """Quadratic residue symbol of F_q constants, indexed by residue."""
    check_field(q)
    table = [0] * q
    for c in range(1, q):
        r = pow(c, (q - 1) // 2, q)
        table[c] = 1 if r == 1 else -1
    return tuple(table)


def legendre(c, q):
    return legendre_table(q)[c % q]


def residue_symbol_def(f, prime, q, table=None, check=True):
    """Definitional residue symbol (f / P) = f^((|P|-1)/2) mod P, in {-1, 0, 1}.

    Slow oracle path; P must be monic irreducible.
    """
    if check:
        if not is_monic(prime) or degree(prime) < 1:
            raise ValueError("modulus must be a monic polynomial of positive degree")
        if table is None:
            table = get_prime_table(q, degree(prime))
        if not table.is_irreducible(prime):
            raise ValueError(f"modulus {prime} is reducible")
    f = poly_mod(f, prime, q)
    if not f:
        return 0
    r = poly_pow_mod(f, (q ** degree(prime) - 1) // 2, prime, q)
    if r == ONE:
        return 1
    if degree(r) == 0 and r[0] == q - 1:
        return -1
    raise ArithmeticError("residue symbol exponentiation left the unit circle; reducible modulus?")


def jacobi_symbol(B, A, q):
    """Jacobi symbol (B / A) for monic A, by Euclidean reduction and reciprocity.

    Handles constant B through (c / A) = legendre(c)^deg A, B = 0 (symbol 0
    unless A is constant), and non-monic remainders by extracting the
    leading unit before each reciprocity swap.
    """
    if not is_monic(A):
        raise ValueError("Jacobi symbol denominator must be monic")
    swap_signs = (q - 1) // 2 % 2 == 1
    sign = 1
    while True:
        if degree(A) == 0:
            return sign
        B = poly_mod(B, A, q)
        if not B:
            return 0
        B, unit = make_monic(B, q)
        if unit != 1 and legendre(unit, q) == -1 and degree(A) % 2 == 1:
            sign = -sign
        if degree(B) == 0:
            return sign
        if swap_signs and degree(A) % 2 == 1 and degree(B) % 2 == 1:
            sign = -sign
        A, B = B, A


CHUNK_PAIRS = 2 ** 12  # pairs per lockstep pass; fixed, so no result depends on it


@lru_cache(maxsize=None)
def _unit_tables(q):
    """(legendre symbol, inverse) of every residue mod q, as arrays; 0 maps to 0."""
    return (np.array(legendre_table(q), np.int8),
            np.array([0] + [pow(c, q - 2, q) for c in range(1, q)]))


def _degrees(cols):
    """Degree of each coefficient column (low degree first, down axis 0);
    -1 for a zero column."""
    width = cols.shape[0]
    place = np.arange(1, width + 1, dtype=np.min_scalar_type(width))[:, None]
    return ((cols != 0) * place).max(axis=0).astype(np.intp) - 1


def _top_aligned(cols, degrees):
    """Each column shifted up so that its degree-d coefficient sits in the last row."""
    width, n = cols.shape
    src = np.arange(width)[:, None] - (width - 1 - degrees)
    return np.where(src >= 0, cols.ravel()[np.maximum(src, 0) * n + np.arange(n)], 0)


def jacobi_symbols(B, A, q):
    """Jacobi symbols (B_i / A_i) as int8, by the algorithm of `jacobi_symbol`
    run on many pairs in numpy lockstep.

    B and A hold integer coefficients, low degree first, along their last
    axis; every A row must be monic (zero columns above its degree are
    allowed).  The leading axes broadcast like a ufunc's, so
    `jacobi_symbols(Qs[:, None], Ps[None], q)` is the (moduli x primes) grid
    without materializing the pairs.  Pairs go through in fixed chunks of
    CHUNK_PAIRS.
    """
    check_field(q)
    B, A = np.asarray(B), np.asarray(A)
    shape = np.broadcast_shapes(B.shape[:-1], A.shape[:-1])
    lead = shape or (1,)
    B = np.broadcast_to(B, lead + B.shape[-1:])
    A = np.broadcast_to(A, lead + A.shape[-1:])
    out = np.empty(math.prod(lead), np.int8)
    for lo in range(0, len(out), CHUNK_PAIRS):
        idx = np.unravel_index(np.arange(lo, min(lo + CHUNK_PAIRS, len(out))), lead)
        out[lo:lo + CHUNK_PAIRS] = _jacobi_chunk(B[idx], A[idx], q)
    return out.reshape(shape)


def _jacobi_chunk(B, A, q):
    """`jacobi_symbols` on paired (n, kB) and (n, kA) rows.

    The pairs are held coefficient-major, as (width, n) arrays, so that
    every step works on contiguous memory.  The remainder of b by a is taken
    top down: the coefficient of x^k in b, reduced mod q, is cancelled
    against a's leading term, with a kept top-aligned so that every pair
    uses the same row slices.  Pairs whose a has degree above k skip the
    step.  Only that 1-D lead is reduced at each step; b is reduced once per
    Euclid round, when its remainder is read.  Within a round each entry of
    b starts in [0, q) and each step takes at most (q-1)^2 from it, in at
    most W steps, W = max(kB, kA) the padded width (a step at k reaches the
    deg a + 1 <= kA entries below it).  So |b| <= (q-1) + W (q-1)^2, and
    that bound picks the dtype: int8 at q = 3 up to W = 31.  A pair leaves
    the working set, by one index compaction per round, when its symbol is
    known.
    """
    width = A.shape[1]
    W = max(B.shape[1], width)
    dtype = np.min_scalar_type(-((q - 1) + W * (q - 1) ** 2))
    legendre_of, inverse_of = _unit_tables(q)
    swap_signs = (q - 1) // 2 % 2 == 1
    a = (A % q).T.astype(dtype)
    n = a.shape[1]
    da = _degrees(a)
    if (a[da, np.arange(n)] != 1).any():
        raise ValueError("Jacobi symbol denominator must be monic")
    b = np.zeros((W, n), dtype)
    b[:B.shape[1]] = (B % q).T
    out = np.ones(n, np.int8)  # a constant denominator gives 1, whatever B is
    rows = np.flatnonzero(da > 0)
    a, b, da = a[:, rows], b[:, rows], da[rows]
    sign = np.ones(len(rows), np.int8)
    top = W - 1  # b's degree is at most this
    while len(rows):
        a_top = _top_aligned(a, da)
        for k in range(top, da.min() - 1, -1):
            lead = b[k] % q
            lead[da > k] = 0
            lo = max(0, k - width + 1)
            b[lo:k + 1] -= lead * a_top[width - (k + 1 - lo):]
        r = b[:width] % q
        dr = _degrees(r)
        unit = r[dr, np.arange(len(rows))]  # 0 for a zero remainder
        odd = da % 2 == 1
        sign[odd & (legendre_of[unit] == -1)] *= -1
        out[rows[dr < 0]] = 0
        out[rows[dr == 0]] = sign[dr == 0]
        sign[odd & (dr % 2 == 1) & swap_signs] *= -1
        keep = np.flatnonzero(dr > 0)
        top = da[keep].max(initial=0)
        b = a[:, keep]
        a = r[:, keep] * inverse_of[unit[keep]].astype(dtype)
        a %= q
        da, sign, rows = dr[keep], sign[keep], rows[keep]
    return out


def poly_sqrt(f, q):
    """Monic square root of a monic polynomial, or None."""
    d = degree(f)
    if d % 2 or d < 0:
        return None
    if d == 0:
        return ONE
    half = d // 2
    root = [0] * half + [1]
    inv2 = pow(2, q - 2, q)
    # match coefficients from the top down: f[d-k] determines root[half-k]
    for k in range(1, half + 1):
        acc = 0
        for i in range(half - k + 1, half):
            j = d - k - i
            if 0 <= j <= half:
                acc += root[i] * root[j]
        root[half - k] = ((f[d - k] - acc) * inv2) % q
    candidate = tuple(root)
    return candidate if not poly_sub(f, poly_mul(candidate, candidate, q), q) else None


def is_perfect_square(f, q):
    return is_monic(f) and poly_sqrt(f, q) is not None


def chi(D, f, q):
    """Curve character chi_D(f) = (D / f); completely multiplicative in f."""
    if not is_monic(D) or degree(D) < 1:
        raise ValueError("character modulus must be monic of positive degree")
    if is_perfect_square(D, q):
        raise ValueError("character modulus must not be a perfect square")
    return jacobi_symbol(D, f, q)


def residue_symbol_product(B, A, q, table=None):
    """Factorization-backed (B / A): product of definitional prime symbols.

    Oracle counterpart of `jacobi_symbol`, used for cross-checks.
    """
    if not is_monic(A):
        raise ValueError("denominator must be monic")
    if degree(A) == 0:
        return 1
    value = 1
    for prime, mult in factorize(A, q, table).factors:
        s = residue_symbol_def(B, prime, q, table=table, check=False)
        if s == 0:
            return 0
        if mult % 2:
            value *= s
    return value
