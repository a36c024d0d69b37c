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
    mod,
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


def _kernel_dtype(q, W):
    """The signed dtype of the lockstep kernel at padded width W.

    Within a Euclid round each entry of b starts in [0, q) and each step
    of the top-down remainder takes at most (q-1)^2 from it, in at most W
    steps (a step at k reaches the deg a + 1 <= W entries below it).  So
    |b| <= (q-1) + W (q-1)^2: int8 at q = 3 up to W = 31."""
    return np.min_scalar_type(-((q - 1) + W * (q - 1) ** 2))


@lru_cache(maxsize=None)
def _unit_tables(q, dtype):
    """(sign factor, inverse) tables of one Euclid round, the inverse of
    every residue mod q cast to the kernel dtype.  The int8 sign factor at
    ((deg a & 1) * 2 + (deg r & 1)) * q + u, u the leading coefficient of
    the remainder r (0 for r = 0), folds the two sign rules of
    `jacobi_symbol`: legendre(u) when deg a is odd, times -1 when deg a and
    deg r are both odd and q = 3 mod 4.  A zero remainder gives 0, the
    symbol of a pair with a common factor."""
    legendre_of = np.array(legendre_table(q), np.int8)
    swap = -1 if (q - 1) // 2 % 2 else 1
    factor = np.concatenate([legendre_of ** 2, legendre_of ** 2,
                             legendre_of, swap * legendre_of])
    inverse = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)], dtype)
    return factor, inverse


def _degrees(cols):
    """Degree of each coefficient column (low degree first, down axis 0);
    -1 for a zero column."""
    width = cols.shape[0]
    place = np.arange(1, width + 1, dtype=np.min_scalar_type(width))[:, None]
    return ((cols != 0) * place).max(axis=0).astype(np.intp) - 1


def _top_aligned(cols, degrees):
    """Each column shifted up so that its degree-d coefficient sits in the
    last row: column j is rows d_j .. d_j + width - 1 of a copy padded with
    width - 1 zero rows below, read by one `take`."""
    width, n = cols.shape
    padded = np.zeros((2 * width - 1, n), cols.dtype)
    padded[width - 1:] = cols
    start = degrees * n + np.arange(n)  # flat index of row d_j, column j
    return padded.ravel().take(start + np.arange(0, width * n, n)[:, None])


def jacobi_symbols(B, A, q):
    """Jacobi symbols (B_i / A_i) as int8, by the algorithm of `jacobi_symbol`
    run on many pairs in numpy lockstep.

    B and A hold integer coefficients, low degree first, along their last
    axis; every A row must be monic (zero columns above its degree are
    allowed).  The leading axes broadcast like a ufunc's, so
    `jacobi_symbols(Qs[:, None], Ps[None], q)` is the (moduli x primes) grid
    without materializing the pairs.  Both inputs are reduced mod q once,
    into the kernel dtype, before the pairs go through in fixed chunks of
    CHUNK_PAIRS.
    """
    check_field(q)
    B, A = np.asarray(B), np.asarray(A)
    shape = np.broadcast_shapes(B.shape[:-1], A.shape[:-1])
    lead = shape or (1,)
    dtype = _kernel_dtype(q, max(B.shape[-1], A.shape[-1]))
    B, A = (np.broadcast_to(mod(np.array(X, np.int64), q).astype(dtype), lead + X.shape[-1:])
            for X in (B, A))
    out = np.empty(math.prod(lead), np.int8)
    for lo in range(0, len(out), CHUNK_PAIRS):
        idx = np.unravel_index(np.arange(lo, min(lo + CHUNK_PAIRS, len(out))), lead)
        out[lo:lo + CHUNK_PAIRS] = _jacobi_chunk(B[idx].T, A[idx].T, q)
    return out.reshape(shape)


def _jacobi_chunk(B, A, q):
    """`jacobi_symbols` on n pairs of coefficient columns, (kB, n) and
    (kA, n), reduced mod q and in the kernel dtype (`_kernel_dtype`).

    The pairs are held coefficient-major, a and b stacked in one
    (kA + W, n) array, so that every step works on contiguous memory.  The
    remainder of b by a is taken top down: the coefficient of x^k in b,
    reduced by `polyfield.mod`, is cancelled against a's leading term, with
    a kept top-aligned so that every pair uses the same row slices.  Pairs
    whose a has degree above k skip the step.  Only that 1-D lead is
    reduced at each step; b is reduced once per Euclid round, in place,
    when its remainder r is read.  One table lookup per round applies both
    sign rules.  A pair leaves the working set when its symbol is known:
    one `np.take` per round compacts a and r together, and they swap roles
    in place, r scaled to monic becoming the next a and a the next b.
    """
    width, n = A.shape
    W = max(B.shape[0], width)
    factor_of, inverse_of = _unit_tables(q, A.dtype)
    ab = np.zeros((width + W, n), A.dtype)
    ab[:width] = A
    ab[width:width + B.shape[0]] = B
    da = _degrees(ab[:width])
    if (ab[:width][da, np.arange(n)] != 1).any():
        raise ValueError("Jacobi symbol denominator must be monic")
    out = np.ones(n, np.int8)  # a constant denominator gives 1, whatever B is
    rows = np.flatnonzero(da > 0)
    if len(rows) < n:
        ab, da = ab[:, rows], da[rows]
    sign = np.ones(len(rows), np.int8)
    top = W - 1  # b's degree is at most this
    a_first = True  # a in ab[:width], b in the rows after it
    while len(rows):
        a, b = (ab[:width], ab[width:]) if a_first else (ab[width:], ab[:width])
        a_top = _top_aligned(a, da)
        for k in range(top, da.min() - 1, -1):
            lead = mod(b[k].copy(), q)
            lead *= da <= k
            lo = max(0, k - width + 1)
            b[lo:k + 1] -= lead * a_top[width - (k + 1 - lo):]
        r = mod(b[:width], q)
        dr = _degrees(r)
        unit = r[dr, np.arange(len(rows))]  # 0 for a zero remainder
        sign *= factor_of.take(((da & 1) * 2 + (dr & 1)) * q + unit)
        out[rows] = sign  # final for the pairs that leave now
        keep = np.flatnonzero(dr > 0)
        top = da[keep].max(initial=0)
        ab = np.take(ab[:2 * width], keep, axis=1)
        a_first = not a_first
        a = ab[:width] if a_first else ab[width:]
        a *= inverse_of.take(unit[keep])
        mod(a, q)
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
