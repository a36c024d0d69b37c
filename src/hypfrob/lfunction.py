"""Exact L-data of the curves y^2 = Q(x): Dirichlet coefficients, completed
polynomial, Frobenius traces by two independent routes, eigenphases, point
counts.

One calling convention: every L-data route takes a stack of rows, a 2-D
array with one modulus or L-polynomial per row (low degree first), and
returns arrays over the rows, whatever their number; a 1-D argument is
refused.  The character sums run on the batched Jacobi kernel of
`charsym`, the counts on one Horner pass over a `polyfield.ResidueField`,
the phases on one batched eigenvalue call over companion matrices.  The
per-curve oracles `complete_l` and `traces_explicit` run these routes on
the one-row stack `Curve.row` and return Python ints.

All character sums and coefficients are exact integers; floating point
enters only in eigenphase extraction.  The scaled trace s_n equals the
power sums of the inverse roots of the completed polynomial, so that
s_n = q^(n/2) tr(Theta^n) and, by the explicit character-sum route,
s_n = -(von Mangoldt weighted sum of chi_Q over monic f of degree n).
The point count over F_{q^n} is q^n + 1 - s_n.  The routes are compared
exactly in the tests, which pins the sign convention.
"""

import math
from fractions import Fraction
from dataclasses import dataclass

import numpy as np

from . import polyfield as pf
from .charsym import jacobi_symbols
from .polyfield import degree, get_prime_table, is_monic, is_squarefree

ROOT_MAGNITUDE_TOL = 1e-9
SQUAREFREE_TEST_PRIME = 2 ** 61 - 1


class FunctionalEquationError(ArithmeticError):
    """Completed-coefficient symmetry violated; an arithmetic bug, not data."""


class RootMagnitudeError(ArithmeticError):
    """A completed-polynomial root left the critical circle beyond tolerance."""


@dataclass(frozen=True)
class Curve:
    """y^2 = Q(x) with Q monic squarefree of degree 2g+1 over F_q."""
    q: int
    g: int
    Q: tuple

    def __post_init__(self):
        pf.check_field(self.q)
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        if not is_monic(self.Q) or degree(self.Q) != 2 * self.g + 1:
            raise ValueError("curve polynomial must be monic of degree 2g+1")
        if not is_squarefree(self.Q, self.q):
            raise ValueError("curve polynomial must be squarefree")

    @classmethod
    def from_coeffs(cls, q, coeffs):
        Q = pf.poly(coeffs, q)
        d = degree(Q)
        if d < 3 or d % 2 == 0:
            raise ValueError("curve polynomial must have odd degree >= 3")
        return cls(q=q, g=(d - 1) // 2, Q=Q)

    @property
    def row(self):
        """Q as a one-row stack, the argument of the stacked routes."""
        return np.array([self.Q], np.int64)


def _stack(rows):
    """A stacked route's argument as an array, refused unless it is 2-D:
    one modulus or polynomial per row."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected an (m, k) stack of rows, got shape {rows.shape}")
    return rows


def dirichlet_coefficients(Q, q, strategy="funceq"):
    """A(beta) = sum of chi_Q over monic B of degree beta, beta = 0..2g, for
    Q monic of degree 2g+1; exact integers (they vanish beyond 2g).

    `Q` is a stack of moduli of one degree, an (m, 2g+2) array of
    coefficient rows (low degree first); the result is an (m, 2g+1) int64
    array.  Each degree beta is one `jacobi_symbols` pass over the moduli
    and the monic B.

    strategy 'funceq' enumerates beta <= g and completes the upper half by
    the coefficient symmetry; 'enumerate' sums every degree directly (test
    oracle).
    """
    if strategy not in ("funceq", "enumerate"):
        raise ValueError(f"unknown strategy {strategy!r}")
    stack = _stack(Q)
    if stack.shape[1] % 2 or stack.shape[1] < 4:
        raise ValueError("moduli must have odd degree 2g+1 >= 3")
    g = (stack.shape[1] - 2) // 2
    cut = 2 * g if strategy == "enumerate" else g
    coeffs = np.zeros((len(stack), 2 * g + 1), np.int64)
    coeffs[:, 0] = 1
    for beta in range(1, cut + 1):
        monics = pf.monic_rows(np.arange(q ** beta), beta, q)
        coeffs[:, beta] = jacobi_symbols(stack[:, None], monics[None], q).sum(axis=1)
    for beta in range(cut + 1, 2 * g + 1):
        coeffs[:, beta] = q ** (beta - g) * coeffs[:, 2 * g - beta]
    return coeffs


def symmetry_failure(A, q, g):
    """Why the coefficients A(0..2g) break the functional equation
    A_0 = 1, A_beta = q^(beta-g) A_(2g-beta), or None where they keep it."""
    if A[0] != 1:
        return "constant coefficient must be 1"
    for beta in range(g, 2 * g + 1):
        expected = q ** (beta - g) * A[2 * g - beta]
        if A[beta] != expected:
            return f"coefficient symmetry fails at beta={beta}: {A[beta]} != {expected}"
    return None


def complete_l(curve, A=None):
    """The completed L-polynomial of one curve, as a tuple of ints: its
    Dirichlet coefficients A(0..2g), checked against the functional
    equation, whose residual must vanish exactly.  The moduli have odd
    degree 2g+1, so there is no trivial zero to remove.
    """
    q, g = curve.q, curve.g
    if A is None:
        A = dirichlet_coefficients(curve.row, q)[0]
    A = tuple(int(a) for a in A)
    if len(A) != 2 * g + 1:
        raise ValueError("need coefficients for beta = 0 .. 2g")
    failure = symmetry_failure(A, q, g)
    if failure:
        raise FunctionalEquationError(failure)
    return A


def newton_power_sums(coeffs, N):
    """Power sums p_n of the inverse roots of 1 + c_1 u + ... + c_d u^d.

    Exact integer recursion p_n = -n c_n - sum_{i<n} c_i p_{n-i}, with
    c_i = 0 beyond the polynomial degree.
    """
    d = len(coeffs) - 1
    c = list(coeffs) + [0] * max(0, N - d)
    p = [0] * (N + 1)
    for n in range(1, N + 1):
        acc = -n * c[n] if n <= d else 0
        for i in range(1, n):
            if i <= d and c[i]:
                acc -= c[i] * p[n - i]
        p[n] = acc
    return p[1:]


def prime_symbols(D, q, n, table=None):
    """(D/P) for every prime P of degree <= n: entry d holds the degree-d
    primes' symbols in table order, entry 0 is empty.  The character sums
    over prime powers below reduce this pass.

    `D` is a stack of monic moduli, a 2-D array of coefficient rows (low
    degree first); entry d is an (m, pi_d) int8 array.  Each degree is one
    `jacobi_symbols` pass over the moduli and the primes.
    """
    if table is None:
        table = get_prime_table(q, n)
    stack = _stack(D)
    return [np.zeros((len(stack), 0), np.int8)] + [
        jacobi_symbols(stack[:, None], np.array(table.irreducibles(d))[None], q)
        for d in range(1, n + 1)]


def symbol_power_sum(symbols, d, e):
    """Sum of (D/P)^e over the degree-d primes of a `prime_symbols` pass,
    an int64 array over the moduli: the symbol sum for odd e, the count of
    primes not dividing D for even e."""
    s = symbols[d]
    return (s if e % 2 else s * s).sum(axis=-1, dtype=np.int64)


def explicit_sum(symbols, n):
    """Sum over prime powers P^e of degree n of (deg P) (D/P)^e, an int64
    array over the moduli of a `prime_symbols` pass through degree >= n."""
    return sum(d * symbol_power_sum(symbols, d, n // d)
               for d in range(1, n + 1) if n % d == 0)


def traces_explicit(curve, N, table=None):
    """s_n = -(von Mangoldt weighted character sum of degree n), n = 1..N,
    exact, as a list of ints."""
    symbols = prime_symbols(curve.row, curve.q, N, table)
    return [-int(explicit_sum(symbols, n)[0]) for n in range(1, N + 1)]


def _qpoly_normalize(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return list(f)


def _qpoly_divmod(f, g):
    f, g = _qpoly_normalize(f), _qpoly_normalize(g)
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        k = len(f) - len(g)
        quo[k] = c
        for j, b in enumerate(g):
            f[k + j] -= c * b
        f = _qpoly_normalize(f[:-1])
        if not f:
            break
    return _qpoly_normalize(quo), f


def _qpoly_gcd(f, g):
    f, g = _qpoly_normalize(f), _qpoly_normalize(g)
    while g:
        f, g = g, _qpoly_divmod(f, g)[1]
    return [c / f[-1] for c in f]


def _qpoly_deriv(f):
    return [i * f[i] for i in range(1, len(f))]


def squarefree_factors(coeffs):
    """Yun decomposition over Q: [(factor coefficients, multiplicity)].

    Exact rational arithmetic; repeated roots are separated before any
    numerical work so the root-finder only ever sees simple roots.
    """
    f = [Fraction(c) for c in coeffs]
    d = _qpoly_gcd(f, _qpoly_deriv(f))
    if len(d) == 1:
        return [(f, 1)]
    out = []
    b = _qpoly_divmod(f, d)[0]
    c = _qpoly_divmod(_qpoly_deriv(f), d)[0]
    i = 1
    while len(b) > 1:
        delta = _qpoly_normalize(
            [x - y for x, y in
             zip(c + [Fraction(0)] * len(b), _qpoly_deriv(b) + [Fraction(0)] * len(c))])
        a = _qpoly_gcd(b, delta) if delta else list(b)
        if len(a) > 1:
            out.append((a, i))
        b = _qpoly_divmod(b, a)[0]
        c = _qpoly_divmod(delta, a)[0] if delta else []
        i += 1
    return out


def _squarefree_mod(coeffs, p):
    """Whether the integer polynomial f keeps its degree mod the prime p and
    is squarefree there.  Then f is squarefree over Q: a repeated factor
    h^2 | f, h primitive, would keep its degree mod p and make h divide
    gcd(f, f') mod p."""
    f = pf.poly(coeffs, p)
    return len(f) == len(coeffs) and is_squarefree(f, p)


def _polished_roots(coeffs):
    """Roots of each simple-root polynomial of the (m, d+1) stack `coeffs`
    (low degree first, nonzero leading entry), as an (m, d) complex array:
    one batched eigenvalue call on the companion matrices, each built as
    `np.roots` builds it, then 3 Newton steps."""
    cf = np.asarray(coeffs, float)
    k = cf.shape[1]
    p = cf[:, ::-1]
    companion = np.zeros((len(cf), k - 1, k - 1))
    companion[:, np.arange(1, k - 1), np.arange(k - 2)] = 1.0
    companion[:, 0, :] = -p[:, 1:] / p[:, :1]
    roots = np.linalg.eigvals(companion).astype(complex)
    # coefficients down axis 0, each row's against its own roots (tensor=False)
    by_power = cf.T[..., None]
    deriv_by_power = (cf[:, 1:] * np.arange(1, k)).T[..., None]
    for _ in range(3):
        vals = np.polynomial.polynomial.polyval(roots, by_power, tensor=False)
        ders = np.polynomial.polynomial.polyval(roots, deriv_by_power, tensor=False)
        step = np.where(ders != 0, vals / np.where(ders != 0, ders, 1.0), 0.0)
        roots = roots - step
    return roots


def eigenphases(L, q):
    """Angles theta_j in (-pi, pi], sorted, with completed-polynomial roots
    q^(-1/2) e^(-i theta_j).

    `L` is a stack of completed rows of one degree 2g, an (m, 2g+1)
    array.  The result is an (m, 2g) float array and a dict mapping each
    row with a root off the critical circle to its RootMagnitudeError
    (that row's phases are NaN).

    Each distinct row is solved once.  A row is squarefree over Q when it
    keeps its degree and is squarefree mod SQUAREFREE_TEST_PRIME, which
    divides neither the leading coefficient q^g nor 2g; those rows go
    through one batched `_polished_roots`.  The other rows are split
    exactly first (multiple roots would cost the companion matrix half its
    digits), and each factor goes through the same polish.  Root magnitudes
    must sit on the critical circle within ROOT_MAGNITUDE_TOL; violations
    are reported rather than clamped.
    """
    rows, inverse = np.unique(_stack(L), axis=0, return_inverse=True)
    d = rows.shape[1] - 1
    simple = np.array([_squarefree_mod(row, SQUAREFREE_TEST_PRIME) for row in rows.tolist()], bool)
    roots = np.empty((len(rows), d), complex)
    if simple.any():
        roots[simple] = _polished_roots(rows[simple])
    for i in np.flatnonzero(~simple).tolist():
        split = np.concatenate([np.repeat(_polished_roots([factor])[0], mult)
                                for factor, mult in squarefree_factors(rows[i].tolist())])
        if len(split) != d:
            raise ArithmeticError("root multiplicities do not add up to the degree")
        roots[i] = split
    target = q ** -0.5
    magnitudes = np.abs(roots)
    off = np.abs(magnitudes - target) > ROOT_MAGNITUDE_TOL
    errors = {}
    for i in np.flatnonzero(off.any(axis=1)).tolist():
        errors[i] = RootMagnitudeError(
            f"root magnitude {magnitudes[i, np.argmax(off[i])]:.12g} vs {target:.12g} "
            f"exceeds tolerance")
    theta = -np.angle(roots * q ** 0.5)
    theta[theta <= -math.pi] += 2 * math.pi  # a root on the negative real axis: pi, not -pi
    theta[list(errors)] = np.nan
    theta = np.sort(theta, axis=1)
    inverse = inverse.reshape(-1)
    return theta[inverse], {j: errors[i] for j, i in enumerate(inverse.tolist()) if i in errors}


def traces_from_eigenphases(theta, q, N):
    """Float reconstruction q^(n/2) sum_j e^(i n theta_j), n = 1..N; conjugate
    pairing makes the result real.  `theta` is an (m, 2g) stack of phase
    rows; the result is an (m, N) array."""
    theta = _stack(theta).astype(float)
    n = np.arange(1, N + 1)
    return q ** (n / 2) * np.exp(1j * n[:, None] * theta[:, None, :]).sum(axis=-1).real


def point_count_direct(Q, q, n):
    """Points of y^2 = Q(x) over F_{q^n}: one at infinity plus 1 + chi(Q(x))
    for each x, with F_{q^n} the `ResidueField` of the first degree-n prime.

    `Q` is a stack of polynomials of one degree, a 2-D array of
    coefficient rows (low degree first); the result is an int64 array over
    the rows.  One Horner pass evaluates every row at every element, and
    the field's character table is read at the values.
    """
    field = pf.ResidueField(get_prime_table(q, n).first_irreducible(n), q)
    values = field.evaluate(_stack(Q), field.elements())
    return 1 + field.size + field.chars[field.codes(values)].sum(axis=1, dtype=np.int64)
