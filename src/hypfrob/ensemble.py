"""Exhaustive computations over the ensemble of monic squarefree odd-degree
polynomials: the squarefree sieve, exact averages, auxiliary Moebius and
character sums, trace-product moments, and the prime / prime-square /
higher-power decomposition of traces.

Averages and Moebius sums are sums over integer tables indexed by the
monic codes of one degree, read through the product sieve of `polyfield`.

The bulk pipeline is vectorized with numpy but stays exact: coefficients,
character values and scaled traces are small integers, sums are checked
against 64-bit bounds, and every ensemble statistic is reduced to an
integer total before any floating-point rendering.

Trace statistics sum over the trace histogram, not over curves: the
distinct rows of s_1..s_N with their curve counts.  Freshly computed data
builds it from the AGL(1, q) representatives (`AglOrbits.histogram`); any
other data (a cache read) gets the `distinct_rows` of its traces.
Totals that could pass the 64-bit bounds are Python-int sums over the
rows regrouped on the columns they read.

Traces take one route, `TraceEngine`: the explicit formula gives s_1..s_g
from chi_Q at the primes of degree <= g, inverse Newton the coefficients
A_1..A_g, the functional equation A_{g+1..2g}, and Newton's identities
s_1..s_N.  Rows go through it in fixed chunks of CHUNK_ROWS in the calling
thread, so results are bit-identical for any worker count.

The bulk path runs it on one curve per orbit of the group AGL(1, q) of
maps Q(x) -> l^-(2g+1) Q(l x + b), l != 0, which permutes the ensemble
(`agl_orbits`).  A translation x -> x+b permutes the monic primes of each
degree and keeps chi_Q, so it keeps every trace; a scaling by l is the
quadratic twist when l is not a square, so s_n -> chi(l)^n s_n with chi
the Legendre symbol of F_q.  The representative of an orbit is its least
code.  A transversal of the translation orbits is scaled by every l, which
labels each curve with its orbit and its sign chi(l); the engine traces
the representatives, and `AglOrbits.scatter` gives each curve its orbit's
row with the odd columns times its sign.  Invariants checked on every
pass, else ArithmeticError: translation orbits of size 1 or q whose sizes
sum to (q-1) q^(2g), so every curve is reached, orbit sizes dividing
q(q-1) and summing to (q-1) q^(2g), each orbit's curves splitting into
non-negative counts of each sign, s_n = 0 at odd n on orbits fixed by a
non-square l, and on each orbit the odd s_n summing to 0 over its curves.
"""

import itertools
import math
from dataclasses import astuple, dataclass, field
from fractions import Fraction

import numpy as np

from . import rmt
from .charsym import jacobi_symbols, legendre_table
from .exact import HalfPowerRational
from .lfunction import Curve, prime_symbols, symbol_power_sum
from .polyfield import (
    check_field,
    degree,
    digit_codes,
    divisor_counts,
    get_prime_table,
    irreducible_count,
    mobius_table,
    mod,
    monic_from_code,
    monic_multiple_codes,
    monic_rows,
    poly_mul,
    prime_residues,
    translates,
)

DEFAULT_BUDGET = 2_000_000
INT64_SAFE = 2 ** 62


class BudgetError(RuntimeError):
    """Requested enumeration exceeds the configured candidate budget."""


@dataclass(frozen=True)
class EnsembleSpec:
    q: int
    g: int

    def __post_init__(self):
        check_field(self.q)
        if self.g < 1:
            raise ValueError("genus must be >= 1")

    @property
    def degree(self):
        return 2 * self.g + 1

    @property
    def count(self):
        return (self.q - 1) * self.q ** (2 * self.g)

    def check_budget(self, budget=DEFAULT_BUDGET):
        candidates = self.q ** self.degree
        if candidates > budget:
            raise BudgetError(
                f"enumerating q^{self.degree} = {candidates} candidates exceeds "
                f"budget {budget}; lower g or raise the budget explicitly")


@dataclass(frozen=True)
class MomentSpec:
    """Product statistic prod_j (tr Theta^{k_j})^{a_j} with distinct k_j."""
    terms: tuple

    def __post_init__(self):
        terms = tuple(sorted((int(k), int(a)) for k, a in self.terms))
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("moment spec needs at least one (k, a) term")
        ks = [k for k, _ in terms]
        if len(set(ks)) != len(ks):
            raise ValueError("powers k_j must be distinct; fold repeats into the exponent")
        if any(k < 1 or a < 1 for k, a in terms):
            raise ValueError("powers and exponents must be >= 1")

    @classmethod
    def parse(cls, text):
        """Parse '(k,a);(k,a);...'; bare 'k' means (k, 1)."""
        terms = []
        for part in text.replace(" ", "").split(";"):
            if not part:
                continue
            item = part.strip("()")
            bits = item.split(",")
            if len(bits) == 1:
                terms.append((int(bits[0]), 1))
            elif len(bits) == 2:
                terms.append((int(bits[0]), int(bits[1])))
            else:
                raise ValueError(f"cannot parse moment term {part!r}")
        return cls(tuple(terms))

    @property
    def total(self):
        return sum(k * a for k, a in self.terms)

    @property
    def max_k(self):
        return max(k for k, _ in self.terms)

    def label(self):
        return ";".join(f"({k},{a})" for k, a in self.terms)


# -- enumeration -------------------------------------------------------------

def squarefree_codes(q, g, budget=DEFAULT_BUDGET):
    """Codes of all monic squarefree polynomials of degree 2g+1, ascending.

    Sieve: keep the codes that no P^2 divides, P prime of degree <= g; the
    count must equal (q-1) q^{2g} exactly.
    """
    spec = EnsembleSpec(q, g)
    spec.check_budget(budget)
    squares = [poly_mul(prime, prime, q) for prime in get_prime_table(q, g).primes_up_to(g)]
    codes = np.flatnonzero(divisor_counts(squares, spec.degree, q) == 0).astype(np.int64)
    if len(codes) != spec.count:
        raise ArithmeticError(
            f"squarefree sieve count {len(codes)} != {spec.count} at q={q}, g={g}")
    return codes


# -- vectorized trace engine ---------------------------------------------------

CHUNK_ROWS = 2 ** 11  # rows per kernel pass; fixed, so no result depends on it


class TraceEngine:
    """Exact batch pipeline from curve coefficients to scaled traces.

    The residue kernel, for each degree d <= g: `polyfield.prime_residues`
    gives chi_Q(P) at every degree-d prime P, and row sums give c_d, the
    sum of chi_Q over the degree-d primes, and z_d, how many divide Q.
    Those maps are memoized per (q, d, 2g+2), so only the first engine at a
    point builds tables.  Construction refuses (q, g) where their float32
    products (2g+2)(q-1)^2 reach 2^24, and N past `_check_newton_depth`.

    The explicit formula -s_n = n c_n + `_prime_power_part` gives s_n for
    n <= g; `coefficients_from_traces` and `_newton_matrix` do the rest.
    """

    def __init__(self, q, g, N):
        check_field(q)
        _check_newton_depth(q, g, N)
        self.q, self.g, self.N = q, g, N
        self.residues = [prime_residues(q, d, 2 * g + 2) for d in range(1, g + 1)]

    def coefficients(self, coeffs):
        """Completed L-coefficient rows A(0..2g), int64 exact."""
        return _map_chunks(self._coefficient_rows, coeffs)

    def traces(self, coeffs):
        """Scaled traces s_1..s_N for each coefficient row, int64 exact."""
        return _newton_matrix(self.coefficients(coeffs), self.N)

    def _symbol_sums(self, coeffs):
        """The residue kernel on one chunk: (c, z), each (rows, g+1) int64,
        with c[:, d] the sum of chi_Q and z[:, d] the number of zeros of
        chi_Q over the degree-d primes; column 0 is unused."""
        c = np.zeros((coeffs.shape[0], self.g + 1), np.int64)
        z = np.zeros_like(c)
        for d, residues in enumerate(self.residues, 1):
            chi = residues(coeffs)
            c[:, d] = chi.sum(axis=1, dtype=np.int64)
            z[:, d] = chi.shape[1] - np.count_nonzero(chi, axis=1)
        return c, z

    def _coefficient_rows(self, coeffs):
        c, z = self._symbol_sums(coeffs)
        s = np.empty((coeffs.shape[0], self.g), np.int64)
        for n in range(1, self.g + 1):
            s[:, n - 1] = -n * c[:, n] - _prime_power_part(self.q, n, c, z)
        return coefficients_from_traces(s, self.q, self.g)


def _check_newton_depth(q, g, N):
    """Refuse N where an int64 Newton partial sum could pass 2^63.

    With |A_i| <= C(2g,i) q^(i/2) and |s_m| <= 2g q^(m/2), every partial sum
    of -n A_n - sum_{i<n} A_i s_{n-i} is at most K_n q^(n/2), with
    K_n = n C(2g,n) + 2g sum_{0<i<n} C(2g,i).  That bound grows with n, so
    n = N is the one to check; at (13, 2) it allows N <= 30.

    The refusal covers the int64 sums of `prime_symbol_sums` too: with
    |d c_d|, d (pi_d - z_d) <= d pi_d <= q^d, each partial sum for degree n
    is at most 2g q^(n/2) + sum_{d <= n/2} q^d < (2g + 3/2) q^(n/2), below
    K_n q^(n/2) since K_1 = 2g (no higher powers at n = 1) and K_n >= 4g^2
    for n >= 2.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    k_n = N * math.comb(2 * g, N) + 2 * g * sum(math.comb(2 * g, i) for i in range(1, N))
    if k_n ** 2 * q ** N >= 2 ** 126:
        raise ValueError(
            f"Newton partial sums for s_{N} may reach {k_n} q^(N/2) >= 2^63 at q={q}, "
            f"g={g}; lower N")


def _prime_power_part(q, n, c, z):
    """Per row, sum over d | n, d < n, of d (c_d if n/d is odd, else pi_d - z_d):
    the prime powers' part of -s_n = n c_n + part, as chi(P)^e is chi(P)
    for odd e and 1 - [P | Q] for even e.  c and z are int64."""
    part = np.zeros(len(c), np.int64)
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            part += d * (c[:, d] if (n // d) % 2 else irreducible_count(q, d) - z[:, d])
    return part


def prime_symbol_sums(q, g, s, z):
    """c[:, n] = sum of chi over the degree-n primes, n <= N, from the traces
    s_1..s_N and the divisor counts z: n c_n = -s_n - `_prime_power_part`,
    with integrality asserted.  `_check_newton_depth` bounds its int64 sums.
    c is the transpose of an (N+1, n) array, so each column is contiguous.
    """
    N = s.shape[1]
    _check_newton_depth(q, g, N)
    z = z.astype(np.int64)
    c = np.zeros((N + 1, s.shape[0]), np.int64).T
    for n in range(1, N + 1):
        acc = -s[:, n - 1] - _prime_power_part(q, n, c, z)
        c[:, n] = acc // n
        if (c[:, n] * n != acc).any():
            raise ArithmeticError(f"prime-sum inversion not integral at n={n}")
    return c


def divisor_degree_counts(q, g, N, coeffs):
    """z[:, d] = number of distinct degree-d prime divisors of each row's Q,
    d <= N.  Degrees <= g are read at the row's code from the product sieve;
    the cofactor beyond degree g is one prime, as 2(g+1) > 2g+1, of the
    degree those leave.  z is the transpose of an (N+1, n) array, so each
    column is contiguous."""
    D = 2 * g + 1
    codes = coeffs[:, :D] @ q ** np.arange(D, dtype=np.int64)
    table = get_prime_table(q, g)
    z = np.zeros((N + 1, len(coeffs)), np.int16)
    cof_deg = np.full(len(coeffs), D, np.int64)
    for d in range(1, g + 1):
        count = divisor_counts(table.irreducibles(d), D, q)[codes]
        cof_deg -= d * count.astype(np.int64)
        if d <= N:
            z[d] = count
    rows = np.flatnonzero((cof_deg >= 1) & (cof_deg <= N))
    z[cof_deg[rows], rows] += 1
    return z.T


def _newton_matrix(A, N):
    """Vectorized Newton recursion: power sums of inverse roots per row."""
    n, width = A.shape
    d = width - 1
    p = np.zeros((n, N + 1), np.int64)
    for nn in range(1, N + 1):
        acc = (-nn) * A[:, nn] if nn <= d else np.zeros(n, np.int64)
        acc = acc.astype(np.int64, copy=True)
        for i in range(1, nn):
            if i <= d:
                acc -= A[:, i] * p[:, nn - i]
        p[:, nn] = acc
    return p[:, 1:]


def coefficients_from_traces(s, q, g):
    """Completed L-coefficient rows A(0..2g) from scaled traces s_1..s_g.

    Inverse Newton, n A_n = -(s_n + sum_{i<n} A_i s_{n-i}), with every
    division checked exact (else ArithmeticError); then the functional
    equation A_{2g-i} = q^(g-i) A_i.  By the Weil bounds on A_i and s_n no
    int64 partial sum exceeds 2g (4^g + 1) q^(g/2).
    """
    A = np.ones((s.shape[0], 2 * g + 1), np.int64)
    for n in range(1, g + 1):
        acc = s[:, n - 1].astype(np.int64, copy=True)
        for i in range(1, n):
            acc += A[:, i] * s[:, n - i - 1]
        quotient = acc // n
        if (quotient * n != acc).any():
            raise ArithmeticError(f"inverse Newton not integral at n={n}")
        A[:, n] = -quotient
    for beta in range(g + 1, 2 * g + 1):
        A[:, beta] = q ** (beta - g) * A[:, 2 * g - beta]
    return A


def _map_chunks(func, rows):
    """func over consecutive CHUNK_ROWS-row slices, stacked in order."""
    chunks = [rows[lo:lo + CHUNK_ROWS] for lo in range(0, len(rows), CHUNK_ROWS)] or [rows]
    return np.concatenate([func(chunk) for chunk in chunks])


# -- ensemble data (traces for every curve) -----------------------------------

@dataclass
class EnsembleData:
    q: int
    g: int
    N: int
    coeffs: np.ndarray  # uint8 (n, 2g+2) including the leading 1; rows in code order
    s: np.ndarray       # int64 (n, N)
    histogram: tuple = field(default=None, repr=False)  # see `trace_histogram`

    @property
    def count(self):
        return len(self.coeffs)

    def curve(self, i):
        return Curve(q=self.q, g=self.g, Q=tuple(int(c) for c in self.coeffs[i]))

    def trace_histogram(self):
        """(rows, counts), the distinct rows of `s` and their int64 curve
        counts, which every trace statistic sums over: as given, else built
        on first use as `distinct_rows(s)`."""
        if self.histogram is None:
            self.histogram = distinct_rows(self.s)
        return self.histogram


def compute_ensemble_data(q, g, N, *, budget=DEFAULT_BUDGET):
    """Traces s_1..s_N for every curve of the ensemble, in enumeration order.

    `TraceEngine` runs only on the least code of each AGL(1, q) orbit (see
    `agl_orbits`), and `AglOrbits.scatter` gives every curve chi(l)^n times
    its representative's s_n, so `s` is bit-identical to an engine pass over
    all curves; `AglOrbits.histogram` gives the trace histogram from the
    same rows.  A failed orbit invariant raises ArithmeticError.
    The chunks run in the calling thread: a thread pool lost to one thread
    at every measured point, as BLAS already threads the matmul.
    """
    D = 2 * g + 1
    codes = squarefree_codes(q, g, budget)
    coeffs = monic_rows(codes, D, q)
    engine = TraceEngine(q, g, N)
    orbits = agl_orbits(q, g, codes, coeffs)
    s_reps = engine.traces(monic_rows(orbits.reps, D, q))
    histogram = orbits.histogram(s_reps)
    return EnsembleData(q=q, g=g, N=N, coeffs=coeffs, s=orbits.scatter(s_reps),
                        histogram=histogram)


@dataclass
class AglOrbits:
    """The orbits of the ensemble under Q(x) -> l^-(2g+1) Q(l x + b).

    Per orbit: `reps`, its least code (ascending), `sizes`, its number of
    curves, `twists`, the sum of its curves' signs (both int64), and
    `fixed`, whether a non-square l fixes it.  Per curve, in ensemble row
    order: `orbit`, the index of its orbit, and `sign`, chi(l) for an l
    that carries its representative onto its translation orbit, so s_n of
    the curve is sign^n times its representative's.
    """
    reps: np.ndarray
    sizes: np.ndarray
    twists: np.ndarray
    fixed: np.ndarray
    orbit: np.ndarray
    sign: np.ndarray

    def scatter(self, s_reps):
        """Traces of every curve, in ensemble row order, from the traces of
        the representatives: each curve takes its orbit's row, with the odd
        columns times its sign.

        Raises ArithmeticError unless a fixed orbit has s_n = 0 at every odd
        n, and every orbit whose curves' signs do not sum to 0 has s_n = 0 at
        every odd n.  Summed over an orbit, the curves' s_n is that sum of
        signs times the representative's s_n; it is 0 at odd n, as a
        non-square l permutes the orbit and negates s_n there.
        """
        if s_reps[self.fixed, ::2].any():
            raise ArithmeticError("an orbit fixed by a non-square scaling has a nonzero "
                                  "odd-power trace")
        if s_reps[self.twists != 0, ::2].any():
            raise ArithmeticError("an orbit's odd-power traces do not sum to 0 over its "
                                  "curves: a twist sign is lost")
        s = s_reps.take(self.orbit, axis=0)
        s[:, ::2] *= self.sign[:, None]
        return s

    def histogram(self, s_reps):
        """The trace histogram of the ensemble from the traces of the
        representatives: `distinct_rows` of the scattered traces, without
        scattering.  An orbit has (size + twist) / 2 curves of sign 1, with
        its representative's row, and (size - twist) / 2 of sign -1, with
        that row's odd columns negated.

        Raises ArithmeticError unless those counts are non-negative integers
        summing to the number of curves.
        """
        doubled = np.concatenate((self.sizes + self.twists, self.sizes - self.twists))
        if (doubled < 0).any() or (doubled & 1).any() or int(self.sizes.sum()) != len(self.orbit):
            raise ArithmeticError(f"orbit sizes {int(self.sizes.sum())} and signed counts do "
                                  f"not split into the {len(self.orbit)} curves")
        keep = np.flatnonzero(doubled)
        rows = s_reps.take(keep, axis=0, mode="wrap")  # index r + i is row i, of sign -1
        rows[np.searchsorted(keep, len(s_reps)):, ::2] *= -1
        return distinct_rows(rows, doubled[keep] // 2)


def agl_orbits(q, g, codes, coeffs):
    """The AGL(1, q) orbits of the ensemble, whose ascending codes and
    coefficient rows are `codes` and `coeffs`.

    Q(x) -> Q(x+t) permutes the monic primes of each degree and keeps
    (Q / P), so it keeps every trace.  Q(x) -> l^-(2g+1) Q(l x), which maps
    a_i to l^(i-2g-1) a_i, is the quadratic twist by l when l is not a
    square: s_n -> chi(l)^n s_n.

    1. Transversal: one curve per translation orbit, its least code, and
       `t_of`, the transversal index of each curve's translation orbit
       (-1 where no transversal row reaches the curve).  When q does not
       divide 2g+1, a_{2g} + (2g+1) t takes every value, so each
       translation orbit has q curves and exactly one with a_{2g} = 0, the
       top digit of the code: its least curve, and the codes below q^(2g)
       are the transversal, whose translates give `t_of`.  Otherwise the
       least of the q translates of each curve marks its orbit, and is
       looked up in the transversal.
    2. Scaling: the least transversal index over the q-1 scalings of a
       transversal row is that of the least code of its orbit; the least l
       giving it yields the row's twist sign, which its translates share.
       Scaling keeps a_{2g} = 0, so when q does not divide 2g+1 the scaled
       row is itself in the transversal.
    The translation sizes are the counts of `t_of`, so they sum to the
    curve count only if every curve is reached.  Raises ArithmeticError
    when `check_orbit_sizes` fails.
    """
    D = 2 * g + 1
    row_of = np.full(q ** D, -1, np.int32)
    row_of[codes] = np.arange(len(codes), dtype=np.int32)

    def translate_codes(rows):
        return digit_codes(translates(rows, q)[:, :, :D], q)

    if D % q:
        m = int(np.searchsorted(codes, q ** (D - 1)))
        t_codes, t_coeffs = codes[:m], coeffs[:m]
        t_rows = _map_chunks(lambda rows: row_of[translate_codes(rows)], t_coeffs)
        t_of = np.full(len(codes), -1)
        t_of[t_rows] = np.arange(m)[:, None]
    else:
        canonical = _map_chunks(lambda rows: translate_codes(rows).min(axis=1), coeffs)
        keep = canonical == codes
        t_codes, t_coeffs = codes[keep], coeffs[keep]
        t_of = np.searchsorted(t_codes, canonical)
        t_of[t_codes.take(t_of, mode="clip") != canonical] = -1
    t_sizes = np.bincount(t_of[t_of >= 0], minlength=len(t_codes))

    digits = t_coeffs[:, :D]
    images = np.empty((len(t_codes), q - 1), np.int64)
    images[:, 0] = np.arange(len(t_codes))
    for l in range(2, q):
        scale = np.array([pow(l, (i - D) % (q - 1), q) for i in range(D)],
                         np.min_scalar_type((q - 1) ** 2))
        images[:, l - 1] = t_of[row_of[digit_codes(mod(digits * scale, q), q)]]
    least, rep_of = np.unique(images.min(axis=1), return_inverse=True)
    chi = np.array(legendre_table(q), np.int8)
    t_sign = chi[images.argmin(axis=1) + 1]
    sizes = np.bincount(rep_of, t_sizes).astype(np.int64)
    twists = np.bincount(rep_of, t_sizes * t_sign, len(least)).astype(np.int64)
    check_orbit_sizes(q, g, t_sizes, sizes)
    nonsquare = np.flatnonzero(chi[1:] == -1)
    fixed = (images[least][:, nonsquare] == least[:, None]).any(axis=1)
    return AglOrbits(reps=t_codes[least], sizes=sizes, twists=twists, fixed=fixed,
                     orbit=rep_of[t_of], sign=t_sign[t_of])


def check_orbit_sizes(q, g, translation_sizes, sizes):
    """Raise ArithmeticError unless the translation orbit sizes are each 1
    or q, each q when q does not divide 2g+1, the AGL orbit sizes each
    divide the group order q(q-1), and both sum to (q-1) q^(2g).

    A translation orbit has q elements or one, as q is prime.  When q does
    not divide 2g+1, the x^(2g) coefficient a_{2g} + (2g+1) t of Q(x+t)
    takes q values, so no curve is fixed; when q divides 2g+1, the
    polynomials in x^q - x are fixed.
    """
    allowed = [q] if (2 * g + 1) % q else [1, q]
    total = EnsembleSpec(q, g).count
    order = q * (q - 1)
    if not (np.isin(translation_sizes, allowed).all()
            and int(translation_sizes.sum()) == total
            and (sizes >= 1).all() and (order // sizes * sizes == order).all()
            and int(sizes.sum()) == total):
        raise ArithmeticError(
            f"orbit sizes at q={q}, g={g}: translation sizes must lie in {allowed}, "
            f"AGL sizes must divide {order}, and each must sum to {total}")


# -- exact ensemble averages ---------------------------------------------------

def ensemble_average(spec, values, budget=DEFAULT_BUDGET):
    """Exact mean over the ensemble of a functional tabulated on the monic
    codes of degree 2g+1, the last axis of `values`: a Fraction for one
    table, a list of them for a stack, summed at the squarefree codes."""
    values = _code_table(spec, values)
    return _means(values[..., squarefree_codes(spec.q, spec.g, budget)].sum(axis=-1), spec)


def moebius_decomposed_average(spec, values, budget=DEFAULT_BUDGET):
    """The same mean through the squarefree-indicator decomposition: the sum
    of mu(A) values[A^2 B] over monic A of degree <= g, read at the codes of
    the multiples of A^2.  `values` covers squarefree and other codes alike."""
    spec.check_budget(budget)
    q = spec.q
    values = _code_table(spec, values)
    total = 0
    for alpha in range(spec.g + 1):
        mu = mobius_table(alpha, q)
        for code in np.flatnonzero(mu):
            A = monic_from_code(int(code), alpha, q)
            multiples = monic_multiple_codes(poly_mul(A, A, q), spec.degree, q)
            total += int(mu[code]) * values[..., multiples].sum(axis=-1)
    return _means(total, spec)


def _code_table(spec, values):
    """`values` as int64, checked to cover the q^(2g+1) codes with entries
    below INT64_SAFE / q^(2g+1).  No int64 sum of either average passes 2^63
    then: the Moebius one adds at most q/(q-1) q^(2g+1) entries."""
    values = np.asarray(values, np.int64)
    size = spec.q ** spec.degree
    if values.shape[-1:] != (size,) or np.abs(values).max(initial=0) >= INT64_SAFE // size:
        raise ValueError(f"need an int64 table over the {size} codes of degree "
                         f"{spec.degree} with entries below {INT64_SAFE // size}")
    return values


def _means(totals, spec):
    means = [Fraction(int(t), spec.count) for t in np.ravel(totals)]
    return means if np.ndim(totals) else means[0]


# -- auxiliary sums ------------------------------------------------------------

def sigma_sum(q, degrees, alpha, representatives=None, budget=DEFAULT_BUDGET):
    """Moebius sum over monic A of degree alpha coprime to fixed distinct
    primes of the given degrees; depends only on the degree multiset."""
    degrees = tuple(degrees)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if q ** alpha > budget:
        raise BudgetError(f"a Moebius table over q^{alpha} = {q ** alpha} codes exceeds "
                          f"budget {budget}")
    if representatives is None:
        representatives = default_representatives(q, degrees)
    reps = tuple(representatives)
    if len(reps) != len(degrees) or len(set(reps)) != len(reps):
        raise ValueError("need pairwise distinct prime representatives")
    coprime = divisor_counts([P for P in reps if degree(P) <= alpha], alpha, q) == 0
    return int(mobius_table(alpha, q)[coprime].sum())


def default_representatives(q, degrees, table=None):
    """First unused prime of each requested degree, canonical order."""
    if table is None:
        table = get_prime_table(q, max(degrees, default=1))
    used = {}
    reps = []
    for d in degrees:
        idx = used.get(d, 0)
        primes = table.irreducibles(d)
        if idx >= len(primes):
            raise ValueError(f"not enough distinct primes of degree {d} (pi={len(primes)})")
        reps.append(primes[idx])
        used[d] = idx + 1
    return tuple(reps)


def multi_char_sum(q, beta, degrees, method="direct", table=None, budget=DEFAULT_BUDGET):
    """S(beta; k_1..k_n): sum over ordered tuples of pairwise distinct primes
    of the given degrees and monic B of degree beta of (B / p_1...p_n).

    The products p_1...p_n are built as one stack of rows, and the symbols
    are one `jacobi_symbols` grid over them and the monic B.  method
    'reciprocity' evaluates the coefficient-side grid (p_1...p_n / B) with
    the reciprocity sign (-1)^(((q-1)/2) * beta * sum k_i) instead; the two
    must agree exactly.
    """
    degrees = tuple(degrees)
    if table is None:
        table = get_prime_table(q, max(degrees))
    lists = [np.array(table.irreducibles(k), np.int64) for k in degrees]
    if math.prod(len(primes) for primes in lists) * q ** beta > budget:
        raise BudgetError("multiple character sum grid exceeds budget")
    if method not in ("direct", "reciprocity"):
        raise ValueError(f"unknown method {method!r}")
    # prime indices of each tuple down axis 1; equal primes need equal degrees
    tuples = np.indices([len(primes) for primes in lists]).reshape(len(lists), -1)
    for a, b in itertools.combinations(range(len(degrees)), 2):
        if degrees[a] == degrees[b]:
            tuples = tuples[:, tuples[a] != tuples[b]]
    moduli = np.ones((tuples.shape[1], 1), np.int64)
    for primes, index in zip(lists, tuples):
        factor = primes[index]
        product = np.zeros((len(moduli), moduli.shape[1] + factor.shape[1] - 1), np.int64)
        for j in range(factor.shape[1]):
            product[:, j:j + moduli.shape[1]] += moduli * factor[:, j:j + 1]
        moduli = product % q
    monics = monic_rows(np.arange(q ** beta), beta, q)
    if method == "direct":
        grid = jacobi_symbols(monics[None], moduli[:, None], q)
    else:
        grid = jacobi_symbols(moduli[:, None], monics[None], q)
    total = int(grid.sum(dtype=np.int64))
    if method == "reciprocity":
        if ((q - 1) // 2) % 2 and (beta % 2) and (sum(degrees) % 2):
            total = -total
    return total


# -- exact reductions ----------------------------------------------------------

def distinct_rows(cols, weights=None):
    """Distinct rows of an (n, m) integer array, with their multiplicities
    or summed weights.

    Returns (rows, counts): `rows` an (r, m) int64 array of the distinct
    rows in ascending lexicographic order (column 0 most significant), and
    `counts` the int64 number of input rows equal to each, or, given
    `weights` of shape (n,) or (n, w), their int64 sum over those rows.  A
    weighted sum over the input rows of any function of these columns is
    then a sum over `rows` weighted by `counts`, which is far shorter
    because traces repeat heavily: the trace histogram is `distinct_rows`
    of the traces, and weights regroup it on the columns a statistic
    reads.

    The columns (any integer dtype with int64 values) are folded into one
    int64 key per row, in mixed radix: key = key * span_j + (col_j - min_j)
    with span_j = max_j - min_j + 1, which orders the keys as the rows.
    Rank rule: a column whose span reaches INT64_SAFE is replaced by its
    rank among its distinct values, and where the key's range times span_j
    would reach INT64_SAFE the running key is replaced by its rank among the
    distinct keys so far (then the column too, if that is still not enough:
    both ranges are then at most n < 2^31).  Ranks keep the order, so one
    sort of the keys (in place, or an argsort to carry weights) groups the
    rows; `divmod` and the rank tables decode each distinct key back into
    its row.
    """
    n, m = cols.shape
    if weights is not None:
        weights = np.asarray(weights, np.int64)
    if n == 0 or m == 0:
        groups = min(n, 1)
        counts = (np.full(groups, n, np.int64) if weights is None
                  else weights.sum(axis=0, keepdims=True)[:groups])
        return np.zeros((groups, m), np.int64), counts
    key = None
    radix = 1   # every key lies in [0, radix)
    steps = []  # per column: (span, min, value table, table of the keys before it)
    for j in range(m):
        col = cols[:, j]
        lo, hi = int(col.min()), int(col.max())
        span, values, keys = hi - lo + 1, None, None
        if span >= INT64_SAFE:
            values, col = np.unique(col, return_inverse=True)
            lo, span = 0, len(values)
        if radix * span >= INT64_SAFE:
            keys, key = np.unique(key, return_inverse=True)
            radix = len(keys)
            if radix * span >= INT64_SAFE and values is None:
                values, col = np.unique(col, return_inverse=True)
                lo, span = 0, len(values)
        digit = col.astype(np.int64)
        digit -= lo
        if key is None:
            key = digit
        else:
            key *= span
            key += digit
        radix *= span
        steps.append((span, lo, values, keys))
    if weights is None:
        key.sort()
    else:
        order = key.argsort()
        key = key[order]
    new = np.empty(n, bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = (np.diff(starts, append=n) if weights is None
              else np.add.reduceat(weights[order], starts, axis=0))
    code = key[starts]
    rows = np.empty((len(code), m), np.int64)
    for j in reversed(range(m)):
        span, lo, values, keys = steps[j]
        code, digit = np.divmod(code, span)
        rows[:, j] = digit + lo if values is None else values[digit]
        if keys is not None:
            code = keys[code]
    return rows, counts


# -- trace-product moments -----------------------------------------------------

def trace_product_total(rows, mspec, counts):
    """Integer total of prod s_{k_j}^{a_j} over trace rows, row i counted
    counts[i] times (int64), overflow-guarded.  int64 when
    n * prod max|s_k|^a_j stays below INT64_SAFE, n = sum(counts) the curve
    count, else Python ints over the rows regrouped on the spec's own
    columns."""
    n = int(counts.sum())
    prod = counts
    bound = 1
    safe = True
    for k, a in mspec.terms:
        col = rows[:, k - 1]
        colmax = max(int(np.abs(col).max()), 1)
        for _ in range(a):
            bound *= colmax
            if bound >= INT64_SAFE // max(n, 1):
                safe = False
                break
            prod = prod * col
        if not safe:
            break
    if safe:
        return int(prod.sum(dtype=np.int64))
    rows, counts = distinct_rows(rows[:, [k - 1 for k, _ in mspec.terms]], counts)
    total = 0
    for row, count in zip(rows.tolist(), counts.tolist()):
        term = count
        for v, (_k, a) in zip(row, mspec.terms):
            term *= v ** a
        total += term
    return total


def squares_prediction(q, mspec):
    """Finite-size prediction for the trace-product mean from prime squares:
    the binomial-count main term, exact in pi_q.

    For odd k the half-degree binomial is empty: the t >= 1 terms vanish."""
    result = Fraction(1)
    for k, a in mspec.terms:
        pi_k = irreducible_count(q, k)
        pi_half = irreducible_count(q, k // 2) if k % 2 == 0 else None
        term = Fraction(0)
        for i in range(a // 2 + 1):
            t = a - 2 * i
            if k % 2 == 1:
                choose_half = 1 if t == 0 else 0
            else:
                choose_half = math.comb(pi_half, t) if t <= pi_half else 0
            if choose_half == 0:
                continue
            piece = (Fraction(math.comb(a, 2 * i))
                     * Fraction(math.factorial(2 * i), 2 ** i)
                     * math.factorial(t)
                     * Fraction(k) ** (2 * i)
                     * Fraction(-k, 2) ** t
                     * math.comb(pi_k, i)
                     * choose_half)
            term += piece
        if term == 0:
            return Fraction(0)
        # term != 0 forces k*a even (odd k survives only through t = 0, a = 2i)
        result *= term * Fraction(1, q ** ((k * a) // 2))
    return result


@dataclass
class EnsembleReport:
    q: int
    g: int
    curves: int
    spec: MomentSpec
    total: int
    empirical: HalfPowerRational
    squares: Fraction
    rmt_moment: rmt.RmtMoment
    dev_vs_squares: float
    dev_vs_rmt: float
    in_range: bool


def trace_product_moment(data, mspec):
    """Exact empirical mean of the trace product, with the finite-size
    squares prediction and the matrix-integral asymptote attached."""
    if mspec.max_k > data.N:
        raise ValueError(f"traces available through N={data.N}, need k={mspec.max_k}")
    rows, counts = data.trace_histogram()
    total = trace_product_total(rows, mspec, counts)
    empirical = HalfPowerRational.from_scaled_integer(
        data.q, total, data.count, mspec.total)
    squares = squares_prediction(data.q, mspec)
    moment = rmt.usp_moment_exact(mspec.terms, data.g)
    emp_f = float(empirical)
    return EnsembleReport(
        q=data.q, g=data.g, curves=data.count, spec=mspec, total=total,
        empirical=empirical, squares=squares, rmt_moment=moment,
        dev_vs_squares=abs(emp_f - float(squares)),
        dev_vs_rmt=abs(emp_f - float(moment.value)),
        in_range=mspec.total <= 2 * data.g - 1)


# -- decomposition of traces ---------------------------------------------------

@dataclass(frozen=True)
class TermDecomposition:
    """Split of -tr Theta^k for one curve, in scaled-integer form.

    Each part is an integer in units of q^(-k/2):
    prime_part + square_part + higher_part == -s_k exactly.
    """
    prime_symbol_sum: int     # sum of chi over degree-k primes
    prime_part: int
    square_part: int
    higher_part: int

    @classmethod
    def from_symbols(cls, symbols, k):
        """The split from a `prime_symbols` pass through degree >= k, each
        part an int64 array over the moduli (0 for a part with no terms)."""
        prime_sum = symbol_power_sum(symbols, k, 1)
        return cls(
            prime_symbol_sum=prime_sum,
            prime_part=k * prime_sum,
            square_part=(k // 2) * symbol_power_sum(symbols, k // 2, 2) if k % 2 == 0 else 0,
            higher_part=sum((k // e) * symbol_power_sum(symbols, k // e, e)
                            for e in range(3, k + 1) if k % e == 0))


def term_decomposition(curve, k, table=None):
    """Per-curve prime / prime-square / higher-power split of -tr Theta^k,
    by direct character sums (definitional path), in ints."""
    split = TermDecomposition.from_symbols(prime_symbols(curve.row, curve.q, k, table), k)
    return TermDecomposition(*(int(np.asarray(part).item()) for part in astuple(split)))


@dataclass
class DecompositionData:
    """Bulk per-curve divisor counts and prime symbol sums alongside traces."""
    data: EnsembleData
    z: np.ndarray  # (n, N+1) int16
    c: np.ndarray  # (n, N+1) int64

    @classmethod
    def build(cls, data):
        z = divisor_degree_counts(data.q, data.g, data.N, data.coeffs)
        c = prime_symbol_sums(data.q, data.g, data.s, z)
        return cls(data=data, z=z, c=c)


@dataclass
class PrimeTermReport:
    q: int
    g: int
    k: int
    l: int
    curves: int
    p_power_mean: Fraction      # <(P_k)^(2l)>
    delta2_mean: Fraction       # <Delta(2, k)>
    p2_tuple_mean: Fraction     # <P(2, k)> (ordered pairs)
    reference: int              # k, the leading value of <Delta(2, k)>


def prime_term_moment(decomp, k, l):
    """Exact ensemble means of (P_k)^(2l) and Delta(2,k); the l=1 reference
    value is k."""
    data = decomp.data
    q, n = data.q, data.count
    if k > data.N:
        raise ValueError("k beyond available traces")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    values, counts = distinct_rows(decomp.c[:, k:k + 1])
    groups = list(zip(values[:, 0].tolist(), counts.tolist()))
    # sum over curves of pi_k - z_k, in Python ints: n pi_k passes 2^63 at
    # (3, 1) from k = 41 on; the int64 sum of z_k is at most n (2g+1)
    unit_total = n * irreducible_count(q, k) - int(decomp.z[:, k].sum(dtype=np.int64))
    if l == 0:
        p_power = Fraction(1)
    else:
        tot = sum(cnt * v ** (2 * l) for v, cnt in groups)
        p_power = Fraction(k ** (2 * l) * tot, n * q ** (l * k))
    delta2 = Fraction(k ** 2 * unit_total, n * q ** k)
    # ordered distinct pairs: (sum chi)^2 - sum chi^2
    pair_tot = sum(cnt * v * v for v, cnt in groups) - unit_total
    p2_tuple = Fraction(k ** 2 * pair_tot, n * q ** k)
    return PrimeTermReport(q=q, g=data.g, k=k, l=l, curves=n,
                           p_power_mean=p_power, delta2_mean=delta2,
                           p2_tuple_mean=p2_tuple, reference=k)
