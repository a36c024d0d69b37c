"""Arithmetic in F_p[x] for an odd prime p, irreducible tables, residue fields.

Polynomials are tuples of ints in [0, p), lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple ().  All routines
are pure functions of their arguments and exact over the integers.

The canonical order on monic polynomials of a fixed degree d is
lexicographic on the coefficient sequence read from the x^(d-1)
coefficient down to the constant term.  Equivalently it is ascending in
the integer code

    code(f) = sum_{i < d} f[i] * p^i

over the non-leading coefficients.  Enumeration, prime tables and the
choice of extension moduli all follow this order.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

ZERO = ()
ONE = (1,)


def is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_field(p):
    """Validate the base field modulus (odd prime)."""
    if not isinstance(p, int) or not is_odd_prime(p):
        raise ValueError(f"field size must be an odd prime, got {p!r}")
    return p


def poly(coeffs, p):
    """Build a polynomial from an integer coefficient iterable (low degree first)."""
    return normalize(tuple(c % p for c in coeffs))


def normalize(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def degree(f):
    """Degree of f; -1 flags the zero polynomial."""
    return len(f) - 1


def is_zero(f):
    return not f


def constant(c, p):
    c %= p
    return (c,) if c else ZERO


def leading(f):
    if not f:
        raise ValueError("zero polynomial has no leading coefficient")
    return f[-1]


def is_monic(f):
    return bool(f) and f[-1] == 1


def poly_add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return normalize(tuple(out))


def poly_neg(f, p):
    return tuple((-c) % p for c in f)


def poly_sub(f, g, p):
    return poly_add(f, poly_neg(g, p), p)


def poly_mul(f, g, p):
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return tuple(c % p for c in out)


def poly_divmod(f, g, p):
    """Euclidean division: f = q*g + r with deg r < deg g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return ZERO, f
    inv_lead = pow(g[-1], -1, p)
    rem = list(f)
    dq = len(f) - len(g)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = (rem[k + len(g) - 1] * inv_lead) % p
        if c:
            quo[k] = c
            for j, b in enumerate(g):
                rem[k + j] = (rem[k + j] - c * b) % p
    return normalize(tuple(quo)), normalize(tuple(rem[: len(g) - 1]))


def poly_mod(f, g, p):
    return poly_divmod(f, g, p)[1]


def make_monic(f, p):
    """Return (monic associate, unit) with f = unit * monic."""
    if not f:
        raise ValueError("zero polynomial has no monic associate")
    u = f[-1]
    if u == 1:
        return f, 1
    inv = pow(u, -1, p)
    return tuple((c * inv) % p for c in f), u


def poly_gcd(f, g, p):
    """Monic gcd; gcd(f, 0) is the monic associate of f."""
    while g:
        f, g = g, poly_mod(f, g, p)
    if not f:
        raise ValueError("gcd(0, 0) is undefined")
    return make_monic(f, p)[0]


def derivative(f, p):
    """Formal derivative; terms with index divisible by p vanish."""
    return normalize(tuple((i * f[i]) % p for i in range(1, len(f))))


def poly_eval(f, a, p):
    y = 0
    for c in reversed(f):
        y = (y * a + c) % p
    return y


def poly_pow_mod(f, e, mod, p):
    """f^e mod `mod` by square and multiply."""
    result = ONE
    base = poly_mod(f, mod, p)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


# -- arrays of residues -------------------------------------------------------

def mod(a, p):
    """Reduce the integer array `a` mod the positive int `p` in place, into
    [0, p), and return it: a -= p * (a // p), with one temporary.

    numpy's `%` by a scalar is many times slower than its `//` on narrow
    integer arrays.  This form is exact at every integer dtype that holds p: the
    result lies in [0, p), and any wrap in p * (a // p) cancels in the
    subtraction."""
    multiple = a // p
    multiple *= p
    a -= multiple
    return a


# -- canonical enumeration ---------------------------------------------------

def monic_from_code(code, d, p):
    coeffs = []
    for _ in range(d):
        code, c = divmod(code, p)
        coeffs.append(c)
    coeffs.append(1)
    return tuple(coeffs)


def monic_polys(d, p):
    """All monic polynomials of degree d in canonical order."""
    for code in range(p ** d):
        yield monic_from_code(code, d, p)


def codes_to_digits(codes, length, p):
    """(n, length) array of the base-p digits of each code, lowest first."""
    out = np.empty((len(codes), length), np.min_scalar_type(p - 1))
    rest = codes.astype(np.int64, copy=True)
    for i in range(length):
        quotient = rest // p
        out[:, i] = rest - p * quotient
        rest = quotient
    return out


def monic_rows(codes, d, p):
    """(n, d+1) coefficient rows, lowest first, of the monic polynomials of
    degree d with the given codes."""
    rows = np.ones((len(codes), d + 1), np.min_scalar_type(p - 1))
    rows[:, :d] = codes_to_digits(codes, d, p)
    return rows


def _float32_bound(k, p):
    """k (p-1)^2, the largest entry of a product of length-k digit rows and
    columns mod p; refused where float32 would not hold it exactly."""
    bound = k * (p - 1) ** 2
    if bound >= 2 ** 24:
        raise ValueError(f"matmul entries reach k(p-1)^2 = {bound} >= 2^24 at p={p}, k={k}; "
                         f"float32 would not hold them exactly")
    return bound


def matmul_mod(rows, matrix, p):
    """rows @ matrix mod p, for digit arrays with entries in [0, p), in the
    smallest unsigned dtype that holds the products.

    One float32 matmul: exact, as its entries are integers of at most
    k (p-1)^2, k the inner length, and refused where that reaches 2^24.
    """
    bound = _float32_bound(matrix.shape[0], p)
    out = rows.astype(np.float32) @ matrix.astype(np.float32, copy=False)
    return mod(out.astype(np.min_scalar_type(bound)), p)


def translates(rows, p):
    """Digit rows f(x+t), t = 0..p-1, of the coefficient rows f (lowest
    first) of the (n, k) array `rows`, as an (n, p, k) array: f(x+t) has
    coefficients sum_i f_i C(i, j) t^(i-j) mod p, one `matmul_mod`
    against `_translate_matrix`."""
    n, k = rows.shape
    return matmul_mod(rows, _translate_matrix(p, k), p).reshape(n, p, k)


@functools.lru_cache(maxsize=None)
def _translate_matrix(p, k):
    """The k x pk stack of the binomial matrices C(i, j) t^(i-j) mod p of
    x^i -> (x+t)^i, t = 0..p-1, as float32."""
    return np.array([[[math.comb(i, j) * t ** (i - j) % p if j <= i else 0
                       for j in range(k)] for t in range(p)] for i in range(k)],
                    np.float32).reshape(k, p * k)


def digit_codes(digits, p):
    """The code sum_i digits[..., i] p^i of each digit row, int64."""
    code = digits[..., -1].astype(np.int64)
    for i in range(digits.shape[-1] - 2, -1, -1):
        code *= p
        code += digits[..., i]
    return code


def monic_multiple_codes(f, D, p):
    """Codes of the monic multiples f*B of degree D, ascending in the code of B.

    With k = D - deg f, f*B = x^k f + sum_{i<k} b_i x^i f, so the digit rows
    of the multiples are the F_p-span of the shifted copies x^i f over the
    fixed row x^k f: one broadcast add reduced mod p per coefficient b_i.
    """
    e = degree(f)
    k = D - e
    if not is_monic(f) or k < 0:
        raise ValueError(f"need a monic polynomial of degree <= {D}")
    dtype = np.min_scalar_type((p - 1) ** 2)
    shifted = np.zeros((k + 1, D + 1), dtype)
    for i in range(k + 1):
        shifted[i, i:i + e + 1] = f
    scale = np.arange(p, dtype=dtype)[:, None]
    rows = shifted[k:, :D]
    for i in range(k - 1, -1, -1):
        step = mod(scale * shifted[i, :D], p)
        rows = mod(rows[:, None, :] + step, p).reshape(-1, D)
    return rows @ p ** np.arange(D, dtype=np.int64)


def divisor_counts(fs, D, p):
    """How many of the monic polynomials `fs` divide each monic polynomial
    of degree D: a uint8 array indexed by code, from the product sieve."""
    counts = np.zeros(p ** D, np.uint8)
    for f in fs:
        counts[monic_multiple_codes(f, D, p)] += 1
    return counts


def mobius_table(d, p):
    """The Moebius function on the monic polynomials of degree d, an int8
    array indexed by code, from the product sieve: 0 where a prime square
    divides, else (-1)^(number of prime divisors)."""
    table = get_prime_table(p, max(d, 1))
    mu = 1 - 2 * (divisor_counts(table.primes_up_to(d), d, p) & 1).astype(np.int8)
    mu[divisor_counts([poly_mul(P, P, p) for P in table.primes_up_to(d // 2)], d, p) > 0] = 0
    return mu


# -- factorization -----------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """Complete factorization f = unit * prod(prime^mult)."""
    unit: int
    factors: tuple  # ((prime, mult), ...) in canonical prime order

    def reassemble(self, p):
        out = constant(self.unit, p)
        for prime, mult in self.factors:
            for _ in range(mult):
                out = poly_mul(out, prime, p)
        return out


def _mobius_int(n):
    m, cnt, d = n, 0, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            cnt += 1
        d += 1
    if m > 1:
        cnt += 1
    return (-1) ** cnt


def irreducible_count(q, n):
    """Number of monic irreducibles of degree n over F_q (divisor Moebius sum)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = sum(_mobius_int(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    count, rem = divmod(total, n)
    if rem:
        raise ArithmeticError(f"irreducible count formula not integral at q={q}, n={n}")
    return count


class PrimeTable:
    """Monic irreducibles of F_q[x] by degree, in canonical order.

    Immutable after construction.  `build` sieves each degree d: every
    product P*B with P a prime of degree <= d/2 is reducible, and what is
    left is prime; the count is cross-checked against the closed form.
    """

    def __init__(self, q, max_degree, by_degree):
        self.q = q
        self.max_degree = max_degree
        self.by_degree = by_degree  # degree -> tuple of polys
        self.counts = {d: len(ps) for d, ps in by_degree.items()}

    @classmethod
    def build(cls, q, max_degree):
        check_field(q)
        by_degree = {}
        for d in range(1, max_degree + 1):
            small = [prime for e in range(1, d // 2 + 1) for prime in by_degree[e]]
            codes = np.flatnonzero(divisor_counts(small, d, q) == 0)
            if len(codes) != irreducible_count(q, d):
                raise ArithmeticError(
                    f"irreducible sieve mismatch at q={q}, degree {d}: "
                    f"{len(codes)} found, {irreducible_count(q, d)} expected")
            by_degree[d] = tuple(map(tuple, monic_rows(codes, d, q).tolist()))
        return cls(q, max_degree, by_degree)

    def irreducibles(self, n):
        if n < 1 or n > self.max_degree:
            raise ValueError(f"degree {n} outside table range 1..{self.max_degree}")
        return self.by_degree[n]

    def first_irreducible(self, n):
        return self.irreducibles(n)[0]

    def is_irreducible(self, f):
        d = degree(f)
        if d < 1:
            return False
        if not is_monic(f):
            f = make_monic(f, self.q)[0]
        return factorize(f, self.q, self).factors == ((f, 1),)

    def primes_up_to(self, max_deg):
        for d in range(1, max_deg + 1):
            yield from self.irreducibles(d)


_prime_tables = {}


def get_prime_table(q, max_degree):
    """Per-process memo of prime tables; grows monotonically per q."""
    cached = _prime_tables.get(q)
    if cached is None or cached.max_degree < max_degree:
        cached = PrimeTable.build(q, max_degree)
        _prime_tables[q] = cached
    return cached


def factorize(f, p, table=None):
    """Factor a nonzero polynomial into monic irreducibles with multiplicities."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    monic, unit = make_monic(f, p)
    d = degree(monic)
    if table is None or table.max_degree < d // 2:
        table = get_prime_table(p, max(1, d // 2))
    factors = []
    rest = monic
    for e in range(1, d // 2 + 1):
        if degree(rest) < 2 * e:
            break
        for prime in table.irreducibles(e):
            if degree(rest) < e:
                break
            mult = 0
            while True:
                quo, rem = poly_divmod(rest, prime, p)
                if rem:
                    break
                rest = quo
                mult += 1
            if mult:
                factors.append((prime, mult))
    if degree(rest) >= 1:
        # all factors of degree <= d//2 removed, so the cofactor is prime
        factors.append((rest, 1))
    return Factorization(unit=unit, factors=tuple(factors))


def is_squarefree(f, p):
    """Squarefree test: gcd(f, f') constant, with a factorization fallback
    for the vanishing-derivative branch."""
    if not f:
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    if degree(f) == 0:
        return True
    fp = derivative(f, p)
    if not fp:
        return all(m == 1 for _, m in factorize(f, p).factors)
    return degree(poly_gcd(f, fp, p)) == 0


def mobius(f, p):
    """Moebius function on monic polynomials."""
    if not f:
        raise ValueError("Moebius function is undefined at zero")
    if not is_monic(f):
        raise ValueError("Moebius function expects a monic polynomial")
    if degree(f) == 0:
        return 1
    fact = factorize(f, p)
    if any(m > 1 for _, m in fact.factors):
        return 0
    return (-1) ** len(fact.factors)


def von_mangoldt(f, p):
    """deg P if f = P^k for a prime P, else 0."""
    if not f or not is_monic(f):
        raise ValueError("von Mangoldt expects a nonzero monic polynomial")
    if degree(f) == 0:
        return 0
    fact = factorize(f, p)
    if len(fact.factors) == 1:
        return degree(fact.factors[0][0])
    return 0


# -- residue fields ------------------------------------------------------------

class ResidueField:
    """F_q[x]/(P) for a monic prime P of degree d, on base-q digit rows.

    An element is a row of d digits in [0, q), lowest first; its residue
    code is sum_i digit_i q^i, the order of `codes_to_digits`.  Arrays of
    elements carry the digits on their last axis.  `chars` holds the
    quadratic character by residue code.
    """

    def __init__(self, prime, q):
        check_field(q)
        if not is_monic(prime) or degree(prime) < 1:
            raise ValueError("residue field needs a monic prime of degree >= 1")
        self.q, self.prime, self.d = q, prime, degree(prime)
        self.size = q ** self.d
        # `mul` of two reduced rows sums d^2 terms of at most (q-1)^3 before `mod`
        self.dtype = np.min_scalar_type(-self.d ** 2 * (q - 1) ** 3)
        self._fold = self.rows(2 * self.d - 1).astype(self.dtype)
        elements = self.elements()
        chars = np.full(self.size, -1, np.int8)
        chars[self.codes(self.mul(elements, elements))] = 1
        chars[0] = 0
        if np.count_nonzero(chars == 1) != (self.size - 1) // 2:
            raise ArithmeticError("square table has wrong cardinality; modulus not prime?")
        self.chars = chars

    def rows(self, n):
        """The rows x^i mod P, i = 0..n-1, as an (n, d) int64 matrix."""
        tail = np.array(poly_neg(self.prime[:self.d], self.q), np.int64)  # x^d mod P
        rows = np.zeros((n, self.d), np.int64)
        rows[:1, 0] = 1
        for i in range(1, n):
            rows[i, 1:] = rows[i - 1, :-1]
            rows[i] += rows[i - 1, -1] * tail
            mod(rows[i], self.q)
        return rows

    def elements(self):
        """Every element, in residue-code order."""
        return codes_to_digits(np.arange(self.size), self.d, self.q)

    def codes(self, a):
        """The residue code of each digit row of `a`, int64."""
        return digit_codes(a, self.q)

    def mul(self, a, b):
        """Products of digit rows, broadcast over the leading axes: the digit
        convolution sum_i a_i x^i b, each x^i b reduced through the rows
        x^k mod P, so only arrays of b's size are reduced."""
        a, b = np.asarray(a, self.dtype), np.asarray(b, self.dtype)
        out = a[..., :1] * (b @ self._fold[:self.d])
        for i in range(1, self.d):
            out += a[..., i:i + 1] * (b @ self._fold[i:i + self.d])
        return mod(out, self.q)

    def evaluate(self, coeffs, x):
        """Horner: each row of the (m, k) stack `coeffs` (F_q coefficients,
        low degree first) at each row of the (n, d) elements `x`, as an
        (m, n, d) array."""
        columns = np.asarray(coeffs, self.dtype).T[:, :, None]
        acc = np.zeros((columns.shape[1],) + x.shape, self.dtype)
        acc[..., 0] = columns[-1]
        for c in columns[-2::-1]:
            acc = self.mul(acc, x)
            acc[..., 0] += c
            mod(acc[..., 0], self.q)
        return acc


@functools.lru_cache(maxsize=None)
def prime_residues(q, d, width):
    """The map from an (n, width) stack of coefficient rows Q (lowest first)
    to the (n, pi_d) int8 array of chi_Q(P) = (Q / P) over the monic primes
    P of degree d, in table order.

    The digits of Q mod P are Q's row times the rows x^i mod P: one
    `matmul_mod` against those rows stacked over every P, refused before
    any table is built where its products reach 2^24.  Their residue code
    is a flat index into the stacked `ResidueField.chars`.
    """
    _float32_bound(width, q)
    fields = [ResidueField(prime, q) for prime in get_prime_table(q, d).irreducibles(d)]
    reduction = np.hstack([field.rows(width) for field in fields]).astype(np.float32)
    chars = np.concatenate([field.chars for field in fields])
    base = q ** d * np.arange(len(fields))

    def residues(rows):
        digits = matmul_mod(rows, reduction, q).reshape(len(rows), len(fields), d)
        return chars.take(digit_codes(digits, q) + base)
    return residues
