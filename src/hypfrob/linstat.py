"""Linear statistics of eigenphases against Fourier-side test functions.

Test functions live on the Fourier side as even piecewise polynomials with
compact support; the counting statistic needs only samples of that
transform at integer fractions k/N, so the ensemble path is exact: each
per-curve value is (a + b sqrt(q))/scale with integer a, b, and moments
are accumulated in integer arithmetic before any float rendering.

The eigenphase-side (dual) evaluation reconstructs the spatial kernel.
For the built-in triangular family the periodized kernel has a closed
form; for general shapes a truncated sum with a certified tail bound is
provided.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensemble import INT64_SAFE, distinct_rows
from .exact import QSqrt


@dataclass(frozen=True)
class TestFunction:
    """Even piecewise-polynomial Fourier transform on [-radius, radius].

    `pieces` lists (start, coeffs) for the right half; each piece is a
    polynomial in u valid on [start, next_start).  The function must be
    continuous and vanish at the support edge.
    """
    pieces: tuple  # ((Fraction start, (Fraction c0, c1, ...)), ...)
    radius: Fraction
    name: str = "custom"

    def __post_init__(self):
        pieces = tuple((Fraction(s), tuple(Fraction(c) for c in cs))
                       for s, cs in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "radius", Fraction(self.radius))
        if not pieces or pieces[0][0] != 0:
            raise ValueError("pieces must start at 0")
        starts = [s for s, _ in pieces]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("piece breakpoints must increase")
        if starts[-1] >= self.radius:
            raise ValueError("last piece must start before the support radius")
        # continuity across breakpoints and a zero at the edge
        for (s0, c0), (s1, _c1) in zip(pieces, pieces[1:]):
            if _poly_at(c0, s1) != self.at(s1):
                raise ValueError(f"discontinuity at breakpoint {s1}")
        if _poly_at(pieces[-1][1], self.radius) != 0:
            raise ValueError("transform must vanish at the support edge")

    def at(self, u):
        """Exact value at a rational point (evenness built in)."""
        u = abs(Fraction(u))
        if u >= self.radius:
            return Fraction(0)
        value = Fraction(0)
        for start, coeffs in self.pieces:
            if u >= start:
                value = _poly_at(coeffs, u)
            else:
                break
        return value

    @property
    def triangle_order(self):
        """m when this is the triangular transform max(0, 1 - m|u|), else None."""
        if len(self.pieces) != 1:
            return None
        coeffs = self.pieces[0][1]
        if len(coeffs) != 2 or coeffs[0] != 1:
            return None
        m = -coeffs[1]
        if m > 0 and m.denominator == 1 and self.radius == Fraction(1, m):
            return int(m)
        return None


def triangular(m):
    """The triangular family: transform max(0, 1 - m|u|), support 1/m."""
    if m < 1:
        raise ValueError("triangle order must be >= 1")
    return TestFunction(pieces=((Fraction(0), (Fraction(1), Fraction(-m))),),
                        radius=Fraction(1, m), name=f"triangular:{m}")


def parse_test_function(text, name="custom"):
    """Parse 'start:c0,c1,...;start:c0,...;radius' with rational entries.

    Example (triangle of order 3): '0:1,-3;1/3'.
    """
    parts = [p for p in text.strip().split(";") if p]
    if len(parts) < 2:
        raise ValueError("need at least one piece and the support radius")
    pieces = []
    for part in parts[:-1]:
        start, _, coeffs = part.partition(":")
        pieces.append((Fraction(start), tuple(Fraction(c) for c in coeffs.split(","))))
    return TestFunction(pieces=tuple(pieces), radius=Fraction(parts[-1]), name=name)


def resolve_test_function(label, custom=None):
    """Built-in names ('triangular:m') or a definition from `custom` mapping."""
    if custom and label in custom:
        defn = custom[label]
        return defn if isinstance(defn, TestFunction) else parse_test_function(defn, label)
    if label.startswith("triangular"):
        _, _, m = label.partition(":")
        return triangular(int(m) if m else 3)
    raise ValueError(f"unknown test function {label!r}")


# -- exact polynomial-piece integration ----------------------------------------

def _poly_at(coeffs, u):
    u = Fraction(u)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _poly_definite_integral(coeffs, lo, hi):
    acc = Fraction(0)
    for i, c in enumerate(coeffs):
        acc += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return acc


def _integrate_pieces(tf, weight, upper):
    """Exact integral over [0, min(radius, upper)] of weight * piece products.

    weight maps a piece-coefficient tuple to another coefficient tuple.
    """
    total = Fraction(0)
    bounds = [s for s, _ in tf.pieces] + [tf.radius]
    for (start, coeffs), end in zip(tf.pieces, bounds[1:]):
        lo, hi = start, min(end, Fraction(upper))
        if hi <= lo:
            continue
        total += _poly_definite_integral(weight(coeffs), lo, hi)
    return total


def mock_gaussian_reference(tf):
    """Exact (mean, variance) of the limiting Gaussian for the statistic:
    mean = transform(0) - int_0^1 transform, variance = 2 int |u| transform^2
    over [-1/2, 1/2]."""
    mean = tf.at(0) - _integrate_pieces(tf, lambda c: c, 1)
    variance = 4 * _integrate_pieces(
        tf, lambda c: _poly_mul((Fraction(0), Fraction(1)), _poly_mul(c, c)),
        Fraction(1, 2))
    return mean, variance


def gaussian_raw_moments(mean, variance, m):
    """Raw Gaussian moments via M_{j+1} = mean M_j + j var M_{j-1}."""
    mean, variance = Fraction(mean), Fraction(variance)
    moments = [Fraction(1), mean]
    for j in range(1, m):
        moments.append(mean * moments[j] + j * variance * moments[j - 1])
    return tuple(moments[1:m + 1])


# -- the counting statistic -----------------------------------------------------

def active_modes(tf, N):
    """Fourier modes k >= 1 inside the support window; everything at or
    beyond N * radius contributes exactly zero."""
    ks = []
    k = 1
    while Fraction(k, N) < tf.radius:
        ks.append(k)
        k += 1
    return ks


@dataclass(frozen=True)
class ZWeights:
    """Integer weights: scale * Z = a + b sqrt(q) with
    a = base + sum even_w[k] s_k, b = sum odd_w[k] s_k."""
    q: int
    N: int
    scale: int
    base: int
    even_terms: tuple  # ((k, weight), ...)
    odd_terms: tuple

    def parts(self, s):
        """(a, b) as Python ints for one row of scaled traces s_1, s_2, ..."""
        a = self.base + sum(wt * int(s[k - 1]) for k, wt in self.even_terms)
        b = sum(wt * int(s[k - 1]) for k, wt in self.odd_terms)
        return a, b


def z_weights(tf, N, q):
    ks = active_modes(tf, N)
    coeffs = {}
    for k in ks:
        w = 2 * tf.at(Fraction(k, N)) / N / q ** ((k + 1) // 2 if k % 2 else k // 2)
        coeffs[k] = w
    f0 = tf.at(0)
    scale = math.lcm(f0.denominator, *(w.denominator for w in coeffs.values())) \
        if coeffs else f0.denominator
    even_terms = tuple((k, int(coeffs[k] * scale)) for k in ks if k % 2 == 0)
    odd_terms = tuple((k, int(coeffs[k] * scale)) for k in ks if k % 2 == 1)
    return ZWeights(q=q, N=N, scale=scale, base=int(f0 * scale),
                    even_terms=even_terms, odd_terms=odd_terms)


def z_statistic(s, tf, N, q):
    """Counting statistic from scaled traces: transform(0) + (2/N) sum over
    k >= 1 of transform(k/N) s_k / q^(k/2)."""
    ks = active_modes(tf, N)
    if ks and len(s) < ks[-1]:
        raise ValueError(f"need traces through k={ks[-1]}, have {len(s)}")
    total = float(tf.at(0))
    for k in ks:
        total += 2.0 * float(tf.at(Fraction(k, N))) * s[k - 1] / (N * q ** (k / 2.0))
    return total


def z_statistic_exact(s, tf, N, q):
    """Exact statistic as QSqrt using the integer weight form."""
    w = z_weights(tf, N, q)
    a, b = w.parts(s)
    return QSqrt(q, Fraction(a, w.scale), Fraction(b, w.scale))


# -- eigenphase-side (dual) evaluation -------------------------------------------

def periodized_kernel_triangle(m, N, theta):
    """Closed form of sum_k f(N(theta/2pi - k)) for the triangular family,
    where f is the Fejer-type kernel (1/m) sinc^2(x/m):

        (1/(m N^2)) sum_{r=0}^{m-1} [sin(N v_r)/sin(v_r)]^2,
        v_r = (pi/m)(theta/2pi - r).
    """
    t = theta / (2.0 * np.pi)
    total = 0.0
    for r in range(m):
        v = (np.pi / m) * (t - r)
        ratio = N * np.sinc(N * v / np.pi) / np.sinc(v / np.pi)
        total += ratio * ratio
    return total / (m * N * N)


def x_side_kernel_numeric(tf, x):
    """Spatial kernel by numeric inverse transform 2 int_0^r fhat(u) cos(2 pi u x) du."""
    from scipy.integrate import quad
    total = 0.0
    bounds = [s for s, _ in tf.pieces] + [tf.radius]
    for (start, coeffs), end in zip(tf.pieces, bounds[1:]):
        val, _err = quad(lambda u: sum(float(c) * u ** i for i, c in enumerate(coeffs)),
                         float(start), float(end), weight="cos", wvar=2.0 * np.pi * x)
        total += 2.0 * val
    return total


def x_side_decay_constant(tf):
    """C with |kernel(x)| <= C / x^2, from two integrations by parts:
    C = 2 (sum of |derivative jumps| + int |second derivative|) / (2 pi)^2."""
    jump_total = abs(_poly_at(_poly_deriv(tf.pieces[0][1]), 0))  # boundary term at 0
    second_total = Fraction(0)
    prev_deriv_at = None
    bounds = [s for s, _ in tf.pieces] + [tf.radius]
    for idx, ((start, coeffs), end) in enumerate(zip(tf.pieces, bounds[1:])):
        d1 = _poly_deriv(coeffs)
        d2 = _poly_deriv(d1)
        second_total += _poly_abs_sup(d2, start, end) * (end - start)
        if idx > 0:
            jump_total += abs(_poly_at(d1, start) - prev_deriv_at)
        prev_deriv_at = _poly_at(d1, end)
    jump_total += abs(prev_deriv_at)  # jump to zero at the support edge
    return float(2 * (jump_total + second_total)) / (2.0 * np.pi) ** 2


def _poly_deriv(coeffs):
    return tuple(c * (i + 1) for i, c in enumerate(coeffs[1:]))


def _poly_abs_sup(coeffs, lo, hi):
    if not coeffs:
        return Fraction(0)
    # crude but safe: sum of |c_i| * max(|lo|,|hi|)^i
    m = max(abs(lo), abs(hi))
    return sum(abs(c) * m ** i for i, c in enumerate(coeffs))


def periodized_kernel_truncated(tf, N, theta, k_max=200):
    """Truncated sum over integer shifts with a certified tail bound."""
    t = theta / (2.0 * np.pi)
    total = 0.0
    for k in range(-k_max, k_max + 1):
        total += x_side_kernel_numeric(tf, N * (t - k))
    C = x_side_decay_constant(tf)
    tail = 2.0 * C / (N * N * (k_max - 0.5))
    return total, tail


def z_statistic_eigenphases(thetas, tf, N, k_max=200):
    """Dual evaluation: sum of the periodized spatial kernel over phases.

    Exact closed form for the triangular family; otherwise a truncated sum
    whose tail bound is returned alongside.
    """
    m = tf.triangle_order
    if m is not None:
        return sum(periodized_kernel_triangle(m, N, t) for t in thetas), 0.0
    total, tail = 0.0, 0.0
    for t in thetas:
        v, e = periodized_kernel_truncated(tf, N, t, k_max)
        total += v
        tail += e
    return total, tail


# -- ensemble moments -------------------------------------------------------------

@dataclass
class ZMomentReport:
    q: int
    g: int
    tf_name: str
    curves: int
    support_in_range: bool          # radius <= 1/m
    raw_moments: tuple              # QSqrt, exact
    central_moments: tuple          # QSqrt, exact
    mean_ref: Fraction
    variance_ref: Fraction
    references: tuple               # raw Gaussian reference moments, Fractions
    deviations: tuple               # |raw - reference| as floats


def z_moments(data, tf, m):
    """First m raw and central moments of the statistic over the ensemble,
    exactly accumulated, with Gaussian reference moments attached."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    q, g, n = data.q, data.g, data.count
    N = 2 * g
    w = z_weights(tf, N, q)
    ks = active_modes(tf, N)
    if ks and data.N < ks[-1]:
        raise ValueError(f"need traces through k={ks[-1]}, have N={data.N}")
    # the active modes are 1..ks[-1]: the trace histogram regrouped on those
    # columns, with a and b per row in int64 while every partial sum stays
    # below INT64_SAFE, else in Python ints (the weights grow like q^(N/2))
    rows, counts = data.trace_histogram()
    rows, counts = distinct_rows(rows[:, :len(ks)], counts)
    bound = abs(w.base) + sum(abs(wt) * int(np.abs(rows[:, k - 1]).max(initial=1))
                              for k, wt in w.even_terms + w.odd_terms)
    if bound < INT64_SAFE:
        a = np.full(len(rows), w.base, np.int64)
        b = np.zeros(len(rows), np.int64)
        for part, part_terms in ((a, w.even_terms), (b, w.odd_terms)):
            for k, wt in part_terms:
                part += wt * rows[:, k - 1]
        parts = zip(a.tolist(), b.tolist())
    else:
        parts = map(w.parts, rows.tolist())
    sums = _qsqrt_power_sums(parts, counts.tolist(), q, m)
    scale = w.scale
    raw = []
    for j in range(1, m + 1):
        u, v = sums[j]
        raw.append(QSqrt(q, Fraction(u, n * scale ** j), Fraction(v, n * scale ** j)))
    mean = raw[0] if raw else QSqrt.of(q, 0)
    central = []
    for j in range(1, m + 1):
        acc = QSqrt.of(q, 0)
        for i in range(j + 1):
            mi = QSqrt.of(q, 1) if i == 0 else raw[i - 1]
            acc = acc + math.comb(j, i) * mi * _qsqrt_int_pow(-1 * mean, j - i)
        central.append(acc)
    mean_ref, var_ref = mock_gaussian_reference(tf)
    refs = gaussian_raw_moments(mean_ref, var_ref, m)
    devs = tuple(abs(float(rm) - float(rf)) for rm, rf in zip(raw, refs))
    return ZMomentReport(
        q=q, g=g, tf_name=tf.name, curves=n,
        support_in_range=tf.radius <= Fraction(1, m),
        raw_moments=tuple(raw), central_moments=tuple(central),
        mean_ref=mean_ref, variance_ref=var_ref,
        references=refs, deviations=devs)


def _qsqrt_int_pow(x, e):
    out = QSqrt.of(x.q, 1)
    for _ in range(e):
        out = out * x
    return out


def _qsqrt_power_sums(parts, counts, q, m):
    """sums[j] = (sum of count * a', sum of count * b') over rows (a, b),
    where (a + b sqrt q)^j = a' + b' sqrt q, in exact integer arithmetic."""
    sums = {j: [0, 0] for j in range(1, m + 1)}
    for (a, b), count in zip(parts, counts):
        pa, pb = 1, 0
        for j in range(1, m + 1):
            pa, pb = pa * a + q * pb * b, pa * b + pb * a
            sums[j][0] += count * pa
            sums[j][1] += count * pb
    return {j: (u, v) for j, (u, v) in sums.items()}
