import math
from fractions import Fraction

import numpy as np
import pytest

from hypfrob import ensemble as ens
from hypfrob import lfunction as lf
from hypfrob import linstat
from hypfrob.exact import QSqrt


def _raw_moments_per_curve(rows, tf, N, q, m):
    """Raw moments as exact means of z_statistic_exact over every row."""
    zs = [linstat.z_statistic_exact(row, tf, N, q) for row in rows]
    moments, powers = [], [QSqrt.of(q, 1)] * len(zs)
    for _ in range(m):
        powers = [p * z for p, z in zip(powers, zs)]
        moments.append(sum(powers, QSqrt.of(q, 0)) * Fraction(1, len(zs)))
    return tuple(moments)


class TestTestFunction:
    def test_triangle_values(self):
        tf = linstat.triangular(3)
        assert tf.at(0) == 1
        assert tf.at(Fraction(1, 6)) == Fraction(1, 2)
        assert tf.at(Fraction(-1, 6)) == Fraction(1, 2)  # even
        assert tf.at(Fraction(1, 3)) == 0
        assert tf.at(2) == 0
        assert tf.triangle_order == 3

    def test_parse(self):
        tf = linstat.parse_test_function("0:1,-3;1/3", name="tri")
        assert tf.at(Fraction(1, 9)) == Fraction(2, 3)
        assert tf.triangle_order == 3

    def test_parse_two_pieces(self):
        # plateau then linear descent: 1 on [0,1/4), 2-4u on [1/4,1/2)
        tf = linstat.parse_test_function("0:1;1/4:2,-4;1/2")
        assert tf.at(Fraction(1, 8)) == 1
        assert tf.at(Fraction(3, 8)) == Fraction(1, 2)
        assert tf.at(Fraction(1, 2)) == 0
        assert tf.triangle_order is None

    def test_validation(self):
        with pytest.raises(ValueError):
            linstat.TestFunction(pieces=((Fraction(0), (1, -1)),), radius=Fraction(1, 2))
        with pytest.raises(ValueError):
            linstat.TestFunction(  # discontinuous at 1/4
                pieces=((Fraction(0), (1,)), (Fraction(1, 4), (5, -10))),
                radius=Fraction(1, 2))
        with pytest.raises(ValueError):
            linstat.resolve_test_function("mystery")

    def test_resolve_custom(self):
        tf = linstat.resolve_test_function("bump", {"bump": "0:1,-2;1/2"})
        assert tf.triangle_order == 2


class TestMockGaussianReference:
    def test_triangle_m3(self):
        mean, var = linstat.mock_gaussian_reference(linstat.triangular(3))
        assert mean == Fraction(5, 6)
        assert var == Fraction(1, 27)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_against_symbolic_oracle(self, m):
        sympy = pytest.importorskip("sympy")
        u = sympy.symbols("u")
        fhat = 1 - m * u
        mean_o = 1 - sympy.integrate(fhat, (u, 0, sympy.Rational(1, m)))
        var_o = 4 * sympy.integrate(u * fhat ** 2, (u, 0, sympy.Rational(1, m)))
        mean, var = linstat.mock_gaussian_reference(linstat.triangular(m))
        assert mean == Fraction(str(mean_o))
        assert var == Fraction(str(var_o))

    def test_zero_transform_reference(self):
        tf = linstat.TestFunction(pieces=((Fraction(0), (Fraction(0),)),),
                                  radius=Fraction(1, 3), name="null")
        assert linstat.mock_gaussian_reference(tf) == (0, 0)

    def test_gaussian_moment_recursion(self):
        mean, var = Fraction(5, 6), Fraction(1, 27)
        m1, m2, m3, m4 = linstat.gaussian_raw_moments(mean, var, 4)
        assert m1 == mean
        assert m2 == mean * m1 + var
        assert m3 == mean * m2 + 2 * var * m1
        assert m4 == mean * m3 + 3 * var * m2


class TestZStatistic:
    def test_zero_transform(self):
        tf = linstat.TestFunction(pieces=((Fraction(0), (Fraction(0),)),),
                                  radius=Fraction(1, 3), name="null")
        assert linstat.z_statistic([0] * 6, tf, 4, 3) == 0.0

    def test_support_truncation(self):
        tf = linstat.triangular(3)
        N = 6
        ks = linstat.active_modes(tf, N)
        assert ks == [1]
        for k in range(2, 8):
            assert tf.at(Fraction(k, N)) == 0

    def test_missing_traces_error(self):
        tf = linstat.triangular(2)
        with pytest.raises(ValueError):
            linstat.z_statistic([1], tf, 10, 3)

    def test_exact_matches_float(self, data_g2):
        tf = linstat.triangular(3)
        for i in range(0, data_g2.count, 7):
            s = list(data_g2.s[i])
            zf = linstat.z_statistic(s, tf, 4, 3)
            ze = float(linstat.z_statistic_exact(s, tf, 4, 3))
            assert zf == pytest.approx(ze, abs=1e-12)

    def test_degenerate_support_below_first_mode(self):
        # support radius < 1/N: the statistic is the constant transform(0)
        tf = linstat.parse_test_function("0:1,-20;1/20", name="narrow")
        z = linstat.z_statistic_exact([5, -7, 3], tf, 4, 3)
        assert z.a == 1 and z.b == 0

    def test_identity_matrix_surrogate(self):
        # all phases at 0 and traces pinned at tr = 2g: both sides agree
        g, N = 2, 4
        tf = linstat.triangular(3)
        z_trace = float(tf.at(0)) + sum(
            2.0 * float(tf.at(Fraction(k, N))) * 2 * g / N
            for k in linstat.active_modes(tf, N))
        z_phase, tail = linstat.z_statistic_eigenphases([0.0] * (2 * g), tf, N)
        assert z_phase == pytest.approx(z_trace, abs=1e-12)
        assert tail == 0.0


class TestDualEvaluation:
    def test_trace_side_equals_eigenphase_side(self, data_g2):
        tf = linstat.triangular(3)
        worst = 0.0
        for i in range(data_g2.count):
            curve = data_g2.curve(i)
            (theta,), _ = lf.eigenphases([lf.complete_l(curve)], 3)
            z_trace = linstat.z_statistic(list(data_g2.s[i]), tf, 4, 3)
            z_phase, tail = linstat.z_statistic_eigenphases(theta, tf, 4)
            assert tail == 0.0
            worst = max(worst, abs(z_trace - z_phase))
        assert worst < 1e-9

    def test_truncated_kernel_within_certified_tail(self):
        tf = linstat.triangular(3)
        for theta in (0.0, 0.9, -2.2, 3.1):
            closed = linstat.periodized_kernel_triangle(3, 4, theta)
            approx, tail = linstat.periodized_kernel_truncated(tf, 4, theta, k_max=300)
            assert abs(closed - approx) <= tail

    def test_numeric_kernel_matches_closed_form_pointwise(self):
        # (1/m) sinc^2(x/m) against the numeric inverse transform
        tf = linstat.triangular(3)
        for x in (0.0, 0.37, 1.5, 4.25):
            closed = (1 / 3) * (math.sin(math.pi * x / 3) / (math.pi * x / 3)) ** 2 \
                if x else 1 / 3
            assert linstat.x_side_kernel_numeric(tf, x) == pytest.approx(closed, abs=1e-10)


class TestZMoments:
    def test_exact_moments_small_ensemble(self, data_g2):
        tf = linstat.triangular(3)
        rep = linstat.z_moments(data_g2, tf, 3)
        # oracle: accumulate the float statistic directly
        zs = [linstat.z_statistic(list(data_g2.s[i]), tf, 4, 3)
              for i in range(data_g2.count)]
        for j in (1, 2, 3):
            brute = sum(z ** j for z in zs) / len(zs)
            assert float(rep.raw_moments[j - 1]) == pytest.approx(brute, abs=1e-9)
        mean = sum(zs) / len(zs)
        brute_c2 = sum((z - mean) ** 2 for z in zs) / len(zs)
        assert float(rep.central_moments[1]) == pytest.approx(brute_c2, abs=1e-9)

    @pytest.mark.parametrize("tf", [linstat.triangular(1), linstat.triangular(3),
                                    linstat.parse_test_function("0:1;1/4:2,-4;1/2")])
    def test_exact_against_per_curve_statistic(self, data_g2, tf):
        rep = linstat.z_moments(data_g2, tf, 5)
        assert rep.raw_moments == _raw_moments_per_curve(data_g2.s.tolist(), tf, 4, 3, 5)

    def test_weight_sums_past_int64(self):
        # weights 225, 150, 25 on s_1, s_2, s_3 (scale 18): every wt * s_k
        # passes 2^63, where int64 sums of a and b would wrap
        tf = linstat.parse_test_function("0:100,-100;1", name="tall")
        w = linstat.z_weights(tf, 4, 3)
        rows = [[2 ** 60, -2 ** 60, 2 ** 62 - 1, 7]] * 3 + [[-2 ** 61, 2 ** 62, -2 ** 62, -5]]
        s = np.array(rows, np.int64)
        assert min(wt * abs(int(s[i, k - 1])) for i in range(len(rows))
                   for k, wt in w.even_terms + w.odd_terms) >= 2 ** 63
        data = ens.EnsembleData(q=3, g=2, N=4, coeffs=np.zeros((len(rows), 6), np.uint8),
                                s=s)
        rep = linstat.z_moments(data, tf, 4)
        assert rep.raw_moments == _raw_moments_per_curve(rows, tf, 4, 3, 4)

    def test_support_flag(self, data_g2):
        rep = linstat.z_moments(data_g2, linstat.triangular(2), 3)
        assert not rep.support_in_range  # radius 1/2 > 1/3
        rep = linstat.z_moments(data_g2, linstat.triangular(3), 3)
        assert rep.support_in_range

    def test_degenerate_support_gives_exact_references(self, data_g2):
        # no active modes: the statistic is identically transform(0) and all
        # central moments vanish exactly
        tf = linstat.parse_test_function("0:1,-9;1/9", name="tight")
        rep = linstat.z_moments(data_g2, tf, 3)
        assert all(cm.a == 0 and cm.b == 0 for cm in rep.central_moments[1:])
        assert rep.raw_moments[0].a == 1
