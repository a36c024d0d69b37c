import cmath
import itertools
import math
import random

import numpy as np
import pytest

from hypfrob import lfunction as lf
from hypfrob.charsym import jacobi_symbol, jacobi_symbols, residue_symbol_def
from hypfrob.ensemble import compute_ensemble_data
from hypfrob import polyfield as pf


EXAMPLE = lf.Curve.from_coeffs(3, (1, 2, 0, 1))  # y^2 = x^3 + 2x + 1


class TestCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            lf.Curve(q=3, g=1, Q=(0, 0, 0, 1))      # x^3 is not squarefree
        with pytest.raises(ValueError):
            lf.Curve(q=3, g=1, Q=(1, 0, 1))          # even degree
        with pytest.raises(ValueError):
            lf.Curve(q=3, g=1, Q=(1, 2, 0, 2))       # not monic
        with pytest.raises(ValueError):
            lf.Curve(q=4, g=1, Q=(1, 2, 0, 1))       # composite field size


class TestDirichletCoefficients:
    def test_example_curve(self):
        A = lf.dirichlet_coefficients(EXAMPLE.row, 3)
        assert A.dtype == np.int64 and A.tolist() == [[1, 3, 3]]

    def test_constant_coefficient_always_one(self, data_g2):
        assert (lf.dirichlet_coefficients(data_g2.coeffs[::17], 3)[:, 0] == 1).all()

    def test_strategies_agree(self, data_g2):
        assert np.array_equal(lf.dirichlet_coefficients(data_g2.coeffs, 3, strategy="enumerate"),
                              lf.dirichlet_coefficients(data_g2.coeffs, 3, strategy="funceq"))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            lf.dirichlet_coefficients(EXAMPLE.row, 3, strategy="magic")


class TestStackedPasses:
    def test_stack_rows_match_single_moduli(self, data_g2):
        # each row of a stacked pass against the scalar Jacobi symbol and
        # the sum of (Q/B) over the monic B of each degree
        sample = data_g2.coeffs[::7]
        symbols = lf.prime_symbols(sample, 3, 4)
        A = lf.dirichlet_coefficients(sample, 3, strategy="enumerate")
        assert A.shape == (len(sample), 5)
        table = pf.get_prime_table(3, 4)
        for j, Q in enumerate(sample.tolist()):
            for d in range(1, 5):
                assert symbols[d][j].tolist() == [jacobi_symbol(tuple(Q), P, 3)
                                                  for P in table.irreducibles(d)]
            assert A[j].tolist() == [sum(jacobi_symbol(tuple(Q), B, 3)
                                         for B in pf.monic_polys(beta, 3))
                                     for beta in range(5)]

    def test_even_degree_moduli_rejected(self):
        with pytest.raises(ValueError, match="odd degree"):
            lf.dirichlet_coefficients([(1, 0, 1)], 3)

    @pytest.mark.parametrize("route", [
        lambda: lf.dirichlet_coefficients(EXAMPLE.Q, 3),
        lambda: lf.prime_symbols(EXAMPLE.Q, 3, 2),
        lambda: lf.eigenphases((1, 3, 3), 3),
        lambda: lf.traces_from_eigenphases((2.6, -2.6), 3, 2),
        lambda: lf.point_count_direct(EXAMPLE.Q, 3, 1),
    ], ids=["dirichlet_coefficients", "prime_symbols", "eigenphases",
            "traces_from_eigenphases", "point_count_direct"])
    def test_a_one_dimensional_argument_is_refused(self, route):
        with pytest.raises(ValueError, match=r"\(m, k\) stack"):
            route()


class TestCompleteL:
    def test_example_polynomial(self):
        A = lf.complete_l(EXAMPLE)
        assert A == (1, 3, 3) and all(type(a) is int for a in A)

    def test_leading_coefficient_on_random_curves(self, data_g2):
        rng = random.Random(50)
        for _ in range(50):
            curve = data_g2.curve(rng.randrange(data_g2.count))
            assert lf.complete_l(curve)[4] == 3 ** 2

    def test_symmetry_violation_detected(self):
        with pytest.raises(lf.FunctionalEquationError):
            lf.complete_l(EXAMPLE, [1, 3, 4])


class TestTraces:
    def test_explicit_first_trace(self):
        s = lf.traces_explicit(EXAMPLE, 1)
        assert s == [-3] and type(s[0]) is int

    def test_newton_example(self):
        # 1 + 3u + 3u^2: p1 = -c1, p2 = c1^2 - 2 c2
        assert lf.newton_power_sums((1, 3, 3), 2) == [-3, 3]

    def test_paths_agree_everywhere(self, data_g1, data_g2):
        for data in (data_g1, data_g2):
            N = 2 * data.g + 2
            for i in range(data.count):
                curve = data.curve(i)
                assert lf.traces_explicit(curve, N) == lf.newton_power_sums(lf.complete_l(curve), N)

    def test_one_symbol_per_prime(self, monkeypatch):
        calls = []

        def counting(B, A, q):
            out = jacobi_symbols(B, A, q)
            denominators = np.broadcast_to(A, out.shape + A.shape[-1:])
            calls.extend(map(tuple, denominators.reshape(-1, A.shape[-1]).tolist()))
            return out

        monkeypatch.setattr(lf, "jacobi_symbols", counting)
        curve = lf.Curve.from_coeffs(3, (1, 2, 0, 0, 0, 1))  # x^5 + 2x + 1
        N = 6
        s = lf.traces_explicit(curve, N)
        table = pf.get_prime_table(3, N)
        assert sorted(calls) == sorted(table.primes_up_to(N))
        assert len(calls) == sum(pf.irreducible_count(3, d) for d in range(1, N + 1)) == 196
        monkeypatch.undo()
        assert s == lf.newton_power_sums(lf.complete_l(curve), N)

    def test_coefficients_beyond_degree_contribute_nothing(self):
        A = lf.complete_l(EXAMPLE)
        assert lf.newton_power_sums(A + (0, 0, 0), 6) == lf.newton_power_sums(A, 6)

    def test_unitarity_bound(self, data_g2):
        for i in range(data_g2.count):
            for n, sn in enumerate(data_g2.s[i], start=1):
                assert int(sn) ** 2 <= (2 * 2) ** 2 * 3 ** n


class TestEigenphases:
    def test_example_phases(self):
        (theta,), errors = lf.eigenphases([lf.complete_l(EXAMPLE)], 3)
        expected = 5 * math.pi / 6
        assert errors == {}
        assert theta[0] == pytest.approx(-expected, abs=1e-12)
        assert theta[1] == pytest.approx(expected, abs=1e-12)

    def test_phase_sum_matches_first_trace(self, data_g2):
        for i in range(0, data_g2.count, 11):
            (theta,), _ = lf.eigenphases([lf.complete_l(data_g2.curve(i))], 3)
            total = sum(cmath.exp(1j * t) for t in theta)
            assert abs(total.imag) < 1e-9
            assert total.real * math.sqrt(3) == pytest.approx(int(data_g2.s[i][0]), abs=1e-9)

    def test_negative_real_root_has_phase_pi(self):
        # x^5 + 4x over F_5 has L = (1 - 5u^2)^2: double roots u = +-5^(-1/2)
        from hypfrob.harness import _reflect_phase
        A = lf.complete_l(lf.Curve.from_coeffs(5, (0, 4, 0, 0, 0, 1)))
        assert A == (1, 0, -10, 0, 25)
        (theta,), errors = lf.eigenphases([A], 5)
        assert errors == {}
        assert theta.tolist() == pytest.approx((0.0, 0.0, math.pi, math.pi), abs=1e-12)
        assert all(-math.pi < t <= math.pi for t in theta)
        assert np.sort(_reflect_phase(theta)) == pytest.approx(theta, abs=1e-12)

    def test_modular_squarefree_test_agrees_with_yun(self, data_g2, data_q5g1, monkeypatch):
        # every L-polynomial at (3, 2) and (5, 1), all squarefree, and the
        # square (1 - 5u^2)^2 of x^5 + 4x over F_5; the phases do not depend
        # on which route decided squarefreeness
        polys = [(tuple(row), data.q) for data in (data_g2, data_q5g1)
                 for row in lf.dirichlet_coefficients(data.coeffs, data.q).tolist()]
        polys.append(((1, 0, -10, 0, 25), 5))
        fast = [lf._squarefree_mod(A, lf.SQUAREFREE_TEST_PRIME) for A, _q in polys]
        assert fast == [lf.squarefree_factors(A) == [(list(A), 1)] for A, _q in polys]
        assert fast.count(False) == 1
        phases = [lf.eigenphases([A], q)[0].tolist() for A, q in polys]
        monkeypatch.setattr(lf, "_squarefree_mod", lambda *_args: False)
        assert phases == [lf.eigenphases([A], q)[0].tolist() for A, q in polys]

    def test_phases_in_half_open_range(self, data_g2, data_q5g1):
        for data in (data_g2, data_q5g1):
            for i in range(data.count):
                (theta,), _ = lf.eigenphases([lf.complete_l(data.curve(i))], data.q)
                assert all(-math.pi < t <= math.pi for t in theta)

    def test_phase_count(self, data_g2):
        for i in range(0, data_g2.count, 23):
            theta, _ = lf.eigenphases([lf.complete_l(data_g2.curve(i))], 3)
            assert theta.shape == (1, 4)

    def test_magnitude_violation_aborts(self):
        # 1 + 4u + 3u^2 = (1 + u)(1 + 3u) passes the symmetry check at the
        # middle coefficient but has roots off the critical circle, |u| = 1
        # and 1/3 against 3^(-1/2); the error names one of them
        theta, errors = lf.eigenphases([(1, 4, 3)], 3)
        assert list(errors) == [0] and isinstance(errors[0], lf.RootMagnitudeError)
        assert np.isnan(theta).all()
        assert str(errors[0]) in {f"root magnitude {m:.12g} vs {3 ** -0.5:.12g} exceeds tolerance"
                                  for m in (1, 1 / 3)}

    def test_summary_reconstruction(self, data_g1):
        for i in range(data_g1.count):
            A = lf.complete_l(data_g1.curve(i))
            s = lf.newton_power_sums(A, 4)
            (recon,) = lf.traces_from_eigenphases(lf.eigenphases([A], 3)[0], 3, 4)
            for n, (r, sn) in enumerate(zip(recon, s), start=1):
                assert abs(r - sn) <= 1e-9 * 3 ** (n / 2)


def _roots_oracle_phases(A, q):
    """Sorted phases of the completed polynomial A from `np.roots` on each
    factor of sympy's squarefree split, repeated by multiplicity."""
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    roots = []
    for factor, mult in sympy.Poly(list(A)[::-1], u).sqf_list()[1]:
        roots += list(np.roots([float(c) for c in factor.all_coeffs()])) * mult
    thetas = [-cmath.phase(r * q ** 0.5) for r in roots]
    return sorted(t + 2 * math.pi if t <= -math.pi else t for t in thetas)


class TestStackedEigenphases:
    @pytest.mark.parametrize("q,g", [(3, 2), (5, 1), (5, 2)])
    def test_every_l_polynomial_matches_a_per_row_roots_oracle(self, q, g):
        data = compute_ensemble_data(q, g, g)
        A = np.asarray(lf.dirichlet_coefficients(data.coeffs, q))
        theta, errors = lf.eigenphases(A, q)
        assert errors == {} and theta.shape == (data.count, 2 * g)
        rows = {tuple(r) for r in A.tolist()}
        if (q, g) == (5, 2):
            assert (1, 0, -10, 0, 25) in rows  # x^5 + 4x: (1 - 5u^2)^2
        oracle = {r: _roots_oracle_phases(r, q) for r in rows}
        for row, phases in zip(A.tolist(), theta):
            assert np.abs(phases - oracle[tuple(row)]).max() <= 1e-12

    def test_a_stack_flags_only_the_off_circle_row(self):
        stack = np.array([(1, 3, 3), (1, 4, 3), (1, 0, 3), (1, -3, 3)])
        theta, errors = lf.eigenphases(stack, 3)
        assert list(errors) == [1] and isinstance(errors[1], lf.RootMagnitudeError)
        _, alone = lf.eigenphases(stack[1:2], 3)
        assert str(errors[1]) == str(alone[0])
        assert np.isnan(theta[1]).all()
        for j in (0, 2, 3):
            assert theta[j].tolist() == lf.eigenphases(stack[j:j + 1], 3)[0][0].tolist()

    def test_a_single_polynomial_is_a_stack_of_one(self, data_g2):
        # one-row stacks of per-curve completed polynomials against the
        # roots oracle and Newton's identities
        A = lf.dirichlet_coefficients(data_g2.coeffs, 3)
        theta, _ = lf.eigenphases(A, 3)
        recon = lf.traces_from_eigenphases(theta, 3, 6)
        assert recon.shape == (data_g2.count, 6)
        for i in range(0, data_g2.count, 9):
            completed = lf.complete_l(data_g2.curve(i))
            (single,), errors = lf.eigenphases([completed], 3)
            assert errors == {} and single.tolist() == theta[i].tolist()
            assert np.abs(single - _roots_oracle_phases(completed, 3)).max() <= 1e-12
            (traces,) = lf.traces_from_eigenphases(single[None], 3, 6)
            assert traces.tolist() == recon[i].tolist()
            s = lf.newton_power_sums(completed, 6)
            assert all(abs(r - sn) <= 1e-9 * 3 ** (n / 2)
                       for n, (r, sn) in enumerate(zip(traces, s), start=1))


def _points_one_x_at_a_time(Q, q, n):
    """1 + sum over x in F_q[t]/P of 1 + (Q(x) / P), with P the first prime
    of degree n: Q(x) by Horner's rule in polynomials mod P, its quadratic
    character by the definitional residue symbol."""
    P = pf.get_prime_table(q, n).first_irreducible(n)
    total = 1
    for digits in itertools.product(range(q), repeat=n):
        x, value = pf.poly(digits, q), pf.ZERO
        for c in reversed(Q):
            value = pf.poly_mod(pf.poly_add(pf.poly_mul(value, x, q), pf.constant(c, q), q), P, q)
        total += 1 + residue_symbol_def(value, P, q)
    return total


class TestPointCounts:
    def test_example_count(self):
        counts = lf.point_count_direct(EXAMPLE.row, 3, 1)
        assert counts.dtype == np.int64 and counts.tolist() == [7]

    def test_hasse_window(self, data_g2):
        for n in (1, 2):
            counts = lf.point_count_direct(data_g2.coeffs[::13], 3, n)
            assert (np.abs(counts - 3 ** n - 1) <= 2 * 2 * 3 ** (n / 2)).all()

    def test_counts_match_traces(self, data_g1, data_q5g1):
        for data in (data_g1, data_q5g1):
            for i in range(data.count):
                curve = data.curve(i)
                s = lf.traces_explicit(curve, 3)
                for n in (1, 2, 3):
                    (direct,) = lf.point_count_direct(curve.row, curve.q, n).tolist()
                    assert direct == curve.q ** n + 1 - s[n - 1]

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_batched_counts_match_traces_on_every_curve(self, q):
        data = compute_ensemble_data(q, 1, 3)
        for part in np.array_split(np.arange(data.count), max(1, data.count // 256)):
            for n in (1, 2, 3):
                counts = lf.point_count_direct(data.coeffs[part], q, n)
                assert counts.dtype == np.int64
                assert np.array_equal(counts, q ** n + 1 - data.s[part, n - 1])

    def test_a_batch_of_one_is_a_row_of_the_stack(self, data_g2):
        # one-row stacks against a count of the points one x at a time
        stack = lf.point_count_direct(data_g2.coeffs, 3, 2)
        for i in range(0, data_g2.count, 11):
            curve = data_g2.curve(i)
            (single,) = lf.point_count_direct(curve.row, 3, 2).tolist()
            assert single == _points_one_x_at_a_time(curve.Q, 3, 2) == stack[i]


class TestWeilDiagnostic:
    def test_prime_only_sum_bound(self, data_g2):
        from hypfrob.ensemble import term_decomposition
        table = pf.get_prime_table(3, 6)
        for i in range(0, data_g2.count, 7):
            curve = data_g2.curve(i)
            for n in range(1, 7):
                dec = term_decomposition(curve, n, table)
                assert (n * dec.prime_symbol_sum) ** 2 <= (2 * 2 + 2) ** 2 * 3 ** n
