import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypfrob import charsym as cs
from hypfrob import polyfield as pf

FIELDS = (3, 5, 7, 11, 13)


def P(coeffs, p=3):
    return pf.poly(coeffs, p)


def all_polys_up_to(deg, p):
    out = [()]
    for d in range(0, deg + 1):
        for lead in range(1, p):
            for f in pf.monic_polys(d, p):
                out.append(tuple(lead * c % p for c in f))
    return out


class TestResidueSymbol:
    def test_x_mod_x2_plus_1(self):
        # x^4 = (x^2)^2 = (-1)^2 = 1 mod x^2+1, so the symbol is +1
        assert cs.residue_symbol_def(P((0, 1)), P((1, 0, 1)), 3) == 1

    def test_shared_factor(self):
        assert cs.residue_symbol_def(P((1, 0, 1)), P((1, 0, 1)), 3) == 0

    def test_constant_argument_identity(self):
        # (c/P) = legendre(c)^deg P
        for prime in pf.get_prime_table(3, 3).primes_up_to(3):
            for c in range(1, 3):
                expected = cs.legendre(c, 3) ** pf.degree(prime)
                assert cs.residue_symbol_def((c,), prime, 3) == expected
        assert cs.residue_symbol_def((2,), P((2, 1, 1)), 3) == 1  # (-1)^2

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            cs.residue_symbol_def(P((0, 1)), P((2, 0, 1)), 3)  # x^2 - 1 splits


class TestJacobiSymbol:
    def test_fast_path_equals_slow_path_exhaustively(self):
        table = pf.get_prime_table(3, 4)
        denominators = [f for d in range(1, 5) for f in pf.monic_polys(d, 3)]
        numerators = all_polys_up_to(3, 3)
        for A in denominators:
            for B in numerators:
                assert cs.jacobi_symbol(B, A, 3) == cs.residue_symbol_product(B, A, 3, table)

    def test_zero_numerator(self):
        assert cs.jacobi_symbol((), P((0, 1)), 3) == 0
        assert cs.jacobi_symbol((), (1,), 3) == 1  # empty product over no primes

    def test_non_monic_denominator_rejected(self):
        with pytest.raises(ValueError):
            cs.jacobi_symbol(P((0, 1)), P((2, 2)), 3)

    @pytest.mark.parametrize("q,maxdeg", [(3, 4), (5, 3)])
    def test_reciprocity(self, q, maxdeg):
        sign_unit = (q - 1) // 2
        monics = [f for d in range(1, maxdeg + 1) for f in pf.monic_polys(d, q)]
        for A in monics:
            for B in monics:
                sign = -1 if (sign_unit % 2 and pf.degree(A) % 2 and pf.degree(B) % 2) else 1
                assert cs.jacobi_symbol(B, A, q) == sign * cs.jacobi_symbol(A, B, q)

    def test_reciprocity_specific_odd_degrees(self):
        # both degrees odd at q = 3 flips the sign
        A, B = P((1, 2, 0, 1)), P((0, 1))
        assert cs.jacobi_symbol(B, A, 3) == -cs.jacobi_symbol(A, B, 3)
        assert cs.jacobi_symbol(B, A, 3) == -1

    def test_shared_factor_annihilates(self):
        A = P((0, 1, 1))  # x(x+1)
        assert cs.jacobi_symbol(P((0, 2)), A, 3) == 0
        assert cs.jacobi_symbol(P((0, 1, 1)), P((0, 1)), 3) == 0

    def test_bilateral_multiplicativity(self):
        smalls = [f for d in range(0, 3) for f in pf.monic_polys(d, 3)]
        denoms = [f for d in range(1, 4) for f in pf.monic_polys(d, 3)]
        for A in denoms:
            for B1 in smalls:
                for B2 in smalls:
                    lhs = cs.jacobi_symbol(pf.poly_mul(B1, B2, 3), A, 3)
                    assert lhs == cs.jacobi_symbol(B1, A, 3) * cs.jacobi_symbol(B2, A, 3)
        for B in smalls:
            for A1 in denoms:
                for A2 in denoms:
                    lhs = cs.jacobi_symbol(B, pf.poly_mul(A1, A2, 3), 3)
                    assert lhs == cs.jacobi_symbol(B, A1, 3) * cs.jacobi_symbol(B, A2, 3)


def polys(q, max_degree=5):
    """Polynomials over F_q of degree <= max_degree, zero included."""
    return st.lists(st.integers(0, q - 1), max_size=max_degree + 1).map(
        lambda c: pf.poly(c, q))


def monics(q, max_degree=4):
    return st.lists(st.integers(0, q - 1), max_size=max_degree).map(
        lambda c: pf.poly(c + [1], q))


class TestJacobiProperties:
    @given(st.sampled_from(FIELDS), st.data())
    def test_multiplicative_in_the_numerator(self, q, data):
        A = data.draw(monics(q))
        B1, B2 = data.draw(polys(q)), data.draw(polys(q))
        assert (cs.jacobi_symbol(pf.poly_mul(B1, B2, q), A, q)
                == cs.jacobi_symbol(B1, A, q) * cs.jacobi_symbol(B2, A, q))

    @given(st.sampled_from(FIELDS), st.data())
    def test_multiplicative_in_the_denominator(self, q, data):
        A1, A2 = data.draw(monics(q)), data.draw(monics(q))
        B = data.draw(polys(q))
        assert (cs.jacobi_symbol(B, pf.poly_mul(A1, A2, q), q)
                == cs.jacobi_symbol(B, A1, q) * cs.jacobi_symbol(B, A2, q))

    @given(st.sampled_from(FIELDS), st.data())
    def test_reciprocity(self, q, data):
        A, B = data.draw(monics(q, 6)), data.draw(monics(q, 6))
        sign = (-1) ** ((q - 1) // 2 * pf.degree(A) * pf.degree(B))
        assert cs.jacobi_symbol(A, B, q) == sign * cs.jacobi_symbol(B, A, q)


def padded(polys, width):
    """Coefficient rows, lowest first, zero-padded to `width` columns."""
    rows = np.zeros((len(polys), width), np.int64)
    for i, f in enumerate(polys):
        rows[i, :len(f)] = f
    return rows


class TestJacobiKernel:
    def test_matches_scalar_on_the_exhaustive_grid(self):
        # monic A of degree 1..4 against B = 0 or a unit times a monic of
        # degree 0..3, as one broadcast grid
        denoms = [f for d in range(1, 5) for f in pf.monic_polys(d, 3)]
        numers = [()] + [tuple(u * c % 3 for c in f) for d in range(4)
                         for f in pf.monic_polys(d, 3) for u in (1, 2)]
        got = cs.jacobi_symbols(padded(numers, 4)[:, None], padded(denoms, 5)[None], 3)
        assert got.dtype == np.int8
        assert got.tolist() == [[cs.jacobi_symbol(B, A, 3) for A in denoms] for B in numers]

    @given(st.sampled_from(FIELDS + (137,)), st.data())
    def test_matches_scalar_on_drawn_pairs(self, q, data):
        # B: zero, constants and non-monic polynomials of degree up to 8;
        # A: monic of degree 0..6, so deg B falls both below and above deg A
        pairs = data.draw(st.lists(st.tuples(polys(q, 8), monics(q, 6)), min_size=1, max_size=12))
        got = cs.jacobi_symbols(padded([B for B, _ in pairs], 9),
                                padded([A for _, A in pairs], 7), q)
        assert got.tolist() == [cs.jacobi_symbol(B, A, q) for B, A in pairs]

    def test_batch_longer_than_a_chunk(self):
        q, n = 7, cs.CHUNK_PAIRS + 517
        rng = np.random.default_rng(0)
        B = rng.integers(0, q, (n, 9))
        deg = rng.integers(0, 6, n)
        A = np.where(np.arange(6) < deg[:, None], rng.integers(0, q, (n, 6)), 0)
        A[np.arange(n), deg] = 1
        got = cs.jacobi_symbols(B, A, q)
        for b, a, symbol in zip(B.tolist(), A.tolist(), got.tolist()):
            assert symbol == cs.jacobi_symbol(pf.poly(b, q), pf.poly(a, q), q)

    @pytest.mark.parametrize("q,kB,kA", [(137, 9, 9), (13, 12, 2)])
    def test_matches_scalar_at_the_extremes_of_the_dtype_bound(self, q, kB, kA):
        # within a Euclid round |b| <= (q-1) + W (q-1)^2 with W = max(kB, kA):
        # 166,600 at q = 137 and width 9 (int32), and at q = 13 a degree-11 B
        # against a degree-1 A takes the most steps in one round (int16).
        # Coefficients q-1 and q-2 make every lead and every product of a
        # step as large as it gets.
        rng = np.random.default_rng(q)
        B = rng.choice([0, q - 2, q - 1], (400, kB), p=[0.1, 0.3, 0.6])
        B[:2] = q - 1
        deg = rng.integers(1, kA, 400)
        deg[:2] = kA - 1
        A = np.where(np.arange(kA) < deg[:, None], rng.choice([q - 2, q - 1], (400, kA)), 0)
        A[np.arange(400), deg] = 1
        got = cs.jacobi_symbols(B, A, q)
        assert got.tolist() == [cs.jacobi_symbol(pf.poly(b, q), pf.poly(a, q), q)
                                for b, a in zip(B.tolist(), A.tolist())]

    def test_matches_scalar_at_q13_in_int16(self):
        # verify's shape at (13, 1): moduli of width 4 against monic
        # denominators of degree <= 4, so W = 5 and |b| <= 12 + 5 * 12^2 =
        # 732, an int16 kernel.  The entries are drawn unreduced, negative
        # ones and leading coefficients 14 and -12 included, so the one
        # reduction of the input is checked too.
        q, n = 13, 600
        assert cs._kernel_dtype(q, 5) == np.int16
        rng = np.random.default_rng(q)
        B = rng.integers(-3 * q, 3 * q, (n, 4))
        deg = rng.integers(0, 5, n)
        A = np.where(np.arange(5) < deg[:, None], rng.integers(-3 * q, 3 * q, (n, 5)), 0)
        A[np.arange(n), deg] = rng.choice([1, 1 + q, 1 - q], n)
        got = cs.jacobi_symbols(B, A, q)
        assert got.tolist() == [cs.jacobi_symbol(pf.poly(b, q), pf.poly(a, q), q)
                                for b, a in zip(B.tolist(), A.tolist())]
        assert set(got.tolist()) == {-1, 0, 1}

    def test_single_pair_and_constant_denominator(self):
        B, A = (0, 1), (1, 2, 0, 1)
        assert cs.jacobi_symbols(B, A, 3) == cs.jacobi_symbol(B, A, 3) == -1
        assert cs.jacobi_symbols((), (1,), 3) == 1
        assert cs.jacobi_symbols((), (0, 1), 3) == 0

    def test_non_monic_denominator_rejected(self):
        for A in ([[0, 2, 2]], [[0, 0]], [[2]]):
            with pytest.raises(ValueError):
                cs.jacobi_symbols([[0, 1]], A, 3)


class TestCurveCharacter:
    def test_linear_denominator_evaluation(self):
        # chi_D(x - a) = legendre(D(a))
        D = P((1, 2, 0, 1))
        for a in range(3):
            linear = pf.poly((-a, 1), 3)
            assert cs.chi(D, linear, 3) == cs.legendre(pf.poly_eval(D, a, 3), 3)
        assert cs.chi(D, P((0, 1)), 3) == 1  # D(0) = 1 is a square

    def test_trivial_argument(self):
        assert cs.chi(P((1, 2, 0, 1)), (1,), 3) == 1

    def test_square_argument_values(self):
        D = P((1, 2, 0, 1))
        for d in range(1, 3):
            for f in pf.monic_polys(d, 3):
                val = cs.chi(D, pf.poly_mul(f, f, 3), 3)
                shares = pf.degree(pf.poly_gcd(f, D, 3)) > 0
                assert val == (0 if shares else 1)

    def test_perfect_square_modulus_rejected(self):
        with pytest.raises(ValueError):
            cs.chi(P((1, 2, 1)), P((0, 1)), 3)  # (x+1)^2

    def test_constant_modulus_rejected(self):
        with pytest.raises(ValueError):
            cs.chi((1,), P((0, 1)), 3)

    def test_completely_multiplicative(self):
        D = P((1, 2, 0, 1))
        monics = [f for d in range(1, 3) for f in pf.monic_polys(d, 3)]
        for f in monics:
            for g in monics:
                assert (cs.chi(D, pf.poly_mul(f, g, 3), 3)
                        == cs.chi(D, f, 3) * cs.chi(D, g, 3))


class TestPolySqrt:
    def test_roundtrip(self):
        for d in range(1, 4):
            for f in pf.monic_polys(d, 3):
                sq = pf.poly_mul(f, f, 3)
                assert cs.poly_sqrt(sq, 3) == f
                assert cs.is_perfect_square(sq, 3)

    def test_non_squares(self):
        assert cs.poly_sqrt(P((1, 0, 0, 0, 1)), 3) is None  # x^4 + 1
        assert not cs.is_perfect_square(P((1, 2, 0, 1)), 3)
        assert not cs.is_perfect_square(P((0, 1)), 3)  # odd degree
