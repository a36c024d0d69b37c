import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypfrob import polyfield as pf
from hypfrob.charsym import jacobi_symbols

FIELDS = (3, 5, 7, 11, 13)


def P(coeffs, p=3):
    return pf.poly(coeffs, p)


def np_mul(f, g, p):
    """Independent product oracle: integer convolution reduced mod p."""
    if not f or not g:
        return ()
    out = np.convolve(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64)) % p
    return pf.normalize(tuple(int(c) for c in out))


def trial_division_primes(q, max_degree):
    """Reference prime table: the monic polynomials of each degree d with no
    remainder-free division by a prime of degree <= d/2."""
    by_degree = {}
    for d in range(1, max_degree + 1):
        by_degree[d] = tuple(
            f for f in pf.monic_polys(d, q)
            if all(pf.poly_mod(f, prime, q) for e in range(1, d // 2 + 1)
                   for prime in by_degree[e]))
    return by_degree


def polys(q, max_degree=8, nonzero=False):
    """Polynomials over F_q of degree <= max_degree, nonzero on request."""
    low = st.lists(st.integers(0, q - 1), max_size=max_degree)
    if not nonzero:
        return low.map(lambda c: pf.poly(c, q))
    return st.tuples(low, st.integers(1, q - 1)).map(
        lambda t: pf.poly(t[0] + [t[1]], q))


class TestRingOps:
    def test_gcd_shared_root(self):
        # gcd(x^2 - 1, x - 1) over F_3 is the monic x - 1
        assert pf.poly_gcd(P((-1, 0, 1)), P((-1, 1)), 3) == P((-1, 1))

    def test_derivative_kills_cubic_term(self):
        # d/dx (x^3 + 2x + 1) = 3x^2 + 2 = 2 over F_3
        assert pf.derivative(P((1, 2, 0, 1)), 3) == (2,)

    def test_specific_product(self):
        f, g = P((0, 1, 1)), P((2, 1))  # (x^2 + x)(x + 2)
        assert pf.poly_mul(f, g, 3) == np_mul(f, g, 3)

    def test_products_match_convolution_oracle(self):
        rng = random.Random(20240311)
        for _ in range(300):
            p = rng.choice([3, 5])
            f = pf.poly([rng.randrange(p) for _ in range(rng.randrange(1, 8))], p)
            g = pf.poly([rng.randrange(p) for _ in range(rng.randrange(1, 8))], p)
            assert pf.poly_mul(f, g, p) == np_mul(f, g, p)

    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(300):
            p = rng.choice([3, 5])
            f = pf.poly([rng.randrange(p) for _ in range(rng.randrange(0, 9))], p)
            g = pf.poly([rng.randrange(p) for _ in range(rng.randrange(1, 6))], p)
            if pf.is_zero(g):
                continue
            quo, rem = pf.poly_divmod(f, g, p)
            assert pf.degree(rem) < pf.degree(g)
            assert pf.poly_add(pf.poly_mul(quo, g, p), rem, p) == f

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            pf.poly_divmod(P((1, 1)), (), 3)

    def test_make_monic(self):
        monic, unit = pf.make_monic(P((2, 2)), 3)
        assert unit == 2 and monic == P((1, 1))

    def test_field_validation(self):
        for bad in (2, 4, 9, 1, -3):
            with pytest.raises(ValueError):
                pf.check_field(bad)
        assert pf.check_field(3) == 3 and pf.check_field(101) == 101


class TestSquarefree:
    def test_examples(self):
        assert not pf.is_squarefree(P((0, 0, 1)), 3)        # x^2
        assert pf.is_squarefree(P((1, 2, 0, 1)), 3)         # gcd(f, f') = 1
        assert not pf.is_squarefree(P((0, 0, 0, 1)), 3)     # x^3, vanishing derivative

    def test_agrees_with_factorization_multiplicities(self):
        for d in range(1, 7):
            for f in pf.monic_polys(d, 3):
                by_fact = all(m == 1 for _, m in pf.factorize(f, 3).factors)
                assert pf.is_squarefree(f, 3) == by_fact


class TestFactorize:
    def test_difference_of_squares(self):
        fact = pf.factorize(P((-1, 0, 1)), 3)
        assert fact.unit == 1
        assert sorted(fact.factors) == sorted(((P((1, 1)), 1), (P((2, 1)), 1)))

    def test_irreducible_quadratic(self):
        fact = pf.factorize(P((1, 0, 1)), 3)
        assert fact.factors == ((P((1, 0, 1)), 1),)

    def test_unit_normalization(self):
        fact = pf.factorize(P((2, 2)), 3)
        assert fact.unit == 2 and fact.factors == ((P((1, 1)), 1),)

    def test_roundtrip_random(self):
        rng = random.Random(1234)
        for _ in range(1000):
            p = rng.choice([3, 5])
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 11))] + [rng.randrange(1, p)]
            f = pf.poly(coeffs, p)
            assert pf.factorize(f, p).reassemble(p) == f

    def test_all_factors_irreducible(self):
        table = pf.get_prime_table(3, 5)
        rng = random.Random(99)
        for _ in range(100):
            coeffs = [rng.randrange(3) for _ in range(10)] + [1]
            for prime, _m in pf.factorize(pf.poly(coeffs, 3), 3).factors:
                assert table.is_irreducible(prime)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pf.factorize((), 3)


class TestMobiusVonMangoldt:
    def test_mobius_examples(self):
        assert pf.mobius(P((0, 1)), 3) == -1
        assert pf.mobius(P((0, 0, 1)), 3) == 0
        assert pf.mobius(P((0, 1, 1)), 3) == 1
        assert pf.mobius((1,), 3) == 1

    def test_mobius_rejects_non_monic(self):
        with pytest.raises(ValueError):
            pf.mobius(P((1, 2)), 3)

    def test_mobius_multiplicative_on_coprime(self):
        polys = [f for d in range(1, 4) for f in pf.monic_polys(d, 3)]
        for f in polys:
            for g in polys:
                if pf.degree(pf.poly_gcd(f, g, 3)) == 0:
                    prod = pf.poly_mul(f, g, 3)
                    assert pf.mobius(prod, 3) == pf.mobius(f, 3) * pf.mobius(g, 3)

    @pytest.mark.parametrize("q", FIELDS)
    def test_mobius_table_matches_factorization(self, q):
        d = 0
        while q ** d <= 3 ** 8:
            mu = pf.mobius_table(d, q)
            assert mu.dtype == np.int8 and len(mu) == q ** d
            assert mu.tolist() == [pf.mobius(f, q) for f in pf.monic_polys(d, q)]
            d += 1

    def test_von_mangoldt_examples(self):
        assert pf.von_mangoldt(P((0, 0, 0, 1)), 3) == 1     # x^3 = x cubed
        assert pf.von_mangoldt(P((0, 1, 1)), 3) == 0        # two primes

    def test_von_mangoldt_degree_sum_by_factorization(self):
        # sum over monic f of degree n of Lambda(f) equals q^n
        for n in range(1, 6):
            total = sum(pf.von_mangoldt(f, 3) for f in pf.monic_polys(n, 3))
            assert total == 3 ** n

    @pytest.mark.parametrize("q,nmax", [(3, 6), (5, 4)])
    def test_von_mangoldt_degree_sum_by_prime_powers(self, q, nmax):
        # same identity with the sum assembled from enumerated prime powers
        table = pf.get_prime_table(q, nmax)
        for n in range(1, nmax + 1):
            total = sum(d * len(table.irreducibles(d))
                        for d in range(1, n + 1) if n % d == 0)
            assert total == q ** n


class TestPrimeTable:
    def test_linear_primes(self):
        table = pf.get_prime_table(3, 1)
        assert table.irreducibles(1) == (P((0, 1)), P((1, 1)), P((2, 1)))

    def test_counts_against_closed_form(self):
        for q in (3, 5):
            table = pf.PrimeTable.build(q, 6)
            for n in range(1, 7):
                assert table.counts[n] == pf.irreducible_count(q, n)

    def test_known_small_counts(self):
        table = pf.get_prime_table(3, 3)
        assert table.counts[1] == 3
        assert table.counts[2] == 3
        assert table.counts[3] == 8 == (27 - 3) // 3

    def test_canonical_order(self):
        table = pf.get_prime_table(3, 2)
        quadratics = list(pf.monic_polys(2, 3))
        codes = [quadratics.index(f) for f in table.irreducibles(2)]
        assert codes == sorted(codes)
        assert table.first_irreducible(2) == P((1, 0, 1))  # x^2 + 1

    def test_out_of_range(self):
        table = pf.PrimeTable.build(3, 2)
        with pytest.raises(ValueError):
            table.irreducibles(3)

    @pytest.mark.parametrize("q,depth", [(3, 8), (5, 5), (7, 4), (11, 3), (13, 3)])
    def test_sieve_matches_trial_division(self, q, depth):
        assert q ** depth <= 3 ** 8
        table = pf.PrimeTable.build(q, depth)
        oracle = trial_division_primes(q, depth)
        for d in range(1, depth + 1):
            assert table.irreducibles(d) == oracle[d]

    def test_is_irreducible_beyond_table_depth(self):
        table = pf.PrimeTable.build(3, 2)
        oracle = trial_division_primes(3, 6)
        for d in range(3, 7):
            primes = set(oracle[d])
            for f in pf.monic_polys(d, 3):
                assert table.is_irreducible(f) == (f in primes)
                assert table.is_irreducible(tuple(2 * c % 3 for c in f)) == (f in primes)

    def test_monic_multiple_codes(self):
        # (x + 1) * (x^2 + b1 x + b0) over F_3, B in code order
        f = P((1, 1))
        cubics = list(pf.monic_polys(3, 3))
        expected = [cubics.index(pf.poly_mul(f, B, 3)) for B in pf.monic_polys(2, 3)]
        assert pf.monic_multiple_codes(f, 3, 3).tolist() == expected
        assert pf.monic_multiple_codes(f, 1, 3).tolist() == [1]
        with pytest.raises(ValueError):
            pf.monic_multiple_codes(P((1, 2)), 3, 3)


class TestTranslates:
    @pytest.mark.parametrize("q,d", [(3, 4), (5, 3), (7, 2), (13, 2)])
    def test_translates_match_composition(self, q, d):
        rows = pf.monic_rows(np.arange(q ** d), d, q)
        every = pf.translates(rows, q)
        for code in range(0, q ** d, max(1, q ** d // 60)):
            f = tuple(rows[code].tolist())
            for t in range(q):
                shifted = ()  # f(x + t) by Horner in F_q[x]
                for c in reversed(f):
                    shifted = pf.poly_add(pf.poly_mul(shifted, (t, 1), q), (c,), q)
                assert tuple(every[code, t].tolist()) == shifted

    def test_translate_bound_refused(self):
        # k (p-1)^2 >= 2^24 would pass float32's exact integers
        with pytest.raises(ValueError, match="2\\^24"):
            pf.translates(np.ones((1, 4), np.uint16), 2053)

    def test_digit_codes_invert_codes_to_digits(self):
        codes = np.arange(5 ** 4)
        assert np.array_equal(pf.digit_codes(pf.codes_to_digits(codes, 4, 5), 5), codes)


class TestResidueKernel:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint64])
    @pytest.mark.parametrize("p", [2, 3, 13, 127])
    def test_mod_matches_python_remainder(self, dtype, p):
        # the dtype's extremes, where p * (a // p) wraps, and a run around 0
        info = np.iinfo(dtype)
        values = sorted({info.min, info.min + 1, info.min + p, info.max - p, info.max - 1,
                         info.max, *range(max(info.min, -3 * p), min(info.max, 3 * p))})
        a = np.array(values, dtype)
        out = pf.mod(a, p)
        assert out is a and out.dtype == dtype
        assert out.tolist() == [v % p for v in values]

    @pytest.mark.parametrize("p,k", [(3, 7), (13, 6), (137, 6), (2039, 4)])
    def test_matmul_mod_matches_integer_matmul(self, p, k):
        rng = np.random.default_rng(p)
        rows, matrix = rng.integers(0, p, (40, k)), rng.integers(0, p, (k, 9))
        rows[0], matrix[:, 0] = p - 1, p - 1  # the largest product, k (p-1)^2
        out = pf.matmul_mod(rows, matrix, p)
        assert out.dtype == np.min_scalar_type(k * (p - 1) ** 2)
        assert np.array_equal(out, rows @ matrix % p)

    def test_matmul_mod_refused_exactly_at_2_pow_24(self):
        # k (p-1)^2 = 255 * 256^2 < 2^24 = 256 * 256^2 at p = 257
        p = 257
        for k in (255, 256):
            rows, matrix = np.full((1, k), p - 1), np.full((k, 1), p - 1)
            if k * (p - 1) ** 2 < 2 ** 24:
                assert pf.matmul_mod(rows, matrix, p).tolist() == [[k * (p - 1) ** 2 % p]]
            else:
                with pytest.raises(ValueError, match="2\\^24"):
                    pf.matmul_mod(rows, matrix, p)

    @pytest.mark.parametrize("q,d,width,count", [
        (3, 1, 5, None), (3, 2, 5, None), (3, 3, 5, None), (13, 2, 6, 150), (137, 1, 6, 60)])
    def test_prime_residues_match_jacobi_symbols(self, q, d, width, count):
        # every row of `width` digits at q = 3, else `count` random rows and
        # the all-(q-1) row, against every prime of degree d
        if count is None:
            rows = pf.codes_to_digits(np.arange(q ** width), width, q)
        else:
            rows = np.random.default_rng(q).integers(0, q, (count, width)).astype(np.uint8)
            rows[0] = q - 1
        primes = np.array(pf.get_prime_table(q, d).irreducibles(d))
        chi = pf.prime_residues(q, d, width)(rows)
        assert chi.dtype == np.int8
        assert np.array_equal(chi, jacobi_symbols(rows[:, None], primes[None], q))
        if q == 137:
            # the products x^i mod (x - a) = a^i pass 16 bits, so a 16-bit
            # remainder would wrap
            powers = np.array([[pow(-int(c), i, q) for i in range(width)] for c, _ in primes])
            assert (rows.astype(np.int64) @ powers.T).max() >= 2 ** 16

    def test_prime_residues_refused_before_tables(self, monkeypatch, fresh_prime_residues):
        def no_tables(*_args):
            raise AssertionError("table built before the float32 bound check")

        monkeypatch.setattr(pf, "get_prime_table", no_tables)
        monkeypatch.setattr(pf, "ResidueField", no_tables)
        # width (q-1)^2 = 4 * 2052^2 >= 2^24 at the prime q = 2053
        with pytest.raises(ValueError, match="2\\^24"):
            pf.prime_residues(2053, 1, 4)


class TestProperties:
    @given(st.sampled_from(FIELDS), st.data())
    def test_divmod_identity_and_gcd_divisibility(self, q, data):
        f = data.draw(polys(q))
        g = data.draw(polys(q, max_degree=5, nonzero=True))
        quo, rem = pf.poly_divmod(f, g, q)
        assert pf.degree(rem) < pf.degree(g)
        assert pf.poly_add(pf.poly_mul(quo, g, q), rem, q) == f
        d = pf.poly_gcd(f, g, q)
        assert pf.is_monic(d)
        assert not pf.poly_mod(f, d, q) and not pf.poly_mod(g, d, q)

    @given(st.sampled_from(FIELDS), st.data())
    def test_factorize_round_trip(self, q, data):
        f = data.draw(polys(q, nonzero=True))
        fact = pf.factorize(f, q)
        assert fact.reassemble(q) == f
        primes = [prime for prime, _m in fact.factors]
        assert len(set(primes)) == len(primes)
        assert all(pf.is_monic(prime) and mult >= 1 for prime, mult in fact.factors)

    @given(st.sampled_from(FIELDS), st.data())
    def test_squarefree_against_factorization(self, q, data):
        # f = h(x^q) has f' = 0, the branch gcd(f, f') cannot decide
        if q <= 12 and data.draw(st.booleans()):
            h = data.draw(polys(q, max_degree=12 // q, nonzero=True).filter(pf.degree))
            f = [0] * (q * pf.degree(h) + 1)
            f[::q] = h
            f = tuple(f)
            assert not pf.derivative(f, q)
        else:
            f = data.draw(polys(q, nonzero=True))
        by_fact = all(m == 1 for _, m in pf.factorize(f, q).factors)
        assert pf.is_squarefree(f, q) == by_fact


def residue_field(q, n):
    return pf.ResidueField(pf.get_prime_table(q, n).first_irreducible(n), q)


class TestResidueField:
    def test_degenerate_field_evaluates_like_the_base_field(self):
        field = residue_field(3, 1)
        assert field.prime == P((0, 1))  # modulus x: evaluation == base field
        f = P((1, 2, 0, 1))
        values = field.evaluate([f], field.elements())[0]
        assert values[:, 0].tolist() == [pf.poly_eval(f, a, 3) for a in range(3)]

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (3, 3)])
    def test_multiplicative_group_order(self, q, n):
        field = residue_field(q, n)
        z = field.elements()[1:]
        power = z
        for _ in range(q ** n - 2):
            power = field.mul(power, z)
        assert field.codes(power).tolist() == [1] * len(z)  # z^(q^n-1) = 1

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 3), (13, 2)])
    def test_horner_matches_power_evaluation(self, q, n):
        field = residue_field(q, n)
        rng = random.Random(q * n)
        fs = [[rng.randrange(q) for _ in range(5)] + [1] for _ in range(4)]
        z = field.elements()
        for f, values in zip(fs, field.evaluate(fs, z)):
            direct, power = np.zeros(z.shape, np.int64), np.zeros(z.shape, np.int64)
            power[:, 0] = 1
            for c in f:
                direct = (direct + c * power) % q
                power = field.mul(power, z)
            assert np.array_equal(values, direct)

    @pytest.mark.parametrize("q,d", [(3, 1), (3, 4), (5, 3), (11, 2)])
    def test_mul_and_rows_match_polynomial_arithmetic(self, q, d):
        table = pf.get_prime_table(q, d)
        rng = random.Random(q + d)
        for prime in rng.sample(table.irreducibles(d), min(3, table.counts[d])):
            field = pf.ResidueField(prime, q)
            x_powers = [pf.poly_mod((0,) * i + (1,), prime, q) for i in range(2 * d + 2)]
            assert [pf.normalize(tuple(row)) for row in field.rows(2 * d + 2).tolist()] \
                == x_powers
            codes = rng.sample(range(field.size), min(20, field.size))
            a = pf.codes_to_digits(np.array(codes), d, q)
            b = a[::-1]
            for f, g, prod in zip(a.tolist(), b.tolist(), field.mul(a, b).tolist()):
                expected = pf.poly_mod(np_mul(pf.normalize(tuple(f)), pf.normalize(tuple(g)), q),
                                       prime, q)
                assert pf.normalize(tuple(prod)) == expected
            assert field.codes(a).tolist() == codes

    def test_character_counts(self):
        for n in (1, 2, 3):
            values = residue_field(3, n).chars.tolist()
            assert values.count(0) == 1
            assert values.count(1) == (3 ** n - 1) // 2
            assert values.count(-1) == (3 ** n - 1) // 2

    def test_characters_at_degree_one_match_legendre(self):
        from hypfrob.charsym import legendre
        for q in FIELDS:
            assert residue_field(q, 1).chars.tolist() == [legendre(a, q) for a in range(q)]

    def test_composite_modulus_refused(self):
        with pytest.raises(ArithmeticError, match="square table"):
            pf.ResidueField(pf.poly_mul(P((1, 1)), P((2, 1)), 3), 3)