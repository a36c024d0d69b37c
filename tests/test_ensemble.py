import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypfrob import cache as cachemod
from hypfrob import ensemble as ens
from hypfrob import lfunction as lf
from hypfrob import linstat
from hypfrob import polyfield as pf
from hypfrob.charsym import jacobi_symbol, legendre
from hypfrob.cli import main


class TestEnumeration:
    @pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
    def test_cardinality(self, q, g):
        spec = ens.EnsembleSpec(q, g)
        assert len(ens.squarefree_codes(q, g)) == spec.count == (q - 1) * q ** (2 * g)

    @pytest.mark.parametrize("q,g", [(3, 1), (3, 2), (5, 1)])
    def test_sieve_matches_filter(self, q, g):
        D = 2 * g + 1
        sieved = [pf.monic_from_code(int(c), D, q) for c in ens.squarefree_codes(q, g)]
        filtered = [M for M in pf.monic_polys(D, q) if pf.is_squarefree(M, q)]
        assert sieved == filtered

    def test_emitted_curves_are_squarefree(self, data_g2):
        for i in range(data_g2.count):
            assert pf.is_squarefree(data_g2.curve(i).Q, 3)

    def test_budget_refusal(self):
        with pytest.raises(ens.BudgetError):
            ens.squarefree_codes(3, 8, budget=10 ** 5)

    def test_enumeration_order_is_code_order(self):
        codes = ens.squarefree_codes(3, 1)
        assert list(codes) == sorted(int(c) for c in codes)


@pytest.fixture(scope="module")
def data_q5g3():
    return ens.compute_ensemble_data(5, 3, 8)


@pytest.fixture(scope="module")
def genus2_large_q():
    return {q: ens.compute_ensemble_data(q, 2, 6) for q in (11, 13)}


class TestEngine:
    def test_matches_per_curve_paths_exhaustively(self, data_g1, data_g2, data_q5g1):
        for data in (data_g1, data_g2, data_q5g1):
            N = data.N
            for i in range(data.count):
                curve = data.curve(i)
                A = lf.dirichlet_coefficients(curve.row, curve.q, strategy="enumerate")[0]
                assert list(data.s[i]) == lf.newton_power_sums(lf.complete_l(curve, A), N)

    @pytest.mark.parametrize("q,g,N,stride", [(11, 1, 4, 1), (13, 1, 4, 1), (7, 2, 6, 293)])
    def test_matches_enumeration_route_beyond_small_q(self, q, g, N, stride):
        data = ens.compute_ensemble_data(q, g, N)
        for i in range(0, data.count, stride):
            curve = data.curve(i)
            A = lf.dirichlet_coefficients(curve.row, curve.q, strategy="enumerate")[0]
            assert list(data.s[i]) == lf.newton_power_sums(lf.complete_l(curve, A), N)

    def test_int32_residues_where_int16_would_wrap(self, monkeypatch):
        # q = 137 is the least prime where a g = 1 residue digit can reach
        # 2^15; the ensemble needs --budget above 2,571,353 candidates
        q, g, N = 137, 1, 4
        engine = ens.TraceEngine(q, g, N)
        rows = [Q + (1,) for Q in itertools.product((q - 2, q - 1), repeat=2 * g + 1)
                if pf.is_squarefree(Q + (1,), q)]
        coeffs = np.array(rows, np.uint8)
        kernel, passes = pf.matmul_mod, []

        def recorded(rows, matrix, p):
            out = kernel(rows, matrix, p)
            passes.append((int((rows.astype(np.int64) @ matrix.astype(np.int64)).max()),
                           out.dtype))
            return out

        monkeypatch.setattr(pf, "matmul_mod", recorded)
        s = engine.traces(coeffs)
        assert passes  # the kernel ran through `matmul_mod`
        assert max(top for top, _dtype in passes) >= 2 ** 15
        assert all(dtype.itemsize * 8 > 16 for _top, dtype in passes)
        for i, Q in enumerate(rows):
            curve = lf.Curve(q=q, g=g, Q=Q)
            A = lf.dirichlet_coefficients(curve.row, curve.q, strategy="enumerate")[0]
            assert list(s[i]) == lf.newton_power_sums(lf.complete_l(curve, A), N)

    def test_traces_independent_of_row_splits(self, data_q5g3):
        # 62,500 rows: the splits cut inside and across the fixed chunks
        engine = ens.TraceEngine(5, 3, 8)
        whole = engine.traces(data_q5g3.coeffs)
        assert np.array_equal(whole, data_q5g3.s)
        cuts = [0, 1, 999, ens.CHUNK_ROWS - 1, ens.CHUNK_ROWS + 2, 40000, data_q5g3.count]
        parts = [engine.traces(data_q5g3.coeffs[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        assert np.array_equal(np.vstack(parts), whole)

    def test_kernel_sums_match_inversion_and_factorization(self, data_g2, data_q5g1,
                                                            data_q5g3):
        for data, stride in ((data_g2, 1), (data_q5g1, 1), (data_q5g3, 997)):
            q, g = data.q, data.g
            c, z = ens.TraceEngine(q, g, data.N)._symbol_sums(data.coeffs)
            z_all = ens.divisor_degree_counts(q, g, data.N, data.coeffs)
            c_all = ens.prime_symbol_sums(q, g, data.s, z_all)
            assert np.array_equal(c[:, 1:], c_all[:, 1:g + 1])
            assert np.array_equal(z[:, 1:], z_all[:, 1:g + 1])
            for i in range(0, data.count, stride):
                fact = pf.factorize(data.curve(i).Q, q)
                degrees = [pf.degree(prime) for prime, _m in fact.factors]
                assert [int(v) for v in z[i, 1:]] == [degrees.count(d) for d in range(1, g + 1)]

    def test_inverse_newton_rejects_a_perturbed_symbol_sum(self, data_g2):
        engine = ens.TraceEngine(3, 2, 8)
        kernel = engine._symbol_sums

        def perturbed(coeffs):
            c, z = kernel(coeffs)
            c[5, 1] += 1  # flips the parity of s_1^2 - s_2 = 2 A_2
            return c, z

        engine._symbol_sums = perturbed
        with pytest.raises(ArithmeticError, match="inverse Newton"):
            engine.coefficients(data_g2.coeffs)

    def test_a_second_engine_builds_no_tables(self, data_q5g1, monkeypatch,
                                              fresh_prime_residues):
        init, built = pf.ResidueField.__init__, []

        def counted(field, prime, q):
            built.append(prime)
            init(field, prime, q)

        monkeypatch.setattr(pf.ResidueField, "__init__", counted)
        first = ens.TraceEngine(5, 1, data_q5g1.N)
        assert len(built) == pf.irreducible_count(5, 1)
        second = ens.TraceEngine(5, 1, data_q5g1.N)
        assert len(built) == pf.irreducible_count(5, 1)
        assert np.array_equal(second.traces(data_q5g1.coeffs), data_q5g1.s)
        assert np.array_equal(first.traces(data_q5g1.coeffs), data_q5g1.s)

    def test_float32_bound_refused_before_tables(self, monkeypatch):
        def no_tables(*_args):
            raise AssertionError("prime table built before the bound check")

        # the engine's tables come from `polyfield.prime_residues`, which
        # reads the prime table and builds one `ResidueField` per prime
        monkeypatch.setattr(pf, "get_prime_table", no_tables)
        monkeypatch.setattr(pf, "ResidueField", no_tables)
        # (2g+2)(q-1)^2 = 4 * 2052^2 >= 2^24 for the prime q = 2053
        with pytest.raises(ValueError, match="2\\^24"):
            ens.TraceEngine(2053, 1, 2)

    def test_deepest_newton_depth_is_exact_and_the_next_refused(self):
        # the int64 bound allows N <= 30 at (13, 2); s_34 no longer fits
        q, g, N = 13, 2, 30
        data = ens.compute_ensemble_data(q, g, N)
        for i in range(0, data.count, 1709):
            assert list(data.s[i]) == lf.newton_power_sums(lf.complete_l(data.curve(i)), N)
        with pytest.raises(ValueError, match="2\\^63"):
            ens.TraceEngine(q, g, N + 1)

    def test_prime_symbol_sums_exact_at_the_deepest_newton_depth(self):
        # the int64 inversion sums against the same recursion in Python ints
        q, g, N = 13, 2, 30
        coeffs = pf.monic_rows(ens.squarefree_codes(q, g), 2 * g + 1, q)[::1709]
        s = ens.TraceEngine(q, g, N).traces(coeffs)
        z = ens.divisor_degree_counts(q, g, N, coeffs)
        c = ens.prime_symbol_sums(q, g, s, z)
        for i in range(len(coeffs)):
            exact = [0] * (N + 1)
            for n in range(1, N + 1):
                acc = -int(s[i, n - 1])
                for d in range(1, n // 2 + 1):
                    if n % d == 0:
                        unzeroed = pf.irreducible_count(q, d) - int(z[i, d])
                        acc -= d * (exact[d] if (n // d) % 2 else unzeroed)
                assert acc % n == 0
                exact[n] = acc // n
            assert [int(v) for v in c[i]] == exact

    def test_divisor_counts_match_factorization(self, data_g2):
        z = ens.divisor_degree_counts(3, 2, 8, data_g2.coeffs)
        for i in range(data_g2.count):
            fact = pf.factorize(data_g2.curve(i).Q, 3)
            expect = [0] * 9
            for prime, _m in fact.factors:
                d = pf.degree(prime)
                if d <= 8:
                    expect[d] += 1
            assert list(z[i]) == expect

    def test_prime_symbol_sums_match_direct(self, data_g2):
        z = ens.divisor_degree_counts(3, 2, 8, data_g2.coeffs)
        c = ens.prime_symbol_sums(3, 2, data_g2.s, z)
        table = pf.get_prime_table(3, 8)
        for i in range(0, data_g2.count, 13):
            Q = data_g2.curve(i).Q
            for d in range(1, 9):
                direct = sum(jacobi_symbol(Q, prime, 3) for prime in table.irreducibles(d))
                assert int(c[i, d]) == direct

    @pytest.mark.parametrize("q,stride", [(7, 37), (11, 401), (13, 1201)])
    def test_sieve_divisor_counts_beyond_small_q(self, q, stride):
        # the sieve against factorization on a stride, and against the
        # kernel's zero counts of chi_Q on every row
        g, N = 2, 6
        coeffs = pf.monic_rows(ens.squarefree_codes(q, g), 2 * g + 1, q)
        z = ens.divisor_degree_counts(q, g, N, coeffs)
        engine = ens.TraceEngine(q, g, N)
        kernel_z = ens._map_chunks(lambda rows: engine._symbol_sums(rows)[1], coeffs)
        assert np.array_equal(z[:, 1:g + 1], kernel_z[:, 1:])
        for i in range(0, len(coeffs), stride):
            fact = pf.factorize(tuple(int(v) for v in coeffs[i]), q)
            degrees = [pf.degree(prime) for prime, _m in fact.factors]
            assert [int(v) for v in z[i]] == [0] + [degrees.count(d) for d in range(1, N + 1)]

    def test_divisor_counts_below_genus_depth(self, data_q5g3):
        # N < g: the same columns as at full depth
        z = ens.divisor_degree_counts(5, 3, 2, data_q5g3.coeffs)
        assert np.array_equal(z, ens.divisor_degree_counts(5, 3, 8, data_q5g3.coeffs)[:, :3])

    def test_decomposition_runs_no_engine(self, data_g2, monkeypatch):
        c, z = ens.TraceEngine(3, 2, 8)._symbol_sums(data_g2.coeffs)

        def no_engine(*_args):
            raise AssertionError("DecompositionData.build constructed a TraceEngine")

        monkeypatch.setattr(ens, "TraceEngine", no_engine)
        decomp = ens.DecompositionData.build(data_g2)
        assert np.array_equal(decomp.c[:, 1:3], c[:, 1:])
        assert np.array_equal(decomp.z[:, 1:3], z[:, 1:])

    def test_prime_symbol_sums_refuse_past_the_newton_depth(self):
        with pytest.raises(ValueError, match="2\\^63"):
            ens.prime_symbol_sums(13, 2, np.zeros((1, 31), np.int64),
                                  np.zeros((1, 32), np.int16))


def _agl_oracle(q, g):
    """Per curve of the ensemble, the least code among all q(q-1) images
    l^-(2g+1) Q(l x + b), by direct binomial expansion of each image:
    its x^j coefficient is l^(j-2g-1) sum_i a_i C(i, j) b^(i-j) mod q.
    Also returns, per curve, whether some non-square l maps it to itself.
    The float64 matmul is exact: its entries stay below (2g+2)(q-1)^2."""
    D = 2 * g + 1
    codes = ens.squarefree_codes(q, g)
    rows = pf.monic_rows(codes, D, q).astype(np.float64)
    weights = np.float64(q) ** np.arange(D)
    least = np.full(len(codes), np.inf)
    fixed = np.zeros(len(codes), bool)
    for l in range(1, q):
        for b in range(q):
            matrix = np.array([[pow(l, (j - D) % (q - 1), q) * math.comb(i, j) * b ** (i - j) % q
                                if j <= i else 0 for j in range(D)] for i in range(D + 1)],
                              np.float64)
            image = (rows @ matrix % q) @ weights
            least = np.minimum(least, image)
            if legendre(l, q) == -1:
                fixed |= image == codes
    return codes, least.astype(np.int64), fixed


def _translate_rows(q, g, codes, coeffs):
    """Ensemble rows of the q translates Q(x + t) of every curve, (n, q)."""
    translated = pf.digit_codes(pf.translates(coeffs, q)[:, :, :2 * g + 1], q)
    rows = np.searchsorted(codes, translated)
    assert np.array_equal(codes[rows], translated)
    return rows


# q is prime to 2g+1 at the first seven and the last three, and divides it
# at the four between
ORBIT_POINTS = [(3, 2), (3, 3), (5, 1), (5, 3), (7, 2), (11, 2), (13, 2),
                (3, 1), (3, 4), (5, 2), (7, 3), (7, 1), (11, 1), (13, 1)]
# orbit counts pinned where the route test runs and the oracle does not,
# and at (5, 3)
PINNED_ORBIT_COUNTS = {(11, 2): 1345, (13, 2): 2211, (5, 3): 3146}
# distinct rows of s_1..s_(2g+2), fewer than the orbits
PINNED_HISTOGRAM_ROWS = {(11, 2): 282, (13, 2): 364}
# where the oracle makes every image of every curve in well under a second
ORACLE_POINTS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2),
                 (11, 1), (13, 1)]


class TestTranslationOrbits:
    """The AGL(1, q) orbits: translations, then the scaling twist."""

    @pytest.mark.parametrize("q,g", ORBIT_POINTS)
    def test_orbit_route_equals_a_full_engine_pass(self, q, g, monkeypatch):
        N = 2 * g + 2
        traced = []
        traces = ens.TraceEngine.traces
        monkeypatch.setattr(ens.TraceEngine, "traces",
                            lambda engine, coeffs: traced.append(len(coeffs))
                            or traces(engine, coeffs))
        data = ens.compute_ensemble_data(q, g, N)
        monkeypatch.undo()
        full = ens.TraceEngine(q, g, N).traces(data.coeffs)
        assert data.s.dtype == full.dtype and np.array_equal(data.s, full)
        codes = ens.squarefree_codes(q, g)
        orbits = ens.agl_orbits(q, g, codes, data.coeffs)
        assert traced == [len(orbits.reps)]  # the engine sees the representatives only
        assert len(orbits.reps) == PINNED_ORBIT_COUNTS.get((q, g), len(orbits.reps))
        rows_of_reps = np.searchsorted(codes, orbits.reps)
        assert np.array_equal(codes[rows_of_reps], orbits.reps)  # curves of the ensemble
        assert np.all(np.diff(orbits.reps) > 0)
        # every translate of a curve has the same least translate, so the
        # translates of the transversal (the curves that are their own least
        # translate) partition the ensemble; each curve has the orbit and sign
        # of its transversal row
        rows = _translate_rows(q, g, codes, data.coeffs)
        least = rows.min(axis=1)
        assert np.array_equal(least[rows], np.repeat(least[:, None], q, axis=1))
        assert np.array_equal(orbits.orbit, orbits.orbit[least])
        assert np.array_equal(orbits.sign, orbits.sign[least])
        assert np.array_equal(np.bincount(orbits.orbit), orbits.sizes)
        assert np.array_equal(np.bincount(orbits.orbit, orbits.sign), orbits.twists)
        fixed = np.count_nonzero(np.bincount(least) == 1)
        assert (fixed > 0) == ((2 * g + 1) % q == 0)
        assert set(np.unique(orbits.sign)) <= {-1, 1}
        # a representative is in its own orbit, with sign +1
        assert np.array_equal(orbits.orbit[rows_of_reps], np.arange(len(orbits.reps)))
        assert (orbits.sign[rows_of_reps] == 1).all()

    @pytest.mark.parametrize("q,g", ORBIT_POINTS)
    def test_orbit_histogram_is_the_per_curve_histogram(self, q, g):
        # each orbit split into its curves of sign 1 and -1, against the
        # histogram of the scattered traces, which
        # `test_orbit_route_equals_a_full_engine_pass` checks against a full
        # engine pass
        data = ens.compute_ensemble_data(q, g, 2 * g + 2)
        rows, counts = data.trace_histogram()
        histogram, curves = ens.distinct_rows(data.s)
        assert rows.dtype == counts.dtype == np.int64
        assert np.array_equal(rows, histogram)
        assert np.array_equal(counts, curves)
        assert len(rows) == PINNED_HISTOGRAM_ROWS.get((q, g), len(rows))

    def test_read_back_data_builds_its_histogram_once(self, data_g2):
        read_back = ens.EnsembleData(3, 2, 3, data_g2.coeffs, data_g2.s[:, :3])
        rows, counts = ens.distinct_rows(data_g2.s[:, :3])
        histogram = read_back.trace_histogram()
        assert np.array_equal(histogram[0], rows) and np.array_equal(histogram[1], counts)
        assert read_back.trace_histogram() is histogram

    @pytest.mark.parametrize("q,g", [(3, 2), (5, 2)])
    def test_weights_that_miscount_the_curves_are_refused(self, q, g, monkeypatch):
        # sizes and signed counts past `check_orbit_sizes`: one curve short,
        # and the same total with a signed count above its orbit's size, so
        # a negative count of one sign
        real = ens.agl_orbits
        orbits = real(q, g, ens.squarefree_codes(q, g),
                      pf.monic_rows(ens.squarefree_codes(q, g), 2 * g + 1, q))
        short = orbits.sizes.copy()
        short[0] -= 1
        i = np.flatnonzero(orbits.twists)[0]
        j = (i + 1) % len(short)
        over = orbits.sizes.copy()
        moved = over[i] - abs(orbits.twists[i]) + 1
        over[i] -= moved
        over[j] += moved
        assert over.sum() == orbits.sizes.sum() and abs(orbits.twists[i]) > over[i]
        ens.compute_ensemble_data(q, g, 4)
        for sizes in (short, over):
            monkeypatch.setattr(ens, "agl_orbits", lambda *args, sizes=sizes: dataclasses.replace(
                real(*args), sizes=sizes))
            with pytest.raises(ArithmeticError, match="do not split into the"):
                ens.compute_ensemble_data(q, g, 4)

    @pytest.mark.parametrize("q,g", ORACLE_POINTS)
    def test_representatives_are_the_least_codes_of_their_orbits(self, q, g):
        codes, least, fixed = _agl_oracle(q, g)
        orbits = ens.agl_orbits(q, g, codes, pf.monic_rows(codes, 2 * g + 1, q))
        reps, sizes = np.unique(least, return_counts=True)
        assert np.array_equal(orbits.reps, reps)
        assert np.array_equal(orbits.sizes, sizes)
        assert np.array_equal(orbits.fixed, fixed[np.searchsorted(codes, reps)])
        assert np.array_equal(orbits.reps[orbits.orbit], least)
        # l = -1 is a non-square when q = 3 mod 4; it fixes the odd
        # polynomials, Q(-x) = -Q(x)
        if q % 4 == 3:
            assert orbits.fixed.any()

    @pytest.mark.parametrize("q,g", [(3, 2), (3, 1)])
    def test_corrupted_orbit_sizes_are_refused(self, q, g):
        codes = ens.squarefree_codes(q, g)
        coeffs = pf.monic_rows(codes, 2 * g + 1, q)
        sizes = ens.agl_orbits(q, g, codes, coeffs).sizes
        _, t_sizes = np.unique(_translate_rows(q, g, codes, coeffs).min(axis=1),
                               return_counts=True)
        ens.check_orbit_sizes(q, g, t_sizes, sizes)
        short = sizes.copy()
        short[0] -= 1
        # the same sum in sizes that do not all divide the group order
        total = int(sizes.sum())
        k = next(k for k in itertools.count(2) if (q * (q - 1)) % k)
        nondividing = np.array([k] + [1] * (total - k))
        for bad in (short, np.append(sizes, 1), nondividing, np.append(sizes, 0)):
            with pytest.raises(ArithmeticError, match="orbit sizes"):
                ens.check_orbit_sizes(q, g, t_sizes, bad)
        ens.check_orbit_sizes(q, g, t_sizes, np.ones(total, np.int64))
        for bad in (t_sizes[1:], np.append(t_sizes, q)):
            with pytest.raises(ArithmeticError, match="orbit sizes"):
                ens.check_orbit_sizes(q, g, bad, sizes)
        # q fixed curves in place of one translation orbit keep the total
        split = np.append(t_sizes[1:], [1] * q)
        if (2 * g + 1) % q:
            with pytest.raises(ArithmeticError, match="orbit sizes"):
                ens.check_orbit_sizes(q, g, split, sizes)
        else:
            ens.check_orbit_sizes(q, g, split, sizes)

    def test_untranslated_rows_trip_the_invariant(self, monkeypatch):
        # every row its own translate: orbits of one curve at (3, 2)
        monkeypatch.setattr(ens, "translates", lambda rows, p: rows[:, None].astype(np.int32))
        with pytest.raises(ArithmeticError, match="orbit sizes"):
            ens.compute_ensemble_data(3, 2, 6)

    @pytest.mark.parametrize("q,g", [(3, 2), (5, 2), (7, 1), (13, 2)])
    def test_a_dropped_twist_sign_trips_the_odd_column_sums(self, q, g, monkeypatch,
                                                           tmp_path, capsys):
        monkeypatch.setattr(ens, "legendre_table", lambda p: (0,) + (1,) * (p - 1))
        with pytest.raises(ArithmeticError, match="twist sign is lost"):
            ens.compute_ensemble_data(q, g, 2 * g + 2)
        code = main(["moment", "--q", str(q), "--g", str(g), "--spec", "(1,2)",
                     "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)])
        assert code == 1
        assert "invariant failure: " in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_an_odd_trace_on_a_fixed_orbit_is_refused(self, monkeypatch):
        traces = ens.TraceEngine.traces

        def shifted(engine, coeffs):
            s = traces(engine, coeffs)
            s[:, 0] += 2  # keeps every odd column's sum over an unfixed orbit at 0
            return s

        monkeypatch.setattr(ens.TraceEngine, "traces", shifted)
        with pytest.raises(ArithmeticError, match="fixed by a non-square"):
            ens.compute_ensemble_data(3, 2, 6)

    @pytest.mark.parametrize("q,g", [(3, 2), (3, 1)])
    def test_an_unreached_curve_is_refused(self, q, g, monkeypatch):
        # the translates of one translation orbit of q curves all become the
        # greatest code, the least translate of no curve: no transversal row
        # reaches that orbit, and at (3, 1) the sizes left are still 1 or q
        codes = ens.squarefree_codes(q, g)
        coeffs = pf.monic_rows(codes, 2 * g + 1, q)
        rows = _translate_rows(q, g, codes, coeffs)
        lost = codes[rows[np.flatnonzero(np.bincount(rows.min(axis=1)) == q)[-1]]]

        def lossy(block, p):
            out = pf.translates(block, p)
            out[np.isin(pf.digit_codes(block[:, :-1], p), lost), :, :-1] = p - 1
            return out

        ens.agl_orbits(q, g, codes, coeffs)  # passes with the true translates
        monkeypatch.setattr(ens, "translates", lossy)
        with pytest.raises(ArithmeticError, match="orbit sizes"):
            ens.agl_orbits(q, g, codes, coeffs)

    def test_verify_fails_every_curve_of_a_flipped_representative(self, tmp_path,
                                                                   monkeypatch, capsys):
        traces = ens.TraceEngine.traces

        def flipped(engine, coeffs):
            s = traces(engine, coeffs)
            s[0] = -s[0] - 1  # differs from s[0] in every entry
            return s

        monkeypatch.setattr(ens.TraceEngine, "traces", flipped)
        code = main(["verify", "--q", "3", "--g", "2", "--cache-dir", str(tmp_path)])
        assert code == 1
        line, = [ln for ln in capsys.readouterr().out.splitlines() if "engine agreement" in ln]
        assert line.startswith("  [FAIL] engine agreement: vectorized pipeline")
        # the flipped row is the least curve's: every curve of its orbit fails
        _codes, least, _fixed = _agl_oracle(3, 2)
        assert least[0] == least.min()
        assert f"; {np.count_nonzero(least == least[0])} of 162 failed, first curve 0:" in line


def _tabulate(func, g, q=3):
    """A functional of monic M as an int64 table over the codes of degree 2g+1."""
    return np.array([func(M) for M in pf.monic_polys(2 * g + 1, q)], np.int64)


def _explicit_sums(n, g, table, q=3):
    """The explicit character sum of degree n (-s_n for a curve) as an int64
    table over the codes of degree 2g+1, from one stacked symbol pass."""
    moduli = pf.monic_rows(np.arange(q ** (2 * g + 1)), 2 * g + 1, q)
    return lf.explicit_sum(lf.prime_symbols(moduli, q, n, table), n)


class TestAverages:
    def test_constant_functional(self, data_g1):
        spec = ens.EnsembleSpec(3, 1)
        assert ens.ensemble_average(spec, _tabulate(lambda M: 1, 1)) == 1
        assert ens.moebius_decomposed_average(spec, _tabulate(lambda M: 1, 1)) == 1

    def test_chi_square_argument_and_sandwich(self):
        # <chi_Q(x^2)> = 1 - (number of curves divisible by x)/count, and the
        # sandwich 1 - (1/(1-1/q)) sum 1/|P| <= <chi_Q(f^2)> <= 1
        spec = ens.EnsembleSpec(3, 2)
        x = pf.poly((0, 1), 3)
        avg = ens.ensemble_average(spec, _tabulate(lambda M: jacobi_symbol(M, x, 3) ** 2, 2))
        curves = [pf.monic_from_code(int(c), 5, 3) for c in ens.squarefree_codes(3, 2)]
        assert curves == [M for M in pf.monic_polys(5, 3) if pf.is_squarefree(M, 3)]
        divisible = sum(1 for Q in curves if not pf.poly_mod(Q, x, 3))
        assert avg == 1 - Fraction(divisible, spec.count)
        assert 1 - Fraction(1, 1 - Fraction(1, 3)) * Fraction(1, 3) <= avg <= 1

    def test_first_trace_average_matches_hand_sum(self, data_g1):
        # brute oracle: s_1(Q) = -sum_a legendre(Q(a)); antisymmetry under the
        # nonresidue rescaling x -> ux makes the ensemble total vanish
        total = 0
        for i in range(data_g1.count):
            Q = data_g1.curve(i).Q
            total -= sum(legendre(pf.poly_eval(Q, a, 3), 3) for a in range(3))
        assert total == 0
        assert int(data_g1.s[:, 0].sum()) == total

    def test_tables_must_cover_the_codes_within_int64(self):
        spec = ens.EnsembleSpec(3, 1)
        with pytest.raises(ValueError, match="27 codes"):
            ens.ensemble_average(spec, np.ones(26, np.int64))
        huge = np.full(27, ens.INT64_SAFE // 27, np.int64)
        for average in (ens.ensemble_average, ens.moebius_decomposed_average):
            with pytest.raises(ValueError, match="int64"):
                average(spec, huge)

    @pytest.mark.parametrize("g", [1, 2])
    def test_moebius_identity_for_trace_functionals(self, g):
        spec = ens.EnsembleSpec(3, g)
        table = pf.get_prime_table(3, 2 * g + 1)
        for n in (1, 2):
            values = _explicit_sums(n, g, table)
            direct = ens.ensemble_average(spec, values)
            decomposed = ens.moebius_decomposed_average(spec, values)
            assert direct == decomposed


class TestSigmaSum:
    @pytest.mark.parametrize("q", [3, 5])
    def test_table_head(self, q):
        # alpha = 0 and alpha = 1 below the minimal degree
        for degrees in [(2,), (3,), (2, 3), (4,)]:
            assert ens.sigma_sum(q, degrees, 0) == 1
            assert ens.sigma_sum(q, degrees, 1) == -q

    def test_vanishing_below_min_degree(self):
        for degrees, alpha in [((3,), 2), ((4,), 2), ((4,), 3), ((3, 4), 2)]:
            assert ens.sigma_sum(3, degrees, alpha) == 0

    def test_beyond_range_single_quadratic(self):
        # all nine monic quadratics sum to 0; excluding the chosen prime
        # removes a -1
        assert ens.sigma_sum(3, (2,), 2) == 1

    def test_depends_only_on_degrees(self):
        table = pf.get_prime_table(3, 3)
        quads = table.irreducibles(2)
        values = {ens.sigma_sum(3, (2,), 3, representatives=(p,)) for p in quads}
        assert len(values) == 1
        cubics = table.irreducibles(3)
        pairs = list(itertools.permutations(cubics[:3], 2))
        values = {ens.sigma_sum(3, (3, 3), 3, representatives=pair) for pair in pairs}
        assert len(values) == 1

    def test_insufficient_distinct_primes(self):
        with pytest.raises(ValueError):
            ens.sigma_sum(3, (1, 1, 1, 1), 2)

    @pytest.mark.parametrize("q,degrees,values", [
        (3, (2, 3), (1, -3, 1, -2, -2, -2)),
        (5, (1, 1, 2), (1, -3, -6, -14, -21))])
    def test_values_past_the_closed_table(self, q, degrees, values):
        assert tuple(ens.sigma_sum(q, degrees, alpha) for alpha in range(len(values))) == values

    @given(st.data())
    def test_random_representatives_match_a_mobius_loop(self, data):
        q = data.draw(st.sampled_from((3, 5, 7)))
        alpha = data.draw(st.integers(0, {3: 5, 5: 3, 7: 3}[q]))
        primes = list(pf.get_prime_table(q, 4).primes_up_to(4))
        reps = data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3, unique=True))
        degrees = [pf.degree(P) for P in reps]
        expected = sum(pf.mobius(A, q) for A in pf.monic_polys(alpha, q)
                       if all(pf.poly_mod(A, P, q) for P in reps))
        assert ens.sigma_sum(q, degrees, alpha, representatives=reps) == expected


def _multi_char_sum_by_scalar_symbols(q, beta, degrees, method):
    """The scalar route to `multi_char_sum`: the Euclid `jacobi_symbol` of
    each product of an ordered tuple of pairwise distinct primes against
    each monic B, (B / product) for 'direct' and (product / B) with the
    reciprocity sign for 'reciprocity'."""
    table = pf.get_prime_table(q, max(degrees))
    total = 0
    for combo in itertools.product(*(table.irreducibles(k) for k in degrees)):
        if len(set(combo)) != len(combo):
            continue
        modulus = (1,)
        for prime in combo:
            modulus = pf.poly_mul(modulus, prime, q)
        for B in pf.monic_polys(beta, q):
            total += (jacobi_symbol(B, modulus, q) if method == "direct"
                      else jacobi_symbol(modulus, B, q))
    if method == "reciprocity" and ((q - 1) // 2) % 2 and beta % 2 and sum(degrees) % 2:
        total = -total
    return total


class TestMultiCharSum:
    @pytest.mark.parametrize("method", ["direct", "reciprocity"])
    @pytest.mark.parametrize("q,degrees", [(3, (1, 2)), (5, (1, 2)), (3, (1, 1, 2)),
                                           (7, (2,)), (3, (3,))])
    def test_batched_grid_matches_the_scalar_route(self, q, degrees, method):
        for beta in range(sum(degrees) + 2):
            assert (ens.multi_char_sum(q, beta, degrees, method=method)
                    == _multi_char_sum_by_scalar_symbols(q, beta, degrees, method))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            ens.multi_char_sum(3, 1, (1,), method="magic")

    def test_vanishing_beyond_degree_sum(self):
        for degrees in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)]:
            total = sum(degrees)
            for beta in (total, total + 1):
                assert ens.multi_char_sum(3, beta, degrees) == 0

    def test_beta_zero_counts_tuples(self):
        table = pf.get_prime_table(3, 3)
        assert ens.multi_char_sum(3, 0, (1,)) == 3
        assert ens.multi_char_sum(3, 0, (3,)) == len(table.irreducibles(3))
        assert ens.multi_char_sum(3, 0, (1, 2)) == 3 * 3
        assert ens.multi_char_sum(3, 0, (1, 1)) == 3 * 2  # ordered distinct pairs

    @pytest.mark.parametrize("degrees", [(1,), (2,), (1, 2), (3,), (2, 2)])
    def test_dual_paths_agree(self, degrees):
        for beta in range(0, sum(degrees) + 2):
            direct = ens.multi_char_sum(3, beta, degrees, method="direct")
            recip = ens.multi_char_sum(3, beta, degrees, method="reciprocity")
            assert direct == recip

    def test_dual_paths_agree_even_sign_unit(self):
        # (q-1)/2 is even at q = 5, so the reciprocity sign is always +1
        for beta in range(0, 4):
            assert (ens.multi_char_sum(5, beta, (2,), method="direct")
                    == ens.multi_char_sum(5, beta, (2,), method="reciprocity"))

    def test_budget_guard(self):
        with pytest.raises(ens.BudgetError):
            ens.multi_char_sum(3, 12, (1, 2), budget=1000)

    def test_default_budget_is_the_shared_default(self):
        # 3 primes of degree 1 x 3^13 monic B = 4,782,969 entries: past
        # DEFAULT_BUDGET, refused before any symbol is computed
        assert 3 * 3 ** 13 > ens.DEFAULT_BUDGET
        with pytest.raises(ens.BudgetError):
            ens.multi_char_sum(3, 13, (1,))


class TestMomentSpec:
    def test_parse(self):
        spec = ens.MomentSpec.parse("(4,2);(2,1)")
        assert spec.terms == ((2, 1), (4, 2))
        assert spec.total == 10
        assert spec.max_k == 4
        assert spec.label() == "(2,1);(4,2)"
        assert ens.MomentSpec.parse("3").terms == ((3, 1),)

    def test_distinct_powers_required(self):
        with pytest.raises(ValueError):
            ens.MomentSpec(((2, 1), (2, 2)))


class TestTraceProductMoment:
    def test_second_trace_mean_frozen(self, data_g2):
        # frozen from the exhaustive 162-curve sum; cross-checked against the
        # squarefree-indicator decomposition below
        rep = ens.trace_product_moment(data_g2, ens.MomentSpec.parse("(2,1)"))
        assert rep.empirical.frac == Fraction(-20, 27)
        assert not rep.empirical.half
        spec = ens.EnsembleSpec(3, 2)
        table = pf.get_prime_table(3, 2)
        decomposed = ens.moebius_decomposed_average(
            spec, -_explicit_sums(2, 2, table))
        assert Fraction(decomposed, 3) == rep.empirical.frac

    def test_odd_single_traces_vanish(self, data_g2):
        for k in (1, 3):
            rep = ens.trace_product_moment(data_g2, ens.MomentSpec.parse(f"({k},1)"))
            assert rep.empirical.frac == 0

    def test_overflow_fallback_matches(self):
        fake = ens.EnsembleData(
            q=3, g=1, N=2,
            coeffs=np.zeros((4, 4), np.uint8),
            s=np.array([[2 ** 31, 5], [-2 ** 31, 7], [2 ** 31 - 9, -3], [17, 2]], np.int64))
        spec = ens.MomentSpec(((1, 2),))
        total = ens.trace_product_total(fake.s, spec, np.ones(4, np.int64))
        assert total == sum(int(v) ** 2 for v in fake.s[:, 0])

    @pytest.mark.parametrize("q", [11, 13])
    @pytest.mark.parametrize("text", ["(6,5)", "(5,4)", "(1,1);(6,3)", "(5,5)", "(1,1);(6,4)"])
    def test_bigint_fallback_matches_per_curve_products(self, genus2_large_q, monkeypatch,
                                                        q, text):
        s = genus2_large_q[q].s
        spec = ens.MomentSpec.parse(text)
        bound = s.shape[0]
        for k, a in spec.terms:
            bound *= int(np.abs(s[:, k - 1]).max()) ** a
        unit = np.ones(len(s), np.int64)
        grouped, real = [], ens.distinct_rows
        monkeypatch.setattr(ens, "distinct_rows", lambda cols, weights=None: grouped.append(
            (cols.shape, weights is unit)) or real(cols, weights))
        expected = 0
        for row in s.tolist():
            term = 1
            for k, a in spec.terms:
                term *= row[k - 1] ** a
            expected += term
        assert ens.trace_product_total(s, spec, unit) == expected
        # past the guard the spec's own columns are grouped with the unit
        # counts, as each row is one curve, else int64 sums
        assert grouped == ([((s.shape[0], len(spec.terms)), True)]
                           if bound >= ens.INT64_SAFE else [])
        if text in ("(5,5)", "(1,1);(6,4)"):
            assert grouped  # these two cross the guard at both q

    @pytest.mark.parametrize("q", [11, 13])
    @pytest.mark.parametrize("text", ["(6,5)", "(5,4)", "(1,1);(6,3)", "(5,5)", "(1,1);(6,4)",
                                      "(1,1);(2,1)"])
    def test_histogram_totals_match_per_curve_products(self, genus2_large_q, monkeypatch,
                                                       q, text):
        # the trace histogram against the Python-int sum over curves; the
        # guard is decided on the curve count, as above
        data = genus2_large_q[q]
        spec = ens.MomentSpec.parse(text)
        expected = 0
        for row in data.s.tolist():
            term = 1
            for k, a in spec.terms:
                term *= row[k - 1] ** a
            expected += term
        rows, counts = data.trace_histogram()
        assert len(rows) == PINNED_HISTOGRAM_ROWS[(q, 2)]
        grouped, real = [], ens.distinct_rows
        monkeypatch.setattr(ens, "distinct_rows", lambda cols, weights=None: grouped.append(
            cols.shape[0]) or real(cols, weights))
        assert ens.trace_product_total(rows, spec, counts) == expected
        bound = data.count
        for k, a in spec.terms:
            bound *= int(np.abs(data.s[:, k - 1]).max()) ** a
        assert grouped == ([len(rows)] if bound >= ens.INT64_SAFE else [])
        if spec.total % 2:
            assert expected == 0
        # fresh data reads its histogram only, and reports as a read-back copy
        monkeypatch.undo()
        blind = dataclasses.replace(data, s=None)
        read_back = ens.EnsembleData(q, 2, data.N, data.coeffs, data.s)
        assert ens.trace_product_moment(blind, spec) == ens.trace_product_moment(read_back, spec)

    def test_out_of_range_flagged(self, data_g1):
        rep = ens.trace_product_moment(data_g1, ens.MomentSpec.parse("(2,2)"))
        assert not rep.in_range  # 4 > 2g - 1 = 1


class TestZMomentRoutes:
    @pytest.mark.parametrize("tf", [linstat.triangular(1), linstat.triangular(3),
                                    linstat.parse_test_function("0:1;1/4:2,-4;1/2")])
    def test_int64_and_python_routes_agree(self, data_g2, genus2_large_q, monkeypatch, tf):
        # the Python route is forced by a guard of 0; ZWeights.parts runs on
        # that route only.  Fresh data, with its traces dropped so that only
        # its histogram is read, and a read-back copy give the same reports
        # on both routes
        calls, parts = [], linstat.ZWeights.parts
        monkeypatch.setattr(linstat.ZWeights, "parts",
                            lambda self, s: calls.append(1) or parts(self, s))
        for fresh in (data_g2, genus2_large_q[13]):
            read_back = ens.EnsembleData(fresh.q, fresh.g, fresh.N, fresh.coeffs, fresh.s)
            reports = []
            for data in (dataclasses.replace(fresh, s=None), read_back):
                for guard in (ens.INT64_SAFE, 0):
                    monkeypatch.setattr(linstat, "INT64_SAFE", guard)
                    calls.clear()
                    reports.append(linstat.z_moments(data, tf, 5))
                    assert bool(calls) == (guard == 0)
            first = reports[0]
            for rep in reports[1:]:
                assert rep.raw_moments == first.raw_moments
                assert rep.central_moments == first.central_moments


class TestSquaresPrediction:
    def test_even_singles(self):
        assert ens.squares_prediction(3, ens.MomentSpec.parse("(4,1)")) == Fraction(-2, 3)
        assert ens.squares_prediction(3, ens.MomentSpec.parse("(6,1)")) == Fraction(-8, 9)
        assert ens.squares_prediction(3, ens.MomentSpec.parse("(2,1)")) == Fraction(-1)

    def test_odd_singles_vanish(self):
        for k in (1, 3, 5):
            assert ens.squares_prediction(3, ens.MomentSpec.parse(f"({k},1)")) == 0

    def test_squared_terms(self):
        assert ens.squares_prediction(3, ens.MomentSpec.parse("(2,2)")) == 2
        assert ens.squares_prediction(3, ens.MomentSpec.parse("(4,2)")) == Fraction(104, 27)

    @pytest.mark.parametrize("terms", [((2, 2),), ((4, 2),), ((4, 1),), ((3, 2),),
                                       ((2, 1), (4, 2)), ((6, 3),)])
    def test_leading_binomial_limit_equals_matrix_integral(self, terms):
        # replace the two binomial factors by their leading asymptotic forms;
        # the q powers cancel and the Gaussian product formula must emerge
        from hypfrob.rmt import usp_moment_exact
        q = 3
        total = Fraction(1)
        for k, a in terms:
            acc = Fraction(0)
            for i in range(a // 2 + 1):
                t = a - 2 * i
                if k % 2 == 1 and t > 0:
                    continue
                lead_pi = Fraction(q ** (i * k), k ** i * math.factorial(i))
                lead_half = (Fraction(q ** (t * k // 2) * 2 ** t, k ** t * math.factorial(t))
                             if k % 2 == 0 else Fraction(1))
                acc += (Fraction(math.comb(a, 2 * i))
                        * Fraction(math.factorial(2 * i), 2 ** i)
                        * math.factorial(t)
                        * Fraction(k) ** (2 * i) * Fraction(-k, 2) ** t
                        * lead_pi * lead_half / q ** ((k * a) // 2))
            total *= acc
        assert total == usp_moment_exact(terms, 10).value


class TestDecomposition:
    def test_split_identity_everywhere(self, data_g1, data_g2):
        table = pf.get_prime_table(3, 6)
        for data in (data_g1, data_g2):
            for i in range(data.count):
                curve = data.curve(i)
                for k in range(1, min(data.N, 6) + 1):
                    dec = ens.term_decomposition(curve, k, table)
                    total = dec.prime_part + dec.square_part + dec.higher_part
                    assert total == -int(data.s[i][k - 1])

    def test_square_part_vanishes_for_odd_k(self, data_g2):
        table = pf.get_prime_table(3, 5)
        for i in range(0, data_g2.count, 19):
            for k in (1, 3, 5):
                assert ens.term_decomposition(data_g2.curve(i), k, table).square_part == 0


class TestPrimeTermMoment:
    def test_power_identity(self, data_g2):
        # <P_k^2> = <P(2,k)> + <Delta(2,k)> exactly
        decomp = ens.DecompositionData.build(data_g2)
        for k in range(1, 6):
            rep = ens.prime_term_moment(decomp, k, 1)
            assert rep.p_power_mean == rep.p2_tuple_mean + rep.delta2_mean

    def test_delta2_against_divisor_average(self, data_g2):
        decomp = ens.DecompositionData.build(data_g2)
        k = 4
        pi_k = pf.irreducible_count(3, k)
        zbar = Fraction(int(decomp.z[:, k].astype(np.int64).sum()), data_g2.count)
        rep = ens.prime_term_moment(decomp, k, 1)
        assert rep.delta2_mean == Fraction(k * k) * (pi_k - zbar) / 3 ** k
        assert rep.reference == k

    def test_l_zero_is_one(self, data_g2):
        decomp = ens.DecompositionData.build(data_g2)
        assert ens.prime_term_moment(decomp, 2, 0).p_power_mean == 1

    def test_exact_where_pi_k_passes_int64(self, tmp_path, capsys):
        # at (3, 1) the sum of pi_k over the 18 curves passes 2^63 from
        # k = 41 on, and pi_k itself from k = 44 on; the oracle takes every
        # curve's traces from its L-polynomial and the prime sums c_k from
        # the explicit formula, all in Python ints
        q, g, ks = 3, 1, range(38, 45)
        data = ens.compute_ensemble_data(q, g, max(ks))
        decomp = ens.DecompositionData.build(data)
        curves = [data.curve(i) for i in range(data.count)]
        assert 18 * pf.irreducible_count(q, 40) < 2 ** 63 <= 18 * pf.irreducible_count(q, 41)
        assert pf.irreducible_count(q, 43) < 2 ** 63 <= pf.irreducible_count(q, 44)
        c, z = [], []
        for curve in curves:
            A = lf.dirichlet_coefficients(curve.row, q, strategy="enumerate")[0]
            s = lf.newton_power_sums(lf.complete_l(curve, A), max(ks))
            degrees = [pf.degree(P) for P, _m in pf.factorize(curve.Q, q).factors]
            zc = {k: degrees.count(k) for k in range(1, max(ks) + 1)}
            cc = {}
            for k in range(1, max(ks) + 1):
                part = sum(d * (cc[d] if (k // d) % 2 else pf.irreducible_count(q, d) - zc[d])
                           for d in range(1, k) if k % d == 0)
                cc[k], rem = divmod(-s[k - 1] - part, k)
                assert rem == 0
            c.append(cc)
            z.append(zc)
        n = len(curves)
        for k in ks:
            free = sum(pf.irreducible_count(q, k) - zc[k] for zc in z)
            for l in (1, 2):
                rep = ens.prime_term_moment(decomp, k, l)
                assert rep.delta2_mean == Fraction(k ** 2 * free, n * q ** k)
                assert rep.p2_tuple_mean == Fraction(
                    k ** 2 * (sum(cc[k] ** 2 for cc in c) - free), n * q ** k)
                assert rep.p_power_mean == Fraction(
                    k ** (2 * l) * sum(cc[k] ** (2 * l) for cc in c), n * q ** (l * k))
        for k in (41, 44):
            assert main(["decompose", "--q", "3", "--g", "1", "--k", str(k),
                         "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)]) == 0
            assert f"<delta2> +{k}.000000 (ref {k})" in capsys.readouterr().out

    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_per_curve_loop(self, data_g2, genus2_large_q, l):
        for data in (data_g2, genus2_large_q[11]):
            decomp = ens.DecompositionData.build(data)
            q, n = data.q, data.count
            for k in range(1, data.N + 1):
                col = [int(v) for v in decomp.c[:, k]]
                free = sum(pf.irreducible_count(q, k) - int(z) for z in decomp.z[:, k])
                rep = ens.prime_term_moment(decomp, k, l)
                assert rep.p_power_mean == Fraction(
                    k ** (2 * l) * sum(v ** (2 * l) for v in col), n * q ** (l * k))
                assert rep.p2_tuple_mean == Fraction(
                    k ** 2 * (sum(v * v for v in col) - free), n * q ** k)
                assert rep.delta2_mean == Fraction(k ** 2 * free, n * q ** k)


_NEAR_EDGE = st.one_of(st.integers(-3, 3),
                       st.integers(2 ** 62 - 3, 2 ** 62 + 3),
                       st.integers(-2 ** 62 - 3, -2 ** 62 + 3),
                       st.integers(-2 ** 63, 2 ** 63 - 1))


class TestDistinctRows:
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.lists(st.tuples(*[_NEAR_EDGE] * m), min_size=1, max_size=8),
        st.lists(st.integers(0, 7), min_size=1, max_size=40))))
    def test_rows_and_counts_rebuild_the_input(self, drawn):
        pool, picks = drawn
        # draw rows from a small pool, so many rows repeat
        given_rows = [pool[i % len(pool)] for i in picks]
        rows, counts = ens.distinct_rows(np.array(given_rows, np.int64))
        assert rows.dtype == counts.dtype == np.int64
        assert rows.shape == (len(counts), len(given_rows[0]))
        assert list(map(tuple, rows.tolist())) == sorted(set(given_rows))
        assert (counts > 0).all() and counts.sum() == len(given_rows)
        rebuilt = [tuple(row) for row, c in zip(rows.tolist(), counts.tolist())
                   for _ in range(c)]
        assert rebuilt == sorted(given_rows)

    def test_no_columns_or_no_rows(self):
        for cols, rows, counts in ((np.zeros((5, 0), np.int64), [[]], [5]),
                                   (np.zeros((0, 3), np.int64), [], [])):
            got_rows, got_counts = ens.distinct_rows(cols)
            assert got_rows.shape == (len(rows), cols.shape[1])
            assert got_rows.tolist() == rows and got_counts.tolist() == counts
            # weights of shape (n,) and (n, w) sum to that shape per row
            for weights in (np.arange(len(cols)) - 2, np.ones((len(cols), 2), np.int64)):
                got_rows, sums = ens.distinct_rows(cols, weights)
                assert got_rows.shape == (len(rows), cols.shape[1])
                assert sums.dtype == np.int64 and sums.shape[1:] == weights.shape[1:]
                assert sums.tolist() == ([weights.sum(axis=0).tolist()] if rows else [])

    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
        st.tuples(st.tuples(*[st.integers(-3, 3)] * m), st.integers(-2 ** 40, 2 ** 40),
                  st.integers(-5, 5)), min_size=1, max_size=40)))
    def test_weights_are_summed_per_distinct_row(self, drawn):
        cols = np.array([row for row, _, _ in drawn], np.int64)
        weights = np.array([[u, v] for _, u, v in drawn], np.int64)
        sums = {}
        for row, u, v in drawn:
            acc = sums.setdefault(row, [0, 0])
            acc[0] += u
            acc[1] += v
        rows, got = ens.distinct_rows(cols, weights)
        assert list(map(tuple, rows.tolist())) == sorted(sums)
        assert got.tolist() == [sums[row] for row in sorted(sums)]
        rows_1d, got_1d = ens.distinct_rows(cols, weights[:, 1])
        assert np.array_equal(rows_1d, rows) and np.array_equal(got_1d, got[:, 1])
        # unit weights give the multiplicities
        assert np.array_equal(ens.distinct_rows(cols, np.ones(len(cols), np.int64))[1],
                              ens.distinct_rows(cols)[1])

    @staticmethod
    def counter_oracle(cols):
        tally = Counter(tuple(int(v) for v in row) for row in cols)
        rows = sorted(tally)
        return rows, [tally[row] for row in rows]

    @staticmethod
    def as_lists(result):
        rows, counts = result
        return list(map(tuple, rows.tolist())), counts.tolist()

    @pytest.mark.parametrize("dtype", [np.int16, np.uint8])
    def test_small_dtypes_match_counter(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(5)
        for m in (1, 2, 4):
            # extreme values of the dtype, and a small pool so rows repeat
            pool = rng.integers(info.min, info.max, (30, m), endpoint=True, dtype=dtype)
            pool[0], pool[1] = info.min, info.max
            cols = pool[rng.integers(0, len(pool), 500)]
            assert self.as_lists(ens.distinct_rows(cols)) == self.counter_oracle(cols)

    def test_non_contiguous_column_slice(self):
        rng = np.random.default_rng(6)
        full = rng.integers(-40, 40, (3000, 7)) // 9
        cols = full[::2, 1:6:2]
        assert not cols.flags.c_contiguous
        assert self.as_lists(ens.distinct_rows(cols)) == self.counter_oracle(cols)

    def test_rank_rule_on_a_wide_column_and_on_many_columns(self, monkeypatch):
        ranked = []
        real = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: ranked.append(1) or real(*a, **kw))
        rng = np.random.default_rng(7)
        # one column spanning nearly all of int64
        edge = np.array([-2 ** 63, -2 ** 63 + 1, -1, 0, 2 ** 62, 2 ** 63 - 1], np.int64)
        wide = edge[rng.integers(0, len(edge), (200, 1))]
        assert self.as_lists(ens.distinct_rows(wide)) == self.counter_oracle(wide)
        assert ranked
        # columns of span 2^13 each: their span product passes 2^62 from m = 5
        for m in range(5, 10):
            ranked.clear()
            pool = rng.integers(-2 ** 12, 2 ** 12, (40, m))
            pool[0], pool[1] = -2 ** 12, 2 ** 12 - 1
            cols = pool[rng.integers(0, len(pool), 400)]
            assert self.as_lists(ens.distinct_rows(cols)) == self.counter_oracle(cols)
            assert ranked

    def test_trace_columns_match_counter(self, data_g2):
        for k in range(1, data_g2.N + 1):
            cols = data_g2.s[:, :k]
            assert self.as_lists(ens.distinct_rows(cols)) == self.counter_oracle(cols)


class TestCacheRoundTrip:
    def test_trace_cache(self, tmp_path, data_g1):
        path = str(tmp_path / "traces.bin")
        cachemod.write_trace_cache(path, data_g1)
        q, g, N, coeffs, s = cachemod.read_trace_cache(path)
        assert (q, g, N) == (3, 1, data_g1.N)
        assert np.array_equal(coeffs, data_g1.coeffs)
        assert np.array_equal(s, data_g1.s)

    @pytest.mark.parametrize("block_rows", [cachemod.WRITE_BLOCK_ROWS, 7])
    def test_written_bytes_are_header_then_records(self, tmp_path, data_g2, block_rows,
                                                   monkeypatch):
        # 162 rows: one block, or 23 blocks of 7 and a last one of 1
        monkeypatch.setattr(cachemod, "WRITE_BLOCK_ROWS", block_rows)
        path = tmp_path / "traces.bin"
        cachemod.write_trace_cache(str(path), data_g2)
        n, width = data_g2.coeffs.shape
        dtype = np.dtype([("Q", np.uint8, (width,)), ("s", "<i8", (data_g2.N,))])
        records = np.empty(n, dtype)
        records["Q"] = data_g2.coeffs
        records["s"] = data_g2.s
        header = cachemod.HEADER.pack(cachemod.TR_MAGIC, cachemod.VERSION, 3, 2, data_g2.N, n)
        assert path.read_bytes() == header + records.tobytes()

    def test_read_arrays_are_contiguous_and_typed(self, tmp_path, data_g2):
        path = str(tmp_path / "traces.bin")
        cachemod.write_trace_cache(path, data_g2)
        _q, _g, _N, coeffs, s = cachemod.read_trace_cache(path)
        assert coeffs.dtype == np.uint8 and coeffs.flags.c_contiguous
        assert s.dtype == np.int64 and s.flags.c_contiguous
        assert np.array_equal(coeffs, data_g2.coeffs) and np.array_equal(s, data_g2.s)

    def test_find_deeper_cache(self, tmp_path, data_g1):
        path = cachemod.trace_cache_path(str(tmp_path), 3, 1, 6)
        cachemod.write_trace_cache(path, data_g1)
        assert cachemod.find_trace_cache(str(tmp_path), 3, 1, 4) == path
        assert cachemod.find_trace_cache(str(tmp_path), 3, 1, 7) is None

    def test_corrupt_magic_detected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(cachemod.CacheFormatError):
            cachemod.read_trace_cache(str(path))

    def test_file_shorter_than_header_detected(self, tmp_path, data_g1):
        path = tmp_path / "traces.bin"
        cachemod.write_trace_cache(str(path), data_g1)
        blob = path.read_bytes()
        for size in range(cachemod.HEADER.size):
            path.write_bytes(blob[:size])
            with pytest.raises(cachemod.CacheFormatError):
                cachemod.read_trace_cache(str(path))
