"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured values they summarize.
"""

import time
from fractions import Fraction

import numpy as np

from hypfrob import cli
from hypfrob import ensemble as ens
from hypfrob import harness, linstat, rmt
from hypfrob import polyfield as pf
from hypfrob.charsym import jacobi_symbol, residue_symbol_product

_CACHE = {}


def _data(q, g, N):
    key = (q, g, N)
    if key not in _CACHE:
        _CACHE[key] = ens.compute_ensemble_data(q, g, N)
    return _CACHE[key]


def _decomp(q, g, N):
    key = ("decomp", q, g, N)
    if key not in _CACHE:
        _CACHE[key] = ens.DecompositionData.build(_data(q, g, N))
    return _CACHE[key]


def _power_split(decomp, k):
    """Per-curve (prime + prime-square, higher-power) parts of -s_k.

    Both are integer arrays in units of q^(-k/2): the part the prime-square
    model covers is k c_k + (k/2)(pi_{k/2} - z_{k/2}); the rest sums d c_d
    (odd e) or d (pi_d - z_d) (even e) over prime powers P^e, e >= 3, with
    deg P = d = k/e.
    """
    q = decomp.data.q
    c = decomp.c.astype(np.int64)
    z = decomp.z.astype(np.int64)
    modelled = k * c[:, k]
    if k % 2 == 0:
        modelled = modelled + (k // 2) * (pf.irreducible_count(q, k // 2) - z[:, k // 2])
    higher = np.zeros_like(modelled)
    for e in range(3, k + 1):
        if k % e == 0:
            d = k // e
            higher += d * c[:, d] if e % 2 else d * (pf.irreducible_count(q, d) - z[:, d])
    return modelled, higher


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}" + (f": {detail}" if detail else ""))
    return ok


def test_criterion_1_exact_structure_exhaustive():
    t0 = time.perf_counter()
    results = [harness.verify_suite(3, 1, exhaustive=True),
               harness.verify_suite(3, 2, exhaustive=True),
               harness.verify_suite(5, 1, exhaustive=True)]
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in results) and elapsed < 60.0
    detail = (f"{[r.curves for r in results]} curves exhaustively checked "
              f"in {elapsed:.1f}s (< 60s)")
    assert _report(1, "exact structure on 18 + 162 + 100 curves", ok, detail), \
        [ln for r in results for ln in r.lines() if ln.startswith("[FAIL")]


def test_criterion_2_scale_runs():
    t0 = time.perf_counter()
    d4 = _data(3, 4, 9)
    decomp = _decomp(3, 4, 9)
    specs = [f"({k},1)" for k in range(1, 10)] + ["(2,2)", "(4,2)", "(2,1);(4,1)"]
    reports = [ens.trace_product_moment(d4, ens.MomentSpec.parse(s)) for s in specs]
    prime_reports = [ens.prime_term_moment(decomp, k, l) for k, l in
                     ((4, 1), (4, 2), (6, 1))]
    g4_time = time.perf_counter() - t0
    t1 = time.perf_counter()
    d5 = _data(3, 5, 9)
    g5_time = time.perf_counter() - t1
    ok = (d4.count == 13122 and d5.count == 118098
          and g4_time < 600.0 and g5_time < 1800.0
          and len(reports) == 12 and len(prime_reports) == 3)
    detail = (f"g=4 full moment/decomposition suite {g4_time:.1f}s (< 600s); "
              f"g=5 traces {g5_time:.1f}s (< 1800s)")
    assert _report(2, "scale runs at g=4 and g=5", ok, detail)


def test_criterion_3_closed_form_sum_tables():
    failures = []
    # Moebius-sum table, exact for alpha below the minimal degree
    degree_sets = [(1,), (2,), (3,), (4,), (2, 3), (2, 4), (3, 4), (2, 3, 4)]
    for degrees in degree_sets:
        for alpha in range(0, min(degrees)):
            expected = 1 if alpha == 0 else (-3 if alpha == 1 else 0)
            got = ens.sigma_sum(3, degrees, alpha)
            if got != expected:
                failures.append(f"sigma{degrees} alpha={alpha}: {got} != {expected}")
    # multiple character sums vanish at and beyond the degree sum
    for degrees in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        total = sum(degrees)
        for beta in (total, total + 1):
            got = ens.multi_char_sum(3, beta, degrees)
            if got != 0:
                failures.append(f"S({beta};{degrees}) = {got} != 0")
    # coprimality sandwich at q=3, g=2 for 20 squarefree moduli
    spec = ens.EnsembleSpec(3, 2)
    table = pf.get_prime_table(3, 3)
    singles = [(p,) for p in table.primes_up_to(3)]           # 14 moduli
    pairs = [(table.irreducibles(1)[0], table.irreducibles(1)[1]),
             (table.irreducibles(1)[0], table.irreducibles(2)[0]),
             (table.irreducibles(1)[2], table.irreducibles(2)[1]),
             (table.irreducibles(2)[0], table.irreducibles(2)[1]),
             (table.irreducibles(1)[0], table.irreducibles(3)[0])]
    triples = [tuple(table.irreducibles(1))]
    moduli = (singles + pairs + triples)[:20]
    assert len(moduli) == 20
    curves = [pf.monic_from_code(int(c), 5, 3) for c in ens.squarefree_codes(3, 2)]
    if curves != [M for M in pf.monic_polys(5, 3) if pf.is_squarefree(M, 3)]:
        failures.append("squarefree sieve differs from the is_squarefree filter")
    for primes in moduli:
        f = (1,)
        for prime in primes:
            f = pf.poly_mul(f, prime, 3)
        hits = sum(1 for Q in curves if pf.degree(pf.poly_gcd(Q, f, 3)) > 0)
        avg = 1 - Fraction(hits, spec.count)
        lower = 1 - Fraction(1, 1 - Fraction(1, 3)) * sum(
            Fraction(1, 3 ** pf.degree(p)) for p in primes)
        if not (lower <= avg <= 1):
            failures.append(f"sandwich fails for {primes}: {lower} vs {avg}")
    ok = not failures
    assert _report(3, "Moebius table, vanishing character sums, sandwich",
                   ok, f"{len(degree_sets)} sigma sets, 7 S-grids, 20 sandwich moduli"), failures


def test_criterion_4_dual_path_identities():
    failures = []
    # direct vs decomposed ensemble averages, ten functionals, g = 1 and 2
    for g in (1, 2):
        spec = ens.EnsembleSpec(3, g)
        for name, table in harness._battery(3, g):
            direct = ens.ensemble_average(spec, table)
            decomposed = ens.moebius_decomposed_average(spec, table)
            if direct != decomposed:
                failures.append(f"averages differ for {name} at g={g}")
    # Euclidean vs factorization-product Jacobi symbols
    table = pf.get_prime_table(3, 4)
    denoms = [f for d in range(1, 5) for f in pf.monic_polys(d, 3)]
    numers = [()] + [tuple(u * c % 3 for c in f) for d in range(0, 4)
                     for f in pf.monic_polys(d, 3) for u in (1, 2)]
    for A in denoms:
        for B in numers:
            if jacobi_symbol(B, A, 3) != residue_symbol_product(B, A, 3, table):
                failures.append(f"jacobi mismatch at ({B}, {A})")
    # definitional vs reciprocity multiple character sums
    for degrees in [(1,), (2,), (3,), (1, 2), (2, 3), (2, 2)]:
        for beta in range(0, sum(degrees) + 2):
            a = ens.multi_char_sum(3, beta, degrees, method="direct")
            b = ens.multi_char_sum(3, beta, degrees, method="reciprocity")
            if a != b:
                failures.append(f"S paths differ at ({beta}, {degrees})")
    # per-curve power decomposition against both trace routes
    ptable = pf.get_prime_table(3, 6)
    for g in (1, 2):
        data = _data(3, g, 2 * g + 2)
        for i in range(data.count):
            curve = data.curve(i)
            for k in range(1, min(6, data.N) + 1):
                dec = ens.term_decomposition(curve, k, ptable)
                if dec.prime_part + dec.square_part + dec.higher_part != -int(data.s[i][k - 1]):
                    failures.append(f"decomposition fails at g={g} curve {i} k={k}")
    # and on a g = 4 stride sample against the vectorized pipeline
    d4 = _data(3, 4, 9)
    for i in range(0, d4.count, 487):
        curve = d4.curve(i)
        for k in (2, 4, 6):
            dec = ens.term_decomposition(curve, k, pf.get_prime_table(3, 6))
            if dec.prime_part + dec.square_part + dec.higher_part != -int(d4.s[i][k - 1]):
                failures.append(f"decomposition fails at g=4 curve {i} k={k}")
    ok = not failures
    assert _report(4, "dual-path identities exact everywhere run", ok,
                   "averages, Jacobi, S sums, decompositions"), failures[:5]


def test_criterion_5_rmt_oracle_agreement():
    failures = []
    spots = [(((2, 2),), 3), (((4, 2),), 5), (((1, 1),), 0), (((3, 1),), 0),
             (((5, 1),), 0), (((2, 1),), -1), (((4, 1),), -1)]
    for terms, expected in spots:
        got = rmt.usp_moment_exact(terms, 5).value
        if got != expected:
            failures.append(f"spot {terms}: {got} != {expected}")
    checked = 0
    for g in (1, 2):
        limit = 2 * g + 1
        specs = []
        for k in range(1, min(5, limit) + 1):
            for a in range(1, limit // k + 1):
                specs.append(((k, a),))
        for k1 in range(1, 6):
            for k2 in range(k1 + 1, 6):
                for a1 in range(1, limit + 1):
                    for a2 in range(1, limit + 1):
                        if a1 * k1 + a2 * k2 <= limit:
                            specs.append(((k1, a1), (k2, a2)))
        for terms in specs:
            exact = rmt.usp_moment_exact(terms, g)
            quad = rmt.weyl_quadrature_moment(terms, g)
            checked += 1
            if abs(quad - exact.value) >= 1e-6:
                failures.append(f"g={g} {terms}: quad {quad} vs exact {exact.value}")
    ok = not failures
    assert _report(5, "matrix-integral formula vs quadrature oracle", ok,
                   f"{checked} specs within 1e-6, plus spot values"), failures


def test_criterion_6_finite_size_targets():
    # squares_prediction is the main term of the prime and prime-square terms
    # of tr Theta^k, so it is compared with the exact moment of that part.
    # Prime powers P^e with e >= 3 lie outside the model; their share of the
    # empirical mean is pinned exactly and printed next to it.
    d4 = _data(3, 4, 9)
    decomp = _decomp(3, 4, 9)
    q, n = d4.q, d4.count
    lines = []
    subchecks = []

    splits = {k: _power_split(decomp, k) for k in (4, 6)}
    split_ok = all(np.array_equal(modelled + higher, -d4.s[:, k - 1].astype(np.int64))
                   for k, (modelled, higher) in splits.items())
    subchecks.append(("prime + square + higher == -s_k on every curve", split_ok))
    table = pf.get_prime_table(3, 6)
    stride_ok = all(ens.term_decomposition(d4.curve(i), k, table).higher_part
                    == splits[k][1][i]
                    for i in range(0, n, 487) for k in (4, 6))
    subchecks.append(("bulk e >= 3 part == term_decomposition on the stride", stride_ok))
    higher_means = {k: Fraction(-int(higher.sum()), n * q ** (k // 2))
                    for k, (_modelled, higher) in splits.items()}
    subchecks.append(("<e >= 3 part of tr^4> == -4921/19683",
                      higher_means[4] == Fraction(-4921, 19683)))

    def modelled_moment(k, a):
        total = sum((-v) ** a for v in splits[k][0].tolist())
        return Fraction(total, n * q ** (k * a // 2))

    gaps = {}
    for k in (4, 6):
        rep = ens.trace_product_moment(d4, ens.MomentSpec.parse(f"({k},1)"))
        modelled = modelled_moment(k, 1)
        higher = higher_means[k]
        subchecks.append((f"<tr^{k}> == prime+square part + e >= 3 part",
                          not rep.empirical.half and rep.empirical.frac == modelled + higher))
        gap = abs(float(modelled) - float(rep.squares))
        gaps[k] = abs(float(rep.squares) - float(rep.rmt_moment.value))
        ok = gap <= 0.15
        subchecks.append((f"|<tr^{k} prime+square part> - squares| <= 0.15", ok))
        lines.append(f"k={k}: empirical {rep.empirical.exact_str()} = "
                     f"{float(rep.empirical):+.6f} (gap {rep.dev_vs_squares:.4f}), "
                     f"e>=3 part {higher} = {float(higher):+.6f}")
        lines.append(f"k={k}: prime+square part {modelled} = {float(modelled):+.6f}, "
                     f"squares {rep.squares} = {float(rep.squares):+.6f}, gap {gap:.4f} "
                     f"{'<=' if ok else '>'} 0.15")
    shrink_ok = gaps[6] < gaps[4]
    subchecks.append(("|squares - asymptote| shrinks from k=4 to k=6", shrink_ok))
    lines.append(f"|squares - asymptote|: k=4 {gaps[4]:.4f} -> k=6 {gaps[6]:.4f}"
                 f" ({'shrinks' if shrink_ok else 'does not shrink'})")

    rep42 = ens.trace_product_moment(d4, ens.MomentSpec.parse("(4,2)"))
    modelled42 = modelled_moment(4, 2)
    gap42 = abs(float(modelled42) - float(rep42.squares))
    ok42 = gap42 <= 0.5
    subchecks.append(("|<(tr^4 prime+square part)^2> - squares| <= 0.5", ok42))
    rmt_shown = rep42.rmt_moment.value == 5
    subchecks.append(("report shows the matrix-integral value 5", rmt_shown))
    lines.append(f"(4,2): empirical {rep42.empirical.exact_str()} = "
                 f"{float(rep42.empirical):+.6f} (gap {rep42.dev_vs_squares:.4f}), "
                 f"matrix-integral {rep42.rmt_moment.value}")
    lines.append(f"(4,2): prime+square part {modelled42} = {float(modelled42):+.6f}, "
                 f"squares {rep42.squares} = {float(rep42.squares):+.6f}, gap {gap42:.4f} "
                 f"{'<=' if ok42 else '>'} 0.5")

    for line in lines:
        print("  " + line)
    ok = all(flag for _name, flag in subchecks)
    _report(6, "finite-size targets at g=4", ok,
            "; ".join(f"{name}: {'ok' if flag else 'VIOLATED'}"
                      for name, flag in subchecks if not flag) or "all subchecks hold")
    assert ok, [name for name, flag in subchecks if not flag]


def test_criterion_7_mock_gaussian_trend():
    tf = linstat.triangular(3)
    mean_ref, var_ref = linstat.mock_gaussian_reference(tf)
    assert mean_ref == Fraction(5, 6)
    # exact symbolic integration of the squared transform against |u|;
    # 2 * int_{-1/2}^{1/2} |u| (1-3|u|)^2 du = 4 * int_0^{1/3} u (1-3u)^2 du
    assert var_ref == Fraction(1, 27)
    reports = {}
    for g in (3, 4, 5):
        reports[g] = linstat.z_moments(_data(3, g, 9), tf, 3)
    print(f"  references: mean {mean_ref}, variance {var_ref}, "
          f"raw moments {[str(r) for r in reports[3].references]}")
    for g in (3, 4, 5):
        rep = reports[g]
        moments = ", ".join(f"M{j + 1} {float(m):+.6f} (dev {d:.6f})"
                            for j, (m, d) in enumerate(zip(rep.raw_moments, rep.deviations)))
        print(f"  g={g}: {moments}")
    trend_ok = all(reports[5].deviations[j] <= 1.2 * reports[3].deviations[j]
                   for j in range(3))
    # soft monotonicity between consecutive genera, 20% slack
    soft_ok = all(reports[h].deviations[j] <= 1.2 * reports[l].deviations[j]
                  for l, h in ((3, 4), (4, 5)) for j in range(3))
    assert _report(7, "mock-Gaussian moments, deviation trend g=3 -> g=5",
                   trend_ok and soft_ok,
                   "dev(g=5) <= 1.2 * dev(g=3) and consecutive-g slack 20%")


def test_criterion_8_determinism(tmp_path):
    # identical bits for any worker count and across repeated runs; worker
    # counts exist only at the command line, so the ladder runs through it
    def run(argv, workers):
        base = tmp_path / f"{argv[0]}-w{workers}"
        code = cli.main(argv + ["--workers", str(workers), "--format", "json",
                                "--cache-dir", str(base / "cache"),
                                "--out", str(base / "reports")])
        assert code == 0
        return {p.relative_to(base).as_posix(): p.read_bytes()
                for p in sorted(base.rglob("*")) if p.is_file()}

    # trace caches plus the moment report at g = 4, the statistic moments at g = 5
    ladders = (["moment", "--q", "3", "--g", "4", "--N", "9", "--spec", "(4,2)"],
               ["linstat", "--q", "3", "--g", "5", "--N", "9", "--tf", "triangular:3",
                "--moments", "3"])
    ok = True
    for argv in ladders:
        outputs = [run(argv, workers) for workers in (1, 4, 16)]
        ok = ok and len(outputs[0]) == 2 and all(o == outputs[0] for o in outputs)
    assert _report(8, "bit-identical outputs across workers {1,4,16} and reruns", ok,
                   "trace caches, moment report values, statistic moments")
