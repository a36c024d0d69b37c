"""The benchmark's output checks against brute-force enumeration on tiny
ensembles (q = 3, 5; g = 1, 2), and against deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import itertools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from hypfrob import cache, ensemble  # noqa: E402
from hypfrob.cli import main as hypfrob_main  # noqa: E402


# -- brute force: F_q[x] and F_{q^n} as plain tuples -------------------------------

def evaluate(Q, x, mul, add, one):
    acc = tuple(0 for _ in one)
    for c in reversed(Q):
        acc = add(mul(acc, x), tuple(c * v for v in one))
    return acc


def poly_rem(f, d, q):
    """Remainder of f by the monic d, coefficients lowest degree first."""
    f = list(f)
    for top in range(len(f) - 1, len(d) - 2, -1):
        c = f[top] % q
        if c:
            for j, dj in enumerate(d):
                f[top - len(d) + 1 + j] = (f[top - len(d) + 1 + j] - c * dj) % q
    return [v % q for v in f[:len(d) - 1]]


def poly_mul(f, g, q):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return out


def monic(deg, q):
    for low in itertools.product(range(q), repeat=deg):
        yield list(low) + [1]


def field(q, n):
    """F_{q^n} = F_q[t]/(m): m the first monic degree-n polynomial without a
    root in F_q, which is irreducible for n <= 3."""
    m = [0, 1] if n == 1 else next(
        f for f in monic(n, q)
        if all(sum(c * a ** i for i, c in enumerate(f)) % q for a in range(q)))
    elements = list(itertools.product(range(q), repeat=n))

    def mul(x, y):
        return tuple(poly_rem(poly_mul(list(x), list(y), q) + [0] * n, m, q)[:n])

    def add(x, y):
        return tuple((a + b) % q for a, b in zip(x, y))

    return elements, mul, add, tuple([1] + [0] * (n - 1))


def brute_ensemble(q, g):
    """Every monic squarefree Q of degree 2g+1: no P^2 | Q for monic P."""
    curves = []
    for Q in monic(2 * g + 1, q):
        if all(any(poly_rem(Q, poly_mul(P, P, q), q))
               for d in range(1, g + 1) for P in monic(d, q)):
            curves.append(tuple(Q))
    return curves


def brute_trace(Q, q, n):
    """s_n = q^n + 1 - #C(F_{q^n}), counting every (x, y) with y^2 = Q(x)."""
    elements, mul, add, one = field(q, n)
    squares = {}
    for y in elements:
        yy = mul(y, y)
        squares[yy] = squares.get(yy, 0) + 1
    points = 1 + sum(squares.get(evaluate(Q, x, mul, add, one), 0) for x in elements)
    return q ** n + 1 - points


def brute_z2(Q, q):
    return sum(1 for P in monic(2, q)
               if all(sum(c * a ** i for i, c in enumerate(P)) % q for a in range(q))
               and not any(poly_rem(Q, P, q)))


TINY = [(3, 1), (5, 1)]


@pytest.fixture(scope="module")
def brute():
    out = {}
    for q, g in TINY + [(3, 2)]:
        curves = brute_ensemble(q, g)
        s = np.array([[brute_trace(Q, q, n) for n in (1, 2, 3)] for Q in curves], np.int64)
        out[q, g] = curves, s
    return out


def _write_cache(tmp_path, q, g, N):
    data = ensemble.compute_ensemble_data(q, g, N)
    path = str(tmp_path / f"traces_q{q}_g{g}_N{N}.bin")
    cache.write_trace_cache(path, data)
    return path, data


# -- the four checks ----------------------------------------------------------------

@pytest.mark.parametrize("q,g", TINY)
def test_cache_layout_parses_to_the_brute_force_ensemble(tmp_path, brute, q, g):
    path, data = _write_cache(tmp_path, q, g, 4)
    cq, cg, cN, coeffs, s = checks.read_trace_cache(path)
    curves, bs = brute[q, g]
    assert (cq, cg, cN) == (q, g, 4)
    assert sorted(map(tuple, coeffs.tolist())) == sorted(curves)
    assert np.array_equal(s, data.s)
    order = {Q: i for i, Q in enumerate(curves)}
    idx = [order[tuple(row)] for row in coeffs.tolist()]
    assert np.array_equal(s[:, :3], bs[idx])
    assert checks.check_traces(path, q, g, 4)[0] == []


@pytest.mark.parametrize("q,g", TINY + [(3, 2)])
def test_point_counts_give_s1_and_s2(brute, q, g):
    curves, bs = brute[q, g]
    counts = checks.curve_counts(q, np.array(curves, np.uint8), chunk=7)
    assert np.array_equal(counts["s1"], bs[:, 0])
    assert np.array_equal(counts["s2"], bs[:, 1])


@pytest.mark.parametrize("q,g", TINY + [(3, 2)])
def test_root_counts_give_z1_and_z2(brute, q, g):
    curves, _bs = brute[q, g]
    counts = checks.curve_counts(q, np.array(curves, np.uint8))
    z1 = [sum(1 for a in range(q) if sum(c * a ** i for i, c in enumerate(Q)) % q == 0)
          for Q in curves]
    assert counts["z1"].tolist() == z1
    assert counts["z2"].tolist() == [brute_z2(Q, q) for Q in curves]


@pytest.mark.parametrize("q,g", TINY + [(3, 2)])
def test_newton_closure_predicts_the_higher_traces(brute, q, g):
    _curves, bs = brute[q, g]
    assert np.array_equal(checks.newton_closure(q, g, bs), bs[:, g:])
    bad = bs.copy()
    bad[0, 2] += 2
    assert not np.array_equal(checks.newton_closure(q, g, bad), bad[:, g:])


# -- the checks catch corrupted output ------------------------------------------------

def test_check_traces_flags_a_wrong_trace(tmp_path):
    path, data = _write_cache(tmp_path, 5, 1, 4)
    data.s[7, 0] += 2
    cache.write_trace_cache(path, data)
    errors = checks.check_traces(path, 5, 1, 4)[0]
    assert any("s_1 differs" in e for e in errors)
    assert any("Newton closure" in e for e in errors)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = hypfrob_main(argv)
    return code, buf.getvalue()


def _edit_json(path, row, key, value):
    with open(path) as fh:
        rows = json.load(fh)
    rows[row][key] = value
    with open(path, "w") as fh:
        json.dump(rows, fh)


def test_report_checks_pass_and_catch_edits(tmp_path):
    q, g, N = 3, 2, 6
    common = ["--q", str(q), "--g", str(g), "--cache-dir", str(tmp_path / "c"),
              "--out", str(tmp_path / "o"), "--format", "json"]
    specs = ("(1,2)", "(3,1)", f"({N},5)")
    assert _cli(["moment", *common, "--N", str(N)] + [a for sp in specs for a in ("--spec", sp)])[0] == 0
    assert _cli(["linstat", *common, "--tf", "triangular:1", "--moments", "4"])[0] == 0
    assert _cli(["decompose", *common, "--l", "2"])[0] == 0
    errors, s, counts = checks.check_traces(str(tmp_path / "c" / f"traces_q{q}_g{g}_N{N}.bin"),
                                            q, g, N)
    assert errors == []
    moment = str(tmp_path / "o" / "moment_q3_g2.json")
    linstat = str(tmp_path / "o" / "linstat_q3_triangular1.json")
    decompose = str(tmp_path / "o" / "decompose_q3_g2.json")
    assert checks.check_moment_report(moment, q, g, s, specs) == []
    assert checks.check_linstat_report(linstat, q, g, s, 1, 4) == []
    assert checks.check_decompose_report(decompose, q, g, s, counts, 2) == []

    _edit_json(moment, 0, "empirical_exact", "1/3")
    assert checks.check_moment_report(moment, q, g, s, specs)
    _edit_json(linstat, 0, "moment2_exact", "1/7 + 1/9*sqrt(3)")
    assert len(checks.check_linstat_report(linstat, q, g, s, 1, 4)) == 2
    _edit_json(decompose, 0, "mean_delta2_exact", "1")
    assert checks.check_decompose_report(decompose, q, g, s, counts, 2)


def test_verify_output_check():
    ok = ("verify q=3 g=1: 18 curves, 0.10s\n  [ok] cardinality: 18 curves\n"
          "verify q=3 g=2: 162 curves, 1.00s\n  [ok] point counts: direct\n")
    assert checks.check_verify_output(ok, 0, 3, 1, 2) == []
    assert checks.check_verify_output(ok.replace("[ok] point", "[FAIL] point"), 1, 3, 1, 2)
    assert checks.check_verify_output(ok.replace("162 curves", "161 curves"), 0, 3, 1, 2)
    assert checks.check_verify_output(ok, 0, 3, 1, 3)
