"""Output checks made apart from hypfrob: this module imports numpy only.

- The trace cache is parsed from the byte layout documented in
  `hypfrob/cache.py`, not through the package.
- `s_1` and `s_2` of every curve come from point counts: over `F_q`, and
  over `F_{q^2} = F_q[t]/(t^2 - ns)` with `ns` the least non-square, where
  `beta` has `1 + chi_q(N(beta))` square roots by the norm map.
- Root counts of `Q` give `z_1` (roots in `F_q`) and `z_2` (half the roots
  in `F_{q^2} \\ F_q`).
- Newton closure: with `A_{2g-i} = q^{g-i} A_i`, `s_1..s_g` fix `s_{g+1..N}`.
- Moments are exact Python-int sums over the distinct trace rows.

Every `check_*` function returns a list of error strings; empty means ok.
"""

import json
import math
import os
import struct
from fractions import Fraction

import numpy as np

TR_MAGIC = b"HFTR"
TR_HEADER = struct.Struct("<IIIIQ")


# -- cache layout ---------------------------------------------------------------

def read_trace_cache(path):
    """(q, g, N, coeffs (n, 2g+2) uint8, s (n, N) int64) from a trace cache:
    magic 'HFTR' | u32 version | u32 q | u32 g | u32 N | u64 count, then per
    curve 2g+2 u8 coefficients (lowest degree first) and N little-endian i64."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TR_MAGIC:
        raise ValueError(f"{path}: magic {blob[:4]!r}")
    _version, q, g, N, count = TR_HEADER.unpack_from(blob, 4)
    width = 2 * g + 2
    record = width + 8 * N
    body = blob[4 + TR_HEADER.size:]
    if len(body) != count * record:
        raise ValueError(f"{path}: {len(body)} body bytes for {count} records of {record}")
    raw = np.frombuffer(body, np.uint8).reshape(count, record)
    coeffs = raw[:, :width].copy()
    s = raw[:, width:].copy().view("<i8").astype(np.int64)
    return q, g, N, coeffs, s


# -- point and root counts ----------------------------------------------------------

def least_nonsquare(q):
    return next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)


def curve_counts(q, coeffs, chunk=8192):
    """Per curve: s_1, s_2 from point counts and z_1, z_2 from root counts.

    Q has coefficients in F_q, so Q(a - bt) is the conjugate of Q(a + bt) and
    has the same norm and the same number of square roots: of the elements
    with b != 0 only those with 1 <= b <= (q-1)/2 are evaluated, counted twice.
    """
    width = coeffs.shape[1]
    ns = least_nonsquare(q)
    roots_of = np.zeros(q, np.int64)      # number of y in F_q with y^2 = v
    for y in range(q):
        roots_of[y * y % q] += 1
    elements = [(a, b) for b in range(0, (q + 1) // 2) for a in range(q)]
    pa = np.zeros((width, len(elements)))  # alpha^i = pa[i] + pb[i] t
    pb = np.zeros((width, len(elements)))
    for e, (a, b) in enumerate(elements):
        x, y = 1, 0
        for i in range(width):
            pa[i, e], pb[i, e] = x, y
            x, y = (x * a + ns * y * b) % q, (x * b + y * a) % q
    weight = np.where(np.arange(len(elements)) < q, 1, 2)
    # square roots in F_{q^2} of a + b t, indexed by a q + b, via the norm
    a_all, b_all = np.divmod(np.arange(q * q), q)
    roots_of_pair = roots_of[(a_all * a_all - ns * b_all * b_all) % q]
    out = {key: np.empty(coeffs.shape[0], np.int64) for key in ("s1", "s2", "z1", "z2")}
    for lo in range(0, coeffs.shape[0], chunk):
        c = coeffs[lo:lo + chunk].astype(np.float64)
        a = (c @ pa).astype(np.int32) % q
        pair = a * q + (c @ pb).astype(np.int32) % q
        zero = pair == 0
        sl = slice(lo, lo + len(c))
        out["s1"][sl] = q + 1 - (1 + roots_of[a[:, :q]].sum(axis=1))  # one point at infinity
        out["s2"][sl] = q * q + 1 - (1 + roots_of_pair[pair] @ weight)
        out["z1"][sl] = zero[:, :q].sum(axis=1)
        out["z2"][sl] = zero[:, q:].sum(axis=1)
    return out


def newton_closure(q, g, s):
    """s_{g+1..N} predicted from s_1..s_g: inverse Newton for A_1..A_g (the
    division must be exact), the functional equation for A_{g+1..2g},
    forward Newton for the power sums."""
    n, N = s.shape
    A = np.zeros((n, 2 * g + 1), np.int64)
    A[:, 0] = 1
    for m in range(1, g + 1):
        acc = s[:, m - 1].copy()
        for i in range(1, m):
            acc += A[:, i] * s[:, m - i - 1]
        if (acc % m).any():
            raise ArithmeticError(f"inverse Newton not integral at A_{m}")
        A[:, m] = -(acc // m)
    for beta in range(g + 1, 2 * g + 1):
        A[:, beta] = q ** (beta - g) * A[:, 2 * g - beta]
    p = np.zeros((n, N + 1), np.int64)
    p[:, 1:g + 1] = s[:, :g]
    for m in range(g + 1, N + 1):
        acc = -m * A[:, m] if m <= 2 * g else np.zeros(n, np.int64)
        for i in range(1, min(m - 1, 2 * g) + 1):
            acc = acc - A[:, i] * p[:, m - i]
        p[:, m] = acc
    return p[:, g + 1:]


def check_traces(path, q, g, N):
    """The cache at `path` holds every curve once, with traces that match the
    point counts and obey the Weil bound and the Newton closure.

    Returns (errors, s, counts) for the checks of reports built on it."""
    errors = []
    cq, cg, cN, coeffs, s = read_trace_cache(path)
    name = os.path.basename(path)
    if (cq, cg, cN) != (q, g, N):
        raise ValueError(f"{name}: header (q,g,N) = {(cq, cg, cN)}, expected {(q, g, N)}")
    n = coeffs.shape[0]
    if n != (q - 1) * q ** (2 * g):
        errors.append(f"{name}: {n} curves, expected (q-1)q^(2g) = {(q - 1) * q ** (2 * g)}")
    if (coeffs[:, -1] != 1).any() or (coeffs >= q).any():
        errors.append(f"{name}: a row is not a monic polynomial over F_{q}")
    codes = coeffs[:, :-1].astype(np.int64) @ (q ** np.arange(2 * g + 1, dtype=np.int64))
    if len(np.unique(codes)) != n:
        errors.append(f"{name}: repeated curves")
    counts = curve_counts(q, coeffs)
    for k in (1, 2):
        bad = np.nonzero(s[:, k - 1] != counts[f"s{k}"])[0]
        if len(bad):
            errors.append(f"{name}: s_{k} differs from the point count on {len(bad)} "
                          f"curves, first {coeffs[bad[0]].tolist()}")
    for k in range(1, N + 1):
        if int(np.abs(s[:, k - 1]).max()) ** 2 > 4 * g * g * q ** k:
            errors.append(f"{name}: |s_{k}| > 2g q^({k}/2)")
    if N > g:
        try:
            closure = newton_closure(q, g, s)
            bad = np.nonzero((closure != s[:, g:]).any(axis=1))[0]
            if len(bad):
                errors.append(f"{name}: Newton closure fails on {len(bad)} curves")
        except ArithmeticError as exc:
            errors.append(f"{name}: {exc}")
    return errors, s, counts


# -- moments ----------------------------------------------------------------------

def parse_spec(label):
    """'(k,a);(k,a)' -> ((k, a), ...) sorted by k."""
    terms = []
    for part in label.split(";"):
        k, a = part.strip("() ").split(",")
        terms.append((int(k), int(a)))
    return tuple(sorted(terms))


def distinct_rows(mat):
    """(distinct rows, multiplicities) of an integer matrix."""
    order = np.lexsort(mat.T[::-1])
    srt = mat[order]
    first = np.ones(len(srt), bool)
    first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    idx = np.nonzero(first)[0]
    return srt[idx], np.diff(np.append(idx, len(srt)))


def exact_product_total(s, terms):
    """sum over curves of prod s_k^a, in Python ints over distinct rows."""
    rows, mult = distinct_rows(s[:, [k - 1 for k, _a in terms]])
    total = 0
    for row, m in zip(rows.tolist(), mult.tolist()):
        term = m
        for v, (_k, a) in zip(row, terms):
            term *= v ** a
        total += term
    return total


def parse_half_power(text):
    """'num/den' or 'num/den * q^(1/2)' -> (Fraction, has sqrt(q) factor)."""
    suffix = " * q^(1/2)"
    half = text.endswith(suffix)
    return Fraction(text[:-len(suffix)] if half else text), half


def check_moment_report(path, q, g, s, specs):
    """Each reported exact moment equals the Python-int sum over the traces;
    a moment with odd sum a_j k_j is exactly 0 by quadratic-twist symmetry."""
    errors = []
    name = os.path.basename(path)
    with open(path) as fh:
        rows = json.load(fh)
    n = s.shape[0]
    want = {parse_spec(sp) for sp in specs}
    got = {parse_spec(r["spec"]) for r in rows}
    if got != want or len(rows) != len(want):
        errors.append(f"{name}: specs {sorted(got)} != {sorted(want)}")
    for r in rows:
        terms = parse_spec(r["spec"])
        total_power = sum(k * a for k, a in terms)
        if r["curves"] != n or r["sum_ak"] != total_power or (r["q"], r["g"]) != (q, g):
            errors.append(f"{name} {r['spec']}: header fields {r['q'], r['g'], r['curves']}")
        total = exact_product_total(s, terms)
        value, half = parse_half_power(r["empirical_exact"])
        if total_power % 2 and total != 0:
            errors.append(f"{name} {r['spec']}: odd-total sum is {total}, not 0")
        if total == 0:
            ok = value == 0
        elif total_power % 2 == 0:
            ok = not half and value == Fraction(total, n * q ** (total_power // 2))
        else:
            ok = half and value == Fraction(total, n * q ** ((total_power + 1) // 2))
        if not ok:
            errors.append(f"{name} {r['spec']}: reported {r['empirical_exact']}, "
                          f"sum over traces {total}/({n} q^({total_power}/2))")
    return errors


# -- linear statistics ------------------------------------------------------------------

def parse_qsqrt(text, q):
    """'a', 'b*sqrt(q)', 'a + b*sqrt(q)' or 'a - b*sqrt(q)' -> (a, b)."""
    root = f"*sqrt({q})"
    if root not in text:
        return Fraction(text), Fraction(0)
    body = text[:-len(root)]
    for sep, sign in ((" + ", 1), (" - ", -1)):
        if sep in body:
            a, b = body.split(sep)
            return Fraction(a), sign * Fraction(b)
    return Fraction(0), Fraction(body)


def triangle_statistic_weights(m, g, q):
    """Z = f(0) + (2/N) sum_{k>=1} f(k/N) s_k q^(-k/2), N = 2g, f(u) = max(0, 1-m|u|).

    Returns (f0, even, odd): Z = f0 + sum_even c s_k + sqrt(q) sum_odd c s_k."""
    N = 2 * g
    even, odd = [], []
    k = 1
    while Fraction(k, N) < Fraction(1, m):
        fk = 1 - m * Fraction(k, N)
        weight = 2 * fk / N / q ** ((k + 1) // 2)   # q^(-k/2) = sqrt(q)/q^((k+1)/2), k odd
        (odd if k % 2 else even).append((k, weight))
        k += 1
    return Fraction(1), even, odd


def check_linstat_report(path, q, g, s, m, moments):
    """Raw moments equal exact sums of (a + b sqrt q)^j; every sqrt(q) part
    is 0 by twist symmetry; the central moments follow from the raw ones."""
    errors = []
    name = os.path.basename(path)
    with open(path) as fh:
        rows = json.load(fh)
    if len(rows) != 1 or (rows[0]["q"], rows[0]["g"]) != (q, g):
        return [f"{name}: expected one row for q={q} g={g}"]
    row = rows[0]
    n = s.shape[0]
    f0, even, odd = triangle_statistic_weights(m, g, q)
    scale = math.lcm(f0.denominator, *(w.denominator for _k, w in even + odd))
    ks = [k for k, _w in even + odd]
    uniq, mult = distinct_rows(s[:, [k - 1 for k in ks]])
    weight = {k: int(w * scale) for k, w in even + odd}
    sums = [[0, 0] for _ in range(moments + 1)]
    for vals, c in zip(uniq.tolist(), mult.tolist()):
        by_k = dict(zip(ks, vals))
        a = int(f0 * scale) + sum(weight[k] * by_k[k] for k, _w in even)
        b = sum(weight[k] * by_k[k] for k, _w in odd)
        pa, pb = 1, 0
        for j in range(1, moments + 1):
            pa, pb = pa * a + q * pb * b, pa * b + pb * a
            sums[j][0] += c * pa
            sums[j][1] += c * pb
    raw = [Fraction(1)]
    for j in range(1, moments + 1):
        den = n * scale ** j
        mine = (Fraction(sums[j][0], den), Fraction(sums[j][1], den))
        got = parse_qsqrt(row[f"moment{j}_exact"], q)
        if mine[1] != 0 or got[1] != 0:
            errors.append(f"{name}: moment {j} has a sqrt(q) part "
                          f"(sum {mine[1]}, reported {row[f'moment{j}_exact']})")
        if got != mine or row[f"moment{j}"] != float(mine[0]):
            errors.append(f"{name}: moment {j} reported {row[f'moment{j}_exact']}, "
                          f"exact sum gives {mine[0]}")
        raw.append(mine[0])
    mean = raw[1]
    for j in range(1, moments + 1):
        central = sum(math.comb(j, i) * raw[i] * (-mean) ** (j - i) for i in range(j + 1))
        if row[f"central{j}"] != float(central):
            errors.append(f"{name}: central moment {j} reported {row[f'central{j}']}, "
                          f"exact {float(central)}")
    return errors


# -- prime-term decomposition --------------------------------------------------------

def check_decompose_report(path, q, g, s, counts, l):
    """prime_symbol_total is 0 for odd k; at k = 2 the means follow from the
    point-count s_2 and the root counts z_1, z_2: c_2 = (-s_2 - q + z_1) / 2."""
    errors = []
    name = os.path.basename(path)
    with open(path) as fh:
        rows = json.load(fh)
    n = s.shape[0]
    ks = [r["k"] for r in rows]
    if ks != list(range(2, min(2 * g + 2, 10))):
        errors.append(f"{name}: k values {ks}")
    for r in rows:
        if r["k"] % 2 and r["prime_symbol_total"] != 0:
            errors.append(f"{name}: prime_symbol_total {r['prime_symbol_total']} at odd k={r['k']}")
    row2 = next((r for r in rows if r["k"] == 2), None)
    if row2 is None:
        return errors + [f"{name}: no k=2 row"]
    twice = -counts["s2"] - q + counts["z1"]
    if (twice % 2).any():
        return errors + [f"{name}: -s_2 - q + z_1 odd on some curve"]
    c2 = twice // 2
    pi2 = (q * q - q) // 2
    values, mult = np.unique(c2, return_counts=True)

    def power_sum(e):
        return sum(int(m) * int(v) ** e for v, m in zip(values, mult))

    free = int((pi2 - counts["z2"]).sum())
    expect = {
        "pi_k": pi2,
        "prime_symbol_total": power_sum(1),
        "mean_delta2_exact": Fraction(4 * free, n * q ** 2),
        "mean_prime_power_exact": Fraction(2 ** (2 * l) * power_sum(2 * l), n * q ** (2 * l)),
        "mean_pair_term_exact": Fraction(4 * (power_sum(2) - free), n * q ** 2),
    }
    for key, value in expect.items():
        got = Fraction(row2[key]) if isinstance(value, Fraction) else row2[key]
        if got != value or row2["curves"] != n or row2["l"] != l:
            errors.append(f"{name}: k=2 {key} reported {row2[key]}, independent {value}")
    return errors


# -- verify ------------------------------------------------------------------------------

def check_verify_output(stdout, exit_code, q, g_lo, g_hi):
    """Exit 0, every check line ok, one block per genus with (q-1)q^(2g) curves."""
    errors = []
    if exit_code != 0:
        errors.append(f"verify q={q}: exit code {exit_code}")
    blocks = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("verify "):
            head = line.split(":")[0].split()
            current = int(head[2][2:])
            blocks[current] = [int(line.split(": ")[1].split()[0]), 0]
        elif line.startswith("  ["):
            if not line.startswith("  [ok] "):
                errors.append(f"verify q={q} g={current}: {line.strip()}")
            blocks[current][1] += 1
    if sorted(blocks) != list(range(g_lo, g_hi + 1)):
        errors.append(f"verify q={q}: genus blocks {sorted(blocks)}")
    for g, (curves, checks) in blocks.items():
        if curves != (q - 1) * q ** (2 * g) or checks == 0:
            errors.append(f"verify q={q} g={g}: {curves} curves, {checks} check lines")
    return errors
