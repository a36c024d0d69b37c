"""Experiment orchestration: configuration, cached data, the invariant
verification suite, and report emission.

Reports are deterministic: CSV files carry a single timestamp comment line
(ignored by byte comparisons), JSON files carry no volatile fields at all.
Exit status contract: 0 ok, 1 hard invariant failure, 2 configuration
error, 3 enumeration budget refusal.
"""

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import cache as cachemod
from . import ensemble as ens
from . import linstat, rmt
from .exact import fraction_str
from .lfunction import (
    dirichlet_coefficients,
    eigenphases,
    explicit_sum,
    newton_power_sums,
    point_count_direct,
    prime_symbols,
    symbol_power_sum,
    symmetry_failure,
    traces_from_eigenphases,
)
from .polyfield import get_prime_table, irreducible_count, monic_rows, poly, prime_residues

CACHE_ENV = "HYPFROB_CACHE_DIR"
PAIRS_PER_PASS = 2 ** 20  # (modulus, prime) pairs per batched symbol pass: ~1 MB of int8
EXPLICIT_PRIMES = 2 ** 13  # primes of degree <= n in verify's explicit sums
EXHAUSTIVE_PAIRS = 2 ** 25  # curves x (those primes + monic B) for verify on every curve


def _passes(count, primes):
    """Consecutive slices of `count` moduli, each one batched symbol pass
    against `primes` primes: as few as keep each pass within PAIRS_PER_PASS."""
    step = max(1, PAIRS_PER_PASS // primes)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    command: str = "verify"
    q: int = 3
    g: int = 1
    g_max: int = None
    N: int = None
    specs: list = field(default_factory=list)
    tf: str = "triangular:3"
    moments: int = 3
    k: int = None
    l: int = 1
    degrees: tuple = (1, 2)
    alpha_max: int = 4
    beta_max: int = None
    workers: int = 1     # parsed and checked; no computation depends on it
    cache_dir: str = None
    out_dir: str = "reports"
    fmt: str = "csv"
    budget: int = ens.DEFAULT_BUDGET
    dump: bool = False
    path: str = None
    custom_tf: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cache_dir is None:
            self.cache_dir = os.environ.get(CACHE_ENV, ".hypfrob-cache")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.g < 1:
            raise ConfigError("genus must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.N is not None and self.N < 0:
            raise ConfigError(f"N must be >= 0, got {self.N}")
        if any(d < 1 for d in self.degrees):
            raise ConfigError("degrees must be >= 1")
        if self.alpha_max < 0:
            raise ConfigError(f"alpha-max must be >= 0, got {self.alpha_max}")
        if self.beta_max is not None and self.beta_max < 0:
            raise ConfigError(f"beta-max must be >= 0, got {self.beta_max}")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    def g_range(self):
        hi = self.g_max if self.g_max is not None else self.g
        if hi < self.g:
            raise ConfigError("g-max below g")
        return range(self.g, hi + 1)


def load_config_file(path):
    """Flat key = value lines; 'tf.NAME = spec' defines custom test functions."""
    values, custom = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key.startswith("tf."):
                custom[key[3:]] = val
            else:
                values[key.replace("-", "_")] = val
    return values, custom


# -- cached ensemble data ---------------------------------------------------------

def load_or_compute_data(q, g, N, cache_dir=None, budget=ens.DEFAULT_BUDGET):
    """Trace data from a warm cache when possible, else computed and cached.

    Returns (EnsembleData, from_cache).  Of a cached file holding deeper
    traces only s_1..s_N are kept; mismatched versions are rebuilt with a
    fresh write.
    """
    path = cachemod.find_trace_cache(cache_dir, q, g, N)
    if path:
        try:
            cq, cg, cN, coeffs, s = cachemod.read_trace_cache(path)
            if (cq, cg) == (q, g) and cN >= N:
                spec = ens.EnsembleSpec(q, g)
                if len(coeffs) == spec.count:
                    return ens.EnsembleData(q=q, g=g, N=N, coeffs=coeffs, s=s[:, :N]), True
        except cachemod.CacheFormatError:
            pass  # stale or foreign file: rebuild below
    data = ens.compute_ensemble_data(q, g, N, budget=budget)
    if cache_dir:
        cachemod.write_trace_cache(cachemod.trace_cache_path(cache_dir, q, g, N), data)
    return data, False


# -- invariant verification suite ---------------------------------------------------

@dataclass
class VerifyResult:
    q: int
    g: int
    curves: int
    checks: list  # (name, ok, detail)
    elapsed: float

    @property
    def ok(self):
        return all(ok for _name, ok, _detail in self.checks)

    def lines(self):
        out = []
        for name, ok, detail in self.checks:
            mark = "ok" if ok else "FAIL"
            out.append(f"[{mark}] {name}: {detail}")
        return out


def _reflect_phase(theta):
    """Negate angles within (-pi, pi]; -pi wraps back to pi."""
    r = np.negative(theta)
    return np.where(r <= -math.pi, r + 2 * math.pi, r)


def _battery(q, g):
    """(name, table) pairs of the ten functionals of the dual-average check
    at genus g, each an int64 table over the monic codes of degree 2g+1,
    total on all monic arguments.  Each table is a product of the columns
    (M/x), (M/(x+1)) and the explicit sums t_1..t_3 over every such M in
    code order.  For a prime P of degree <= 3, (M/P) comes from
    `polyfield.prime_residues`, the trace engine's kernel, on M's
    coefficient row.  The check compares two averages of the same tables,
    so these symbols need no route of their own."""
    table = get_prime_table(q, 3)
    linear = table.irreducibles(1)
    at_x, at_x1 = linear.index(poly((0, 1), q)), linear.index(poly((1, 1), q))
    degree = 2 * g + 1
    codes = np.arange(q ** degree)
    cols = np.empty((5, len(codes)), np.int64)  # chi(x), chi(x+1), t1, t2, t3
    for part in _passes(len(codes), sum(table.counts[d] for d in (1, 2, 3))):
        rows = monic_rows(codes[part], degree, q)
        symbols = {d: prime_residues(q, d, degree + 1)(rows) for d in (1, 2, 3)}
        cols[:, part] = [symbols[1][:, at_x], symbols[1][:, at_x1],
                         *(explicit_sum(symbols, n) for n in (1, 2, 3))]
    factors = (("one", ()), ("chi(x)", (0,)), ("chi(x+1)", (1,)), ("chi(x)^2", (0, 0)),
               ("chi(x(x+1))", (0, 1)), ("t1", (2,)), ("t2", (3,)), ("t1^2", (2, 2)),
               ("t1*t2", (2, 3)), ("t3", (4,)))
    return [(name, math.prod((cols[j] for j in idx), start=np.ones(len(codes), np.int64)))
            for name, idx in factors]


class _Tally:
    """One named check: how many items it checked, how many failed, and
    the first failure."""

    def __init__(self, name, text):
        self.name, self.text = name, text
        self.checked, self.failed, self.first = 0, 0, None

    def record(self, ok, failure):
        """Count the items of the bool array `ok`, in order; `failure(j)`
        gives the text of item j, read at the first failure only."""
        self.checked += len(ok)
        bad = np.flatnonzero(~np.asarray(ok, bool))
        if len(bad) and not self.failed:
            self.first = failure(bad[0])
        self.failed += len(bad)

    def entry(self):
        """(name, ok, detail); a failure adds the count and the first failure."""
        if not self.failed:
            return self.name, True, self.text
        return self.name, False, (f"{self.text}; {self.failed} of {self.checked} "
                                  f"failed, first {self.first}")


def _first_bad(bad):
    """Per row of the (m, n) bool array `bad`, whether it is all False, and
    the 1-based index of each row's first True."""
    return ~bad.any(axis=1), lambda j: int(np.argmax(bad[j])) + 1


def _pass_checks(tallies, q, g, curves, engine, A, symbols, points, theta, off_circle, recon):
    """The per-curve checks on one pass, as bool columns over its rows.

    `curves` are the rows' curve indices and `engine` their traces from the
    cache or the engine; `A`, `symbols`, `points`, `theta` and `recon` are
    the batched Dirichlet, prime-symbol, point-count, eigenphase and
    phase-reconstruction passes of `verify_suite` over them, points[n-1]
    the counts over F_{q^n}, and `off_circle` the RootMagnitudeError of
    each row with a root off the critical circle.  The symbols feed the
    explicit traces, the prime-sum bound and the power decomposition.  A
    row whose coefficients break the functional equation is checked no
    further; a row with a root off the circle skips the checks after
    "riemann hypothesis" (pairing, reconstruction, the two bounds, the
    decomposition and the point counts).  Newton's identities run per row
    in Python ints (`newton_power_sums`), independent of the engine's."""
    N, explicit_N = engine.shape[1], len(symbols) - 1

    def record(name, live, ok, failure):
        rows = np.flatnonzero(live)
        tallies[name].record(ok[rows], lambda j: f"curve {curves[rows[j]]}: {failure(rows[j])}")

    broken = [symmetry_failure(row, q, g) for row in A.tolist()]
    live = np.array([failure is None for failure in broken], bool)
    record("functional equation", np.ones(len(A), bool), live, lambda j: broken[j])
    s = np.zeros(engine.shape, np.int64)
    s[live] = np.array([newton_power_sums(row, N) for row in A[live].tolist()],
                       np.int64).reshape(-1, N)
    record("engine agreement", live, (engine == s).all(axis=1), lambda j: "engine trace mismatch")
    explicit = np.column_stack([-explicit_sum(symbols, n) for n in range(1, explicit_N + 1)])
    record("dual trace paths", live, (explicit == s[:, :explicit_N]).all(axis=1),
           lambda j: "explicit vs Newton mismatch")
    on_circle = np.ones(len(A), bool)
    on_circle[list(off_circle)] = False
    record("riemann hypothesis", live, on_circle, lambda j: str(off_circle[j]))
    live &= on_circle
    theta = np.sort(theta, axis=1)
    paired = ~(np.abs(theta - np.sort(_reflect_phase(theta), axis=1)) > 1e-8).any(axis=1)
    record("eigenphase pairing", live, paired & (theta.shape[1] == 2 * g),
           lambda j: "phases not negation-closed")
    ok, first = _first_bad(np.abs(recon - s) > [1e-9 * q ** (n / 2) for n in range(1, N + 1)])
    record("trace reconstruction", live, ok,
           lambda j: f"phase-trace reconstruction off at n={first(j)}")
    # x^2 > B exactly when |x| > isqrt(B), for integers x and B >= 0
    ok, first = _first_bad(np.abs(s) > [math.isqrt(4 * g * g * q ** n) for n in range(1, N + 1)])
    record("unitarity bound", live, ok, lambda j: f"|s_{first(j)}| > 2g q^(n/2)")
    ns = range(1, explicit_N + 1)
    ok, first = _first_bad(np.column_stack(
        [np.abs(n * symbol_power_sum(symbols, n, 1)) > math.isqrt((2 * g + 2) ** 2 * q ** n)
         for n in ns]))
    record("prime-sum bound", live, ok, lambda j: f"prime-sum bound fails at n={first(j)}")
    splits = [ens.TermDecomposition.from_symbols(symbols, n) for n in ns]
    ok, first = _first_bad(np.column_stack(
        [d.prime_part + d.square_part + d.higher_part != -s[:, n - 1]
         for n, d in zip(ns, splits)]))
    record("power decomposition", live, ok,
           lambda j: f"decomposition identity fails at k={first(j)}")
    ok, first = _first_bad(np.column_stack(
        [count != q ** n + 1 - s[:, n - 1] for n, count in enumerate(points, start=1)]))
    record("point counts", live, ok, lambda j: f"point count mismatch at n={first(j)}")


def verify_suite(q, g, cache_dir=None, budget=ens.DEFAULT_BUDGET, exhaustive=None):
    """Structural invariants over the full ensemble.

    Exhaustive per-curve checks (full coefficient enumeration, dual trace
    paths, eigenphases, point counts) run for every curve at small genus
    and on a deterministic stride sample at larger genus, in passes of
    rows: each check is one bool column over a pass (`_pass_checks`), and
    no `Curve` is built, as the sieve proved every row squarefree.  A
    failing check reports how many curves failed it and the first.

    Two cost guards: the explicit sums run through the largest degree
    n <= min(2g+2, 6) with at most EXPLICIT_PRIMES primes of degree <= n,
    and g <= 2 takes the stride sample too once the curves times those
    primes and the monic B of degree <= 2g pass EXHAUSTIVE_PAIRS.
    """
    t0 = time.perf_counter()
    spec = ens.EnsembleSpec(q, g)
    spec.check_budget(budget)
    N = 2 * g + 2
    checks = []
    data, from_cache = load_or_compute_data(q, g, N, cache_dir=cache_dir, budget=budget)
    checks.append(("cardinality", data.count == spec.count,
                   f"{data.count} curves vs (q-1)q^(2g) = {spec.count}"))
    if from_cache:
        fresh = ens.compute_ensemble_data(q, g, N, budget=budget)
        bad = np.flatnonzero((fresh.s != data.s).any(axis=1)
                             | (fresh.coeffs != data.coeffs).any(axis=1))
        checks.append(("cache consistency", not len(bad),
                       f"cached traces DIFFER from a fresh computation; {len(bad)} of "
                       f"{data.count} differ, first curve {bad[0]}" if len(bad)
                       else "cached traces match a fresh computation"))

    totals = list(itertools.accumulate(irreducible_count(q, n) for n in range(1, min(N, 6) + 1)))
    explicit_N = max(1, sum(total <= EXPLICIT_PRIMES for total in totals))
    primes = totals[explicit_N - 1]  # of degree <= explicit_N
    if exhaustive is None:
        monic_b = sum(q ** d for d in range(2 * g + 1))
        exhaustive = g <= 2 and data.count * (primes + monic_b) <= EXHAUSTIVE_PAIRS
    stride = 1 if exhaustive else max(1, data.count // 400)
    scope = "all curves" if stride == 1 else f"every {stride}th curve"
    point_N = 3 if g <= 2 else 2
    tallies = {name: _Tally(name, f"{text}, {scope}") for name, text in (
        ("functional equation", "exact coefficient symmetry"),
        ("riemann hypothesis", "root magnitudes within 1e-9 of q^(-1/2)"),
        ("dual trace paths", f"explicit sums == Newton power sums (n <= {explicit_N})"),
        ("engine agreement", "vectorized pipeline == per-curve path"),
        ("eigenphase pairing", "2g phases, closed under negation"),
        ("trace reconstruction", "phases reproduce s_n to 1e-9 q^(n/2)"),
        ("unitarity bound", "|s_n| <= 2g q^(n/2)"),
        ("prime-sum bound", "|n c_n| <= (2g+2) q^(n/2)"),
        ("power decomposition", "prime+square+higher == -s_k"),
        ("point counts", f"direct == q^n + 1 - s_n (n <= {point_N})"))}
    strategy = "enumerate" if g <= 2 else "funceq"
    table = get_prime_table(q, explicit_N)
    sample = np.arange(0, data.count, stride)
    for part in _passes(len(sample), primes):
        curves = sample[part]
        moduli = data.coeffs[curves]
        A = dirichlet_coefficients(moduli, q, strategy=strategy)
        theta, off_circle = eigenphases(A, q)
        _pass_checks(tallies, q, g, curves, data.s[curves], A,
                     prime_symbols(moduli, q, explicit_N, table),
                     [point_count_direct(moduli, q, n) for n in range(1, point_N + 1)],
                     theta, off_circle, traces_from_eigenphases(theta, q, N))
    checks.extend(tally.entry() for tally in tallies.values())

    if g <= 3:
        averages = _Tally("dual averages", "direct == Moebius-decomposed for 10 functionals")
        names, tables = zip(*_battery(q, g))
        direct = ens.ensemble_average(spec, tables, budget=budget)
        decomposed = ens.moebius_decomposed_average(spec, tables, budget=budget)
        averages.record([d == m for d, m in zip(direct, decomposed)],
                        lambda j: f"{names[j]}: {direct[j]} != {decomposed[j]}")
        checks.append(averages.entry())

    try:
        zdata = ens.DecompositionData.build(data)
        sane = int((zdata.z.astype(np.int64) * np.arange(N + 1)).sum(axis=1).max())
        checks.append(("divisor degrees", sane <= 2 * g + 1,
                       f"max total divisor degree {sane} <= 2g+1 (and prime-sum "
                       f"inversion integral)"))
    except ArithmeticError as exc:
        checks.append(("divisor degrees", False, f"inversion failed: {exc}"))
    return VerifyResult(q=q, g=g, curves=data.count, checks=checks,
                        elapsed=time.perf_counter() - t0)


# -- report rows -------------------------------------------------------------------

def moment_report_rows(reports):
    rows = []
    for r in reports:
        rows.append({
            "q": r.q, "g": r.g, "curves": r.curves,
            "spec": r.spec.label(), "sum_ak": r.spec.total,
            "in_range": r.in_range,
            "empirical_exact": r.empirical.exact_str(),
            "empirical": float(r.empirical),
            "squares_prediction_exact": fraction_str(r.squares),
            "squares_prediction": float(r.squares),
            "rmt_exact": str(r.rmt_moment.value),
            "rmt_valid": r.rmt_moment.valid,
            "dev_vs_squares": r.dev_vs_squares,
            "dev_vs_rmt": r.dev_vs_rmt,
        })
    return rows


def linstat_report_rows(reports):
    rows = []
    for r in reports:
        row = {
            "q": r.q, "g": r.g, "curves": r.curves, "tf": r.tf_name,
            "support_in_range": r.support_in_range,
            "mean_ref": fraction_str(r.mean_ref),
            "variance_ref": fraction_str(r.variance_ref),
        }
        for j, (raw, ref, dev) in enumerate(zip(r.raw_moments, r.references,
                                                r.deviations), start=1):
            row[f"moment{j}_exact"] = raw.exact_str()
            row[f"moment{j}"] = float(raw)
            row[f"moment{j}_ref"] = fraction_str(ref)
            row[f"moment{j}_dev"] = dev
        for j, cm in enumerate(r.central_moments, start=1):
            row[f"central{j}"] = float(cm)
        rows.append(row)
    return rows


def decompose_report_rows(decomp, ks, l=1):
    data = decomp.data
    rows = []
    n = data.count
    for k in ks:
        pi_k = ens.irreducible_count(data.q, k)
        report = ens.prime_term_moment(decomp, k, l)
        c_tot = int(decomp.c[:, k].sum())
        rows.append({
            "q": data.q, "g": data.g, "curves": n, "k": k, "l": l, "pi_k": pi_k,
            "prime_symbol_total": c_tot,
            "mean_prime_power_exact": fraction_str(report.p_power_mean),
            "mean_prime_power": float(report.p_power_mean),
            "mean_delta2_exact": fraction_str(report.delta2_mean),
            "mean_delta2": float(report.delta2_mean),
            "mean_pair_term_exact": fraction_str(report.p2_tuple_mean),
            "mean_pair_term": float(report.p2_tuple_mean),
            "delta2_reference": report.reference,
        })
    return rows


def write_report(path, rows, fmt):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if fmt == "json":
        payload = json.dumps(rows, indent=2, sort_keys=True, default=str) + "\n"
        with open(path, "w") as fh:
            fh.write(payload)
        return
    lines = [f"# generated: {datetime.now(timezone.utc).isoformat()}"]
    if rows:
        keys = list(rows[0].keys())
        lines.append(",".join(keys))
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(k)) for k in keys))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


# -- experiment orchestration ---------------------------------------------------

@dataclass
class ExperimentResult:
    exit_code: int
    lines: list          # human-readable summary
    report_paths: list   # files written


def run_experiment(config):
    """Dispatch one subcommand worth of work; see the module docstring for
    the exit-code contract."""
    try:
        handler = _COMMANDS[config.command]
    except KeyError:
        raise ConfigError(f"unknown command {config.command!r}")
    try:
        return handler(config)
    except ens.BudgetError as exc:
        return ExperimentResult(3, [f"budget refusal: {exc}"], [])
    except ArithmeticError as exc:
        # FunctionalEquationError, RootMagnitudeError and the exactness
        # guards all derive from ArithmeticError: hard invariant failures
        return ExperimentResult(1, [f"invariant failure: {exc}"], [])
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc))


def _out_path(config, stem):
    return os.path.join(config.out_dir, f"{stem}.{config.fmt}")


def _cmd_primes(config):
    depth = config.N if config.N is not None else max(6, 2 * config.g + 2)
    table = get_prime_table(config.q, depth)
    lines = [f"prime table q={config.q} through degree {depth}"]
    lines += [f"  pi_{config.q}({d}) = {table.counts[d]}" for d in range(1, depth + 1)]
    if config.dump:
        for d in range(1, depth + 1):
            for prime in table.irreducibles(d):
                lines.append("  " + ",".join(str(c) for c in prime))
    return ExperimentResult(0, lines, [])


def _cmd_verify(config):
    lines, paths = [], []
    code = 0
    for g in config.g_range():
        result = verify_suite(config.q, g, cache_dir=config.cache_dir, budget=config.budget)
        lines.append(f"verify q={config.q} g={g}: {result.curves} curves, "
                     f"{result.elapsed:.2f}s")
        lines += ["  " + ln for ln in result.lines()]
        if not result.ok:
            code = 1
    return ExperimentResult(code, lines, paths)


def _cmd_lfun(config):
    rows_all, paths = [], []
    for g in config.g_range():
        N = config.N if config.N is not None else 2 * g + 2
        # s_1..s_g fix the completed coefficients, so load at least that deep
        data, _ = load_or_compute_data(config.q, g, max(N, g), cache_dir=config.cache_dir,
                                       budget=config.budget)
        A = ens.coefficients_from_traces(data.s, config.q, g)
        s = data.s[:, :N]
        rows = []
        for i in range(data.count):
            row = {"q": config.q, "g": g}
            row.update({f"c{j}": int(v) for j, v in enumerate(data.coeffs[i])})
            row.update({f"Astar{j}": int(v) for j, v in enumerate(A[i])})
            row.update({f"s{n}": int(v) for n, v in enumerate(s[i], start=1)})
            rows.append(row)
        path = _out_path(config, f"lfun_q{config.q}_g{g}")
        write_report(path, rows, config.fmt)
        paths.append(path)
        rows_all.append(f"lfun q={config.q} g={g}: wrote {len(rows)} records -> {path}")
    return ExperimentResult(0, rows_all, paths)


def _cmd_moment(config):
    specs = [ens.MomentSpec.parse(s) for s in (config.specs or ["(2,1)"])]
    lines, paths = [], []
    reports = []
    for g in config.g_range():
        need = max(sp.max_k for sp in specs)
        N = config.N if config.N is not None else need
        if N < need:
            raise ConfigError(f"N={N} below max requested power {need}")
        data, _ = load_or_compute_data(config.q, g, N, cache_dir=config.cache_dir,
                                       budget=config.budget)
        for sp in specs:
            rep = ens.trace_product_moment(data, sp)
            reports.append(rep)
            lines.append(
                f"moment q={config.q} g={g} {sp.label()}: "
                f"empirical {float(rep.empirical):+.6f} ({rep.empirical.exact_str()}), "
                f"squares {float(rep.squares):+.6f}, matrix-integral {rep.rmt_moment.value}"
                + ("" if rep.in_range else " [outside sum a_j k_j <= 2g-1]"))
    path = _out_path(config, f"moment_q{config.q}_g{config.g}"
                             + (f"-{config.g_max}" if config.g_max else ""))
    write_report(path, moment_report_rows(reports), config.fmt)
    paths.append(path)
    return ExperimentResult(0, lines, paths)


def _cmd_decompose(config):
    lines, paths = [], []
    for g in config.g_range():
        ks = [config.k] if config.k is not None else list(range(2, min(2 * g + 2, 10)))
        N = config.N if config.N is not None else max(ks)
        data, _ = load_or_compute_data(config.q, g, max(N, max(ks)),
                                       cache_dir=config.cache_dir, budget=config.budget)
        decomp = ens.DecompositionData.build(data)
        rows = decompose_report_rows(decomp, ks, l=config.l)
        path = _out_path(config, f"decompose_q{config.q}_g{g}")
        write_report(path, rows, config.fmt)
        paths.append(path)
        for row in rows:
            lines.append(f"decompose q={config.q} g={g} k={row['k']}: "
                         f"<prime term^{2 * config.l}> {row['mean_prime_power']:+.6f}, "
                         f"<delta2> {row['mean_delta2']:+.6f} (ref {row['delta2_reference']})")
    return ExperimentResult(0, lines, paths)


def _cmd_sigma(config):
    rows, lines = [], []
    degrees = tuple(config.degrees)
    amax = config.alpha_max
    for alpha in range(0, amax + 1):
        val = ens.sigma_sum(config.q, degrees, alpha, budget=config.budget)
        # the closed table applies for alpha < min degree (alpha = 0 always)
        if alpha == 0:
            ref = 1
        elif alpha < min(degrees):
            ref = -config.q if alpha == 1 else 0
        else:
            ref = None
        rows.append({"q": config.q, "degrees": ";".join(map(str, degrees)),
                     "alpha": alpha, "sigma": val,
                     "reference": "" if ref is None else ref,
                     "matches_reference": "" if ref is None else val == ref})
        lines.append(f"sigma q={config.q} degrees={degrees} alpha={alpha}: {val}"
                     + (f" (ref {ref})" if ref is not None else ""))
        if ref is not None and val != ref:
            return ExperimentResult(1, lines + ["Moebius-sum table mismatch"], [])
    path = _out_path(config, f"sigma_q{config.q}")
    write_report(path, rows, config.fmt)
    return ExperimentResult(0, lines, [path])


def _cmd_charsum(config):
    degrees = tuple(config.degrees)
    bmax = config.beta_max if config.beta_max is not None else sum(degrees) + 1
    rows, lines = [], []
    code = 0
    for beta in range(0, bmax + 1):
        direct = ens.multi_char_sum(config.q, beta, degrees, method="direct",
                                    budget=config.budget)
        recip = ens.multi_char_sum(config.q, beta, degrees, method="reciprocity",
                                   budget=config.budget)
        agree = direct == recip
        vanish_expected = beta >= sum(degrees)
        ok = agree and (direct == 0 or not vanish_expected)
        if not ok:
            code = 1
        rows.append({"q": config.q, "degrees": ";".join(map(str, degrees)),
                     "beta": beta, "direct": direct, "reciprocity": recip,
                     "paths_agree": agree,
                     "must_vanish": vanish_expected})
        lines.append(f"charsum q={config.q} degrees={degrees} beta={beta}: "
                     f"{direct} (reciprocity {recip})")
    path = _out_path(config, f"charsum_q{config.q}")
    write_report(path, rows, config.fmt)
    return ExperimentResult(code, lines, [path])


def _cmd_rmt(config):
    specs = [ens.MomentSpec.parse(s) for s in (config.specs or ["(2,2)"])]
    rows, lines = [], []
    code = 0
    for g in config.g_range():
        for sp in specs:
            moment = rmt.usp_moment_exact(sp, g)
            row = {"g": g, "spec": sp.label(), "exact": moment.value,
                   "valid": moment.valid}
            if g in (1, 2):
                quad = rmt.weyl_quadrature_moment(sp, g)
                row["quadrature"] = quad
                row["agree_1e6"] = abs(quad - moment.value) < 1e-6
                if moment.valid and not row["agree_1e6"]:
                    code = 1
            rows.append(row)
            lines.append(f"rmt g={g} {sp.label()}: exact {moment.value}"
                         + (f", quadrature {row.get('quadrature'):.9f}"
                            if "quadrature" in row else "")
                         + ("" if moment.valid else " [outside validity]"))
    path = _out_path(config, "rmt")
    write_report(path, rows, config.fmt)
    return ExperimentResult(code, lines, [path])


def _cmd_linstat(config):
    tf = linstat.resolve_test_function(config.tf, config.custom_tf)
    if config.moments < 1:  # refused before any ensemble is built or cached
        raise ConfigError(f"m must be >= 1, got {config.moments}")
    reports, lines, paths = [], [], []
    for g in config.g_range():
        modes = linstat.active_modes(tf, 2 * g)
        N = config.N if config.N is not None else max(modes, default=1)
        if N < max(modes, default=0):  # refused before the ensemble is built or cached
            raise ConfigError(f"need traces through k={modes[-1]}, have N={N}")
        data, _ = load_or_compute_data(config.q, g, N, cache_dir=config.cache_dir,
                                       budget=config.budget)
        rep = linstat.z_moments(data, tf, config.moments)
        reports.append(rep)
        devs = ", ".join(f"{d:.6f}" for d in rep.deviations)
        lines.append(f"linstat q={config.q} g={g} {tf.name}: deviations [{devs}]")
    path = _out_path(config, f"linstat_q{config.q}_{tf.name.replace(':', '')}")
    write_report(path, linstat_report_rows(reports), config.fmt)
    paths.append(path)
    if len(reports) > 1:
        for j in range(config.moments):
            first, last = reports[0].deviations[j], reports[-1].deviations[j]
            lines.append(f"  moment {j + 1} deviation: g={reports[0].g} {first:.6f} -> "
                         f"g={reports[-1].g} {last:.6f}")
    return ExperimentResult(0, lines, paths)


def _cmd_dump_cache(config):
    if not config.path:
        raise ConfigError("dump-cache needs --path")
    try:
        q, g, N, coeffs, s = cachemod.read_trace_cache(config.path)
    except cachemod.CacheFormatError as exc:
        raise ConfigError(f"not a trace cache: {exc}")
    rows = []
    for i in range(len(coeffs)):
        row = {f"c{j}": int(v) for j, v in enumerate(coeffs[i])}
        row.update({f"s{n}": int(v) for n, v in enumerate(s[i], start=1)})
        rows.append(row)
    path = _out_path(config, os.path.basename(config.path).rsplit(".", 1)[0])
    write_report(path, rows, config.fmt)
    lines = [f"trace cache q={q} g={g} N={N}: {len(rows)} records -> {path}"]
    return ExperimentResult(0, lines, [path])


_COMMANDS = {
    "primes": _cmd_primes,
    "verify": _cmd_verify,
    "lfun": _cmd_lfun,
    "moment": _cmd_moment,
    "decompose": _cmd_decompose,
    "sigma": _cmd_sigma,
    "charsum": _cmd_charsum,
    "rmt": _cmd_rmt,
    "linstat": _cmd_linstat,
    "dump-cache": _cmd_dump_cache,
}

