"""Spans and counters around hypfrob's layer boundaries, from outside `src/`.

`Tracer.install` replaces the listed functions for the duration of a run:
in their own module, in every hypfrob module that imported them by name
(`from .charsym import jacobi_symbol`), and on their class for methods.
Each call of a spanned function appends one span
`[name, start, end, parent, extra]`; counted functions only bump counters.
Spans stay in memory and are written once, when the run ends.

The hot primitives (polynomial arithmetic, `explicit_trace_sum`, the Jacobi
symbol) get no span: at millions of calls per run the span would cost more
than the call.  The Jacobi symbol is counted instead.  A function that a
later version of hypfrob no longer has is skipped, and its metric reads 0.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

INT64_GUARD = 2 ** 62  # the overflow guard of ensemble.trace_product_total


def _workers_arg(args, kwargs, _result):
    workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
    return {"workers": int(workers)}


def _file_bytes_arg0(args, _kwargs, _result):
    return {"bytes": os.path.getsize(args[0])}


def _product_bound(args, kwargs, _result):
    """Classify a trace_product_total call by its worst-case product
    n * prod max|s_k|^a against the int64 guard."""
    s, mspec = args[0], args[1]
    bound = s.shape[0]
    for k, a in mspec.terms:
        bound *= max(int(abs(s[:, k - 1]).max()), 1) ** a
    return {"bigint": bound >= INT64_GUARD}


# (module, attribute path, extra) -- the span is named "module.attribute"
SPANNED = (
    ("cli", "main", None),
    ("harness", "run_experiment", None),
    ("harness", "load_or_compute_data", None),
    ("harness", "verify_suite", None),
    ("harness", "write_report", None),
    ("cache", "read_trace_cache", _file_bytes_arg0),
    ("cache", "write_trace_cache", _file_bytes_arg0),
    ("cache", "read_prime_table", _file_bytes_arg0),
    ("cache", "write_prime_table", _file_bytes_arg0),
    ("polyfield", "PrimeTable.build", None),
    ("ensemble", "squarefree_codes", None),
    ("ensemble", "compute_ensemble_data", _workers_arg),
    ("ensemble", "TraceEngine.__init__", None),
    ("ensemble", "TraceEngine.coefficients", None),
    ("ensemble", "_newton_matrix", None),
    ("ensemble", "TraceEngine.divisor_degree_counts", None),
    ("ensemble", "TraceEngine.prime_symbol_sums", None),
    ("ensemble", "DecompositionData.build", None),
    ("ensemble", "trace_product_moment", None),
    ("ensemble", "trace_product_total", _product_bound),
    ("ensemble", "prime_term_moment", None),
    ("ensemble", "term_decomposition", None),
    ("ensemble", "ensemble_average", None),
    ("ensemble", "moebius_decomposed_average", None),
    ("linstat", "z_moments", None),
    ("lfunction", "dirichlet_coefficients", None),
    ("lfunction", "traces_explicit", None),
    ("lfunction", "eigenphases", None),
    ("lfunction", "point_count_direct", None),
    ("rmt", "usp_moment_exact", None),
    ("rmt", "weyl_quadrature_moment", None),
    ("exact", "HalfPowerRational.from_scaled_integer", None),
    ("exact", "QSqrt.__add__", None),
    ("exact", "QSqrt.__mul__", None),
)

# per-layer metric -> spans whose self time it sums
SELF_TIME_METRICS = {
    "cli.main_s": ("cli.main",),
    "polyfield.prime_table_s": ("polyfield.PrimeTable.build",),
    "ensemble.sieve_s": ("ensemble.squarefree_codes",),
    "ensemble.engine_build_s": ("ensemble.TraceEngine.__init__",),
    "ensemble.coefficients_s": ("ensemble.TraceEngine.coefficients",),
    "ensemble.newton_s": ("ensemble._newton_matrix",),
    "ensemble.divisor_counts_s": ("ensemble.TraceEngine.divisor_degree_counts",),
    "ensemble.prime_sums_s": ("ensemble.TraceEngine.prime_symbol_sums",),
    "ensemble.prime_term_moment_s": ("ensemble.prime_term_moment",),
    "ensemble.term_decomposition_s": ("ensemble.term_decomposition",),
    "ensemble.dual_averages_s": ("ensemble.ensemble_average",
                                 "ensemble.moebius_decomposed_average"),
    "linstat.z_moments_s": ("linstat.z_moments",),
    "cache.write_s": ("cache.write_trace_cache", "cache.write_prime_table"),
    "cache.read_s": ("cache.read_trace_cache", "cache.read_prime_table"),
    "harness.load_or_compute_s": ("harness.load_or_compute_data",),
    "harness.verify_suite_s": ("harness.verify_suite",),
    "harness.report_write_s": ("harness.write_report",),
    "lfunction.dirichlet_coefficients_s": ("lfunction.dirichlet_coefficients",),
    "lfunction.traces_explicit_s": ("lfunction.traces_explicit",),
    "lfunction.eigenphases_s": ("lfunction.eigenphases",),
    "lfunction.point_count_direct_s": ("lfunction.point_count_direct",),
}

# unit of every per-layer metric
UNITS = dict.fromkeys(SELF_TIME_METRICS, "s")
UNITS.update({
    "ensemble.moment_s": "s",
    "ensemble.moment_bigint_s": "s",
    "ensemble.compute_w1_s": "s",
    "ensemble.compute_w2_s": "s",
    "ensemble.symbol_matrix_mb": "MB",
    "ensemble.rows_traced": "count",
    "cache.mb_written": "MB",
    "cache.mb_read": "MB",
    "lfunction.curves_checked": "count",
    "charsym.jacobi_calls": "count",
    "charsym.jacobi_distinct": "count",
    "charsym.jacobi_useful_share": "ratio",
    "trace.overhead_s": "s",
})


def _resolve(module, path):
    """(holder, attribute name, raw class-dict value or None, function)."""
    holder = module
    parts = path.split(".")
    for part in parts[:-1]:
        holder = getattr(holder, part, None)
        if holder is None:
            return None
    name = parts[-1]
    if isinstance(holder, type):
        raw = holder.__dict__.get(name)
        if raw is None:
            return None
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        return holder, name, raw, func
    func = getattr(holder, name, None)
    return (holder, name, None, func) if callable(func) else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.jacobi_seen = set()
        self._stack = []
        self._restore = []

    def _spanned(self, name, func, extra):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, kwargs, result)
            return result
        return wrapper

    def _jacobi(self, func):
        counters, seen = self.counters, self.jacobi_seen

        @functools.wraps(func)
        def wrapper(*args):
            counters["charsym.jacobi_calls"] += 1
            seen.add(hash(args))
            return func(*args)
        return wrapper

    def _rows(self, func):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(engine, coeffs, *args, **kwargs):
            counters["ensemble.rows_traced"] += coeffs.shape[0]
            return func(engine, coeffs, *args, **kwargs)
        return wrapper

    def _matrix_bytes(self, func):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            key = "ensemble.symbol_matrix_bytes"
            counters[key] = max(counters[key], int(result.nbytes))
            return result
        return wrapper

    def _calls(self, key, func):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return func(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every listed function of the imported hypfrob package."""
        mods = {name[len("hypfrob."):]: mod for name, mod in list(sys.modules.items())
                if name.startswith("hypfrob.") and mod is not None}
        plan = [(m, p, lambda f, n=f"{m}.{p}", e=e: self._spanned(n, f, e))
                for m, p, e in SPANNED]
        plan += [
            ("charsym", "jacobi_symbol", self._jacobi),
            ("ensemble", "TraceEngine.traces", self._rows),
            ("ensemble", "TraceEngine._symbol_matrix", self._matrix_bytes),
            ("lfunction", "complete_l",
             lambda f: self._calls("lfunction.curves_checked", f)),
        ]
        for modname, path, make in plan:
            module = mods.get(modname)
            found = _resolve(module, path) if module is not None else None
            if found is None:
                continue
            holder, name, raw, func = found
            wrapped = make(func)
            if raw is not None:
                new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                setattr(holder, name, new)
                self._restore.append((holder, name, raw))
                continue
            for mod in list(mods.values()) + [sys.modules["hypfrob"]]:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, func))

    def uninstall(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def dump(self, path):
        counters = dict(self.counters)
        counters["charsym.jacobi_distinct"] = len(self.jacobi_seen)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def self_times(spans):
    """Duration of each span minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_n, start, end, _p, _e), c in zip(spans, child)]


def layer_metrics(trace):
    """Per-layer metric values from a dumped trace."""
    spans, counters = trace["spans"], trace["counters"]
    own = self_times(spans)
    by_name = defaultdict(float)
    for (name, *_rest), t in zip(spans, own):
        by_name[name] += t
    out = {metric: sum(by_name[n] for n in names)
           for metric, names in SELF_TIME_METRICS.items()}
    out["ensemble.moment_s"] = out["ensemble.moment_bigint_s"] = 0.0
    out["ensemble.compute_w1_s"] = out["ensemble.compute_w2_s"] = 0.0
    out["cache.mb_written"] = out["cache.mb_read"] = 0.0
    for (name, start, end, _parent, extra), t in zip(spans, own):
        if name == "ensemble.trace_product_total":
            out["ensemble.moment_bigint_s" if extra["bigint"] else "ensemble.moment_s"] += t
        elif name == "ensemble.compute_ensemble_data":
            # inclusive: with two workers the pool's work is invisible here
            key = "ensemble.compute_w1_s" if extra["workers"] <= 1 else "ensemble.compute_w2_s"
            out[key] += end - start
        elif name in ("cache.write_trace_cache", "cache.write_prime_table"):
            out["cache.mb_written"] += extra["bytes"] / 2 ** 20
        elif name in ("cache.read_trace_cache", "cache.read_prime_table"):
            out["cache.mb_read"] += extra["bytes"] / 2 ** 20
    out["ensemble.symbol_matrix_mb"] = counters.get("ensemble.symbol_matrix_bytes", 0) / 2 ** 20
    out["ensemble.rows_traced"] = counters.get("ensemble.rows_traced", 0)
    out["lfunction.curves_checked"] = counters.get("lfunction.curves_checked", 0)
    calls = counters.get("charsym.jacobi_calls", 0)
    distinct = counters.get("charsym.jacobi_distinct", 0)
    out["charsym.jacobi_calls"] = calls
    out["charsym.jacobi_distinct"] = distinct
    out["charsym.jacobi_useful_share"] = distinct / calls if calls else 1.0
    return out


def module_shares(trace):
    """Self time per hypfrob module as a share of the root spans' total."""
    spans = trace["spans"]
    own = self_times(spans)
    total = sum(end - start for _n, start, end, parent, _e in spans if parent < 0)
    shares = defaultdict(float)
    for (name, *_rest), t in zip(spans, own):
        shares[name.split(".", 1)[0]] += t
    return {m: v / total for m, v in sorted(shares.items())} if total else {}
