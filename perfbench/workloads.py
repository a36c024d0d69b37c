"""The three workloads: the exact `hypfrob` argument lists of one round.

A round is the closed-loop sequence of commands one caller issues, each
starting after the previous one returns.  The ensembles are enumerated
exhaustively, so the commands take no random input; `--seed` selects
nothing.  Every path is under the round's own directory, so each round
starts from empty trace caches.
"""

import os

COLD_POINTS = ((3, 4, 9), (3, 5, 10), (5, 3, 8), (11, 2, 6), (13, 2, 6))
WARM_POINTS = ((3, 5, 10), (5, 3, 8), (11, 2, 6), (13, 2, 6))
# sum a_j k_j is odd for (3,1), (1,1);(2,1) and (1,3): those moments vanish
COLD_SPECS = ("(1,2)", "(2,2)", "(4,2)", "(2,1);(4,1)", "(3,1)", "(1,1);(2,1)", "(1,3)")
LINSTAT_TFS = ("triangular:1", "triangular:3")
LINSTAT_MOMENTS = 5
DECOMPOSE_L = 2
VERIFY_RUNS = ((3, 2, 4), (5, 1, 1))  # (q, g, g_max)

WORKLOADS = ("cold-moment", "warm-stats", "verify-sweep")


def warm_specs(N):
    """Small specs plus (N,5), (N-1,4) and (1,1);(N,3), whose worst-case
    products exceed the int64 guard of `trace_product_total`."""
    return ("(1,2)", "(2,2)", "(3,1)", "(4,2)", f"({N},5)", f"({N - 1},4)", f"(1,1);({N},3)")


def _spec_args(specs):
    out = []
    for spec in specs:
        out += ["--spec", spec]
    return out


def point_dir(root, q, g, tag=""):
    return os.path.join(root, f"q{q}g{g}{tag}")


def round_commands(workload, root, warm_cache=None):
    """[(key, argv)] for one round; `key` names the command in results."""
    cmds = []
    if workload == "cold-moment":
        for q, g, N in COLD_POINTS:
            for w in (1, 2):
                d = point_dir(root, q, g, f"w{w}")
                cmds.append((f"moment q={q} g={g} N={N} workers={w}",
                             ["moment", "--q", str(q), "--g", str(g), "--N", str(N),
                              *_spec_args(COLD_SPECS), "--workers", str(w),
                              "--cache-dir", os.path.join(d, "cache"),
                              "--out", os.path.join(d, "out"), "--format", "json"]))
    elif workload == "warm-stats":
        for q, g, N in WARM_POINTS:
            out = os.path.join(point_dir(root, q, g), "out")
            common = ["--q", str(q), "--g", str(g), "--cache-dir", warm_cache,
                      "--out", out, "--format", "json"]
            cmds.append((f"moment q={q} g={g} N={N}",
                         ["moment", *common, "--N", str(N), *_spec_args(warm_specs(N))]))
            for tf in LINSTAT_TFS:
                cmds.append((f"linstat q={q} g={g} {tf}",
                             ["linstat", *common, "--tf", tf,
                              "--moments", str(LINSTAT_MOMENTS)]))
            cmds.append((f"decompose q={q} g={g}",
                         ["decompose", *common, "--l", str(DECOMPOSE_L)]))
    elif workload == "verify-sweep":
        for q, g, g_max in VERIFY_RUNS:
            d = point_dir(root, q, g, "verify")
            argv = ["verify", "--q", str(q), "--g", str(g)]
            if g_max != g:
                argv += ["--g-max", str(g_max)]
            cmds.append((f"verify q={q} g={g}..{g_max}",
                         argv + ["--workers", "1", "--cache-dir", os.path.join(d, "cache"),
                                 "--out", os.path.join(d, "out")]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


def fill_commands(cache_dir, out_dir):
    """Set-up for warm-stats: trace caches for every warm point, two workers."""
    return [(f"fill q={q} g={g} N={N}",
             ["moment", "--q", str(q), "--g", str(g), "--N", str(N), "--workers", "2",
              "--cache-dir", cache_dir, "--out", out_dir, "--format", "json"])
            for q, g, N in WARM_POINTS]
