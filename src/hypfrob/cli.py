"""Command-line interface.

    hypfrob <command> [--config FILE] [flags...]

Commands: primes, verify, lfun, moment, decompose, sigma, charsum, rmt,
linstat, dump-cache.  A flat key=value config file supplies defaults;
command-line flags win.  Exit codes: 0 ok, 1 invariant failure,
2 configuration error, 3 enumeration budget refusal.
"""

import argparse
import functools
import sys

from .ensemble import DEFAULT_BUDGET
from .harness import ConfigError, ExperimentConfig, load_config_file, run_experiment

_INT_KEYS = {"q", "g", "g_max", "N", "moments", "k", "l", "workers", "budget",
             "alpha_max", "beta_max"}


@functools.cache
def build_parser():
    """The process's one parser, built on first use.  Parsing leaves it
    unchanged (every default is None, so `--spec` appends to a fresh list),
    and reusing it leaves no discarded parser cycles for the collector."""
    parser = argparse.ArgumentParser(prog="hypfrob", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("primes", "verify", "lfun", "moment", "decompose", "sigma",
                 "charsum", "rmt", "linstat", "dump-cache"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--g", type=int, default=None)
        p.add_argument("--g-max", type=int, default=None, dest="g_max")
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--spec", action="append", default=None,
                       help="moment spec '(k,a);(k,a)'; repeatable")
        p.add_argument("--tf", default=None, help="test function, e.g. triangular:3")
        p.add_argument("--moments", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--l", type=int, default=None)
        p.add_argument("--degrees", default=None, help="comma list, e.g. 1,2")
        p.add_argument("--alpha-max", type=int, default=None, dest="alpha_max")
        p.add_argument("--beta-max", type=int, default=None, dest="beta_max")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--cache-dir", default=None, dest="cache_dir")
        p.add_argument("--out", default=None, dest="out_dir")
        p.add_argument("--format", default=None, dest="fmt", choices=("csv", "json"))
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--dump", action="store_true", default=None)
        p.add_argument("--path", default=None, help="cache file for dump-cache")
    return parser


def config_from_args(args):
    file_values, custom_tf = {}, {}
    if args.config:
        file_values, custom_tf = load_config_file(args.config)
    merged = {}
    for key, raw in file_values.items():
        if key in _INT_KEYS:
            try:
                merged[key] = int(raw)
            except ValueError:
                raise ConfigError(f"config key {key} must be an integer, got {raw!r}")
        elif key == "spec":
            merged["specs"] = [s for s in raw.split("|") if s]
        elif key == "dump":
            merged[key] = raw.lower() in ("1", "true", "yes")
        elif key in ("tf", "degrees", "cache_dir", "out_dir", "fmt", "path"):
            merged[key] = raw
        else:
            raise ConfigError(f"unknown config key {key!r}")
    overrides = {
        "command": args.command,
        "q": args.q, "g": args.g, "g_max": args.g_max, "N": args.N,
        "specs": args.spec, "tf": args.tf, "moments": args.moments,
        "k": args.k, "l": args.l,
        "degrees": args.degrees,
        "alpha_max": args.alpha_max, "beta_max": args.beta_max,
        "workers": args.workers, "cache_dir": args.cache_dir,
        "out_dir": args.out_dir, "fmt": args.fmt, "budget": args.budget,
        "dump": args.dump, "path": args.path,
    }
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    merged.setdefault("budget", DEFAULT_BUDGET)
    merged["custom_tf"] = custom_tf
    try:
        if "degrees" in merged:
            merged["degrees"] = tuple(int(x) for x in merged["degrees"].split(","))
        return ExperimentConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        result = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for line in result.lines:
        print(line)
    for path in result.report_paths:
        print(f"wrote {path}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
