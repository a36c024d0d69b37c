"""One benchmark process: imports hypfrob from the checkout's `src/` and runs
one round of a workload through `hypfrob.cli.main`, in this process.

    python3 perfbench/worker.py round --workload W --dir D --result R.json
                                      [--warm-cache C] [--trace T.json]
    python3 perfbench/worker.py setup --result R.json
    python3 perfbench/worker.py fill --dir D

`round` writes the monotonic time of the first timed command, each
command's exit code, seconds, standard output and the host-speed probes
taken right before and after it, and the peak RSS of this process and of
its largest child (the process pool).  `setup` only
imports and reports when it is ready.  `fill` writes the warm-stats trace
caches and exits 1 if a command fails.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hypfrob.cli  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402


def run_command(argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = hypfrob.cli.main(argv)  # looked up per call, so a traced run sees it
    except Exception:  # a crash is a failed operation, recorded with its traceback
        code = None
        buf.write(traceback.format_exc())
    return code, time.perf_counter() - t0, buf.getvalue()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("round", "setup", "fill"))
    parser.add_argument("--workload")
    parser.add_argument("--dir")
    parser.add_argument("--warm-cache")
    parser.add_argument("--result")
    parser.add_argument("--trace")
    args = parser.parse_args()

    if args.mode == "fill":
        for _key, argv in workloads.fill_commands(os.path.join(args.dir, "cache"),
                                                  os.path.join(args.dir, "out")):
            code, _seconds, out = run_command(argv)
            if code != 0:
                sys.stderr.write(out)
                return 1
        return 0

    result = {}
    if args.mode == "round":
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cmds = workloads.round_commands(args.workload, args.dir, args.warm_cache)
        calib.probe()  # first-call costs stay out of the probes that scale commands
        result["ready"] = time.monotonic()
        result["commands"] = []
        before = calib.probe()
        for key, argv in cmds:
            code, seconds, out = run_command(argv)
            after = calib.probe()
            result["commands"].append({"key": key, "exit": code, "seconds": seconds,
                                       "probes": [before, after], "stdout": out})
            before = after
        result["end"] = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace)
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(self_kb, child_kb) / 1024
    else:
        result["ready"] = time.monotonic()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
