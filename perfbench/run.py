"""Benchmark for hypfrob: three closed-loop workloads run through
`hypfrob.cli.main`, timed from outside the program, outputs checked apart
from it.  Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-moment --seed 1 --seconds 36 --trace 0

Each round runs in a fresh worker process (perfbench/worker.py); cold-moment
and verify-sweep rounds start from empty trace caches, warm-stats rounds
read the caches one fill process wrote before the first round.  With
`--trace 0` the run makes as many whole rounds as fit in `--seconds`
(at least one), and the end-to-end metrics are medians over the rounds, in
reference seconds: each step's seconds scaled by the host-speed probes
taken around it (perfbench/calib.py).  With `--trace 1` one untraced and
one traced round run; the per-layer metrics come from the traced round's
spans.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  `--seed` is recorded but selects nothing:
the ensembles are enumerated exhaustively, so there is no random input.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calib
import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170
SETUP_SAMPLES = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, work_dir, deadline):
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = deadline

    def spawn(self, *args):
        """Run the worker in its own process group; kill the group on timeout."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError("run time limit reached")
        proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=sys.stderr.fileno(),
                                start_new_session=True)
        try:
            code = proc.wait(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchmarkError(f"worker {args[0]} exceeded the run time limit")
        if code != 0:
            raise BenchmarkError(f"worker {' '.join(args[:3])} exited with {code}")

    def fill(self):
        """Warm-stats set-up: a separate process writes the trace caches that
        every round of the run reads.  Returns (seconds, cache dir)."""
        if self.workload != "warm-stats":
            return 0.0, None
        directory = os.path.join(self.work_dir, "fill")
        before = calib.probe()
        t0 = time.monotonic()
        self.spawn("fill", "--dir", directory)
        seconds = time.monotonic() - t0
        return calib.scaled(seconds, before, calib.probe()), os.path.join(directory, "cache")

    def start_sample(self, index):
        """Reference seconds from spawning a worker to its first possible command."""
        path = os.path.join(self.work_dir, f"setup{index}.json")
        before = calib.probe()
        t0 = time.monotonic()
        self.spawn("setup", "--result", path)
        with open(path) as fh:
            seconds = json.load(fh)["ready"] - t0
        return calib.scaled(seconds, before, calib.probe())

    def round(self, index, warm_cache, trace_path=None):
        directory = os.path.join(self.work_dir, f"round{index}")
        os.makedirs(directory)
        path = os.path.join(self.work_dir, f"round{index}.json")
        args = ["round", "--workload", self.workload, "--dir", directory, "--result", path]
        if warm_cache:
            args += ["--warm-cache", warm_cache]
        if trace_path:
            args += ["--trace", trace_path]
        self.spawn(*args)
        with open(path) as fh:
            res = json.load(fh)
        res["dir"] = directory
        res["warm_cache"] = warm_cache
        res["wall_s"] = res["end"] - res["ready"]
        for c in res["commands"]:
            c["ref_s"] = calib.scaled(c["seconds"], *c["probes"])
        res["ref_wall_s"] = sum(c["ref_s"] for c in res["commands"])
        res["failed"] = sorted(c["key"] for c in res["commands"] if c["exit"] != 0)
        return res


def output_digests(directory):
    digests = {}
    for base, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def check_cold(res):
    errors = []
    for q, g, N in workloads.COLD_POINTS:
        if any(k.startswith(f"moment q={q} g={g} ") for k in res["failed"]):
            continue
        d1, d2 = (workloads.point_dir(res["dir"], q, g, f"w{w}") for w in (1, 2))
        cache = f"cache/traces_q{q}_g{g}_N{N}.bin"
        report = f"out/moment_q{q}_g{g}.json"
        for rel in (cache, report):
            if not _same_bytes(os.path.join(d1, rel), os.path.join(d2, rel)):
                errors.append(f"q={q} g={g}: {rel} differs between --workers 1 and 2")
        trace_errors, s, _counts = checks.check_traces(os.path.join(d1, cache), q, g, N)
        errors += trace_errors
        errors += checks.check_moment_report(os.path.join(d1, report), q, g, s,
                                             workloads.COLD_SPECS)
    return errors


def check_warm(res):
    errors = []
    for q, g, N in workloads.WARM_POINTS:
        path = os.path.join(res["warm_cache"], f"traces_q{q}_g{g}_N{N}.bin")
        trace_errors, s, counts = checks.check_traces(path, q, g, N)
        errors += trace_errors
        out = os.path.join(workloads.point_dir(res["dir"], q, g), "out")
        if f"moment q={q} g={g} N={N}" not in res["failed"]:
            errors += checks.check_moment_report(os.path.join(out, f"moment_q{q}_g{g}.json"),
                                                 q, g, s, workloads.warm_specs(N))
        for tf in workloads.LINSTAT_TFS:
            if f"linstat q={q} g={g} {tf}" not in res["failed"]:
                m = int(tf.split(":")[1])
                errors += checks.check_linstat_report(
                    os.path.join(out, f"linstat_q{q}_{tf.replace(':', '')}.json"),
                    q, g, s, m, workloads.LINSTAT_MOMENTS)
        if f"decompose q={q} g={g}" not in res["failed"]:
            errors += checks.check_decompose_report(
                os.path.join(out, f"decompose_q{q}_g{g}.json"), q, g, s, counts,
                workloads.DECOMPOSE_L)
    return errors


def check_verify_stdout(res):
    errors = []
    for (q, g, g_max), cmd in zip(workloads.VERIFY_RUNS, res["commands"]):
        if cmd["exit"] == 0:
            errors += checks.check_verify_output(cmd["stdout"], cmd["exit"], q, g, g_max)
    return errors


def check_verify(res):
    errors = check_verify_stdout(res)
    for (q, g_lo, g_hi), cmd in zip(workloads.VERIFY_RUNS, res["commands"]):
        if cmd["exit"] != 0:
            continue
        cache = os.path.join(workloads.point_dir(res["dir"], q, g_lo, "verify"), "cache")
        for g in range(g_lo, g_hi + 1):
            N = 2 * g + 2
            errors += checks.check_traces(os.path.join(cache, f"traces_q{q}_g{g}_N{N}.bin"),
                                          q, g, N)[0]
    return errors


FULL_CHECKS = {"cold-moment": check_cold, "warm-stats": check_warm, "verify-sweep": check_verify}


def run(args):
    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "trace"), exist_ok=True)
    runner = Runner(args.workload, work_dir, time.monotonic() + RUN_LIMIT_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(out_dir, "trace", f"{args.workload}-spans.json")
    rounds, errors = [], []
    try:
        fill_s, warm_cache = runner.fill()
        first = runner.round(0, warm_cache)
        rounds.append(first)
        try:
            errors += FULL_CHECKS[args.workload](first)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"round 0: output unreadable: {exc!r}")
        reference = output_digests(first["dir"])
        shutil.rmtree(first["dir"])
        # as many whole rounds as fit in --seconds; --trace 1 adds one traced round
        planned = 2 if args.trace else max(1, math.floor(args.seconds / first["wall_s"]))
        while len(rounds) < planned and time.monotonic() + 1.5 * first["wall_s"] < runner.deadline - 10:
            res = runner.round(len(rounds), warm_cache, trace_path if args.trace else None)
            rounds.append(res)
            if res["failed"] == first["failed"] and output_digests(res["dir"]) != reference:
                errors.append(f"round {len(rounds) - 1}: outputs differ from round 0")
            if args.workload == "verify-sweep":
                errors += check_verify_stdout(res)
            shutil.rmtree(res["dir"])
        starts = [] if args.trace else [runner.start_sample(i) for i in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # per-command medians of reference seconds over the rounds, so neither the
    # host's speed nor one slow command in one round moves the figure
    per_command = {}
    for r in rounds:
        for c in r["commands"]:
            per_command.setdefault(c["key"], []).append(c["ref_s"])
    command_s = {k: statistics.median(v) for k, v in per_command.items()}
    if args.trace:
        with open(trace_path) as fh:
            trace = json.load(fh)
        values = tracer.layer_metrics(trace)
        values["trace.overhead_s"] = rounds[1]["ref_wall_s"] - rounds[0]["ref_wall_s"]
        metrics = {k: {"value": v, "unit": tracer.UNITS[k]} for k, v in values.items()}
        extra = {"module_shares": tracer.module_shares(trace)}
    else:
        values = {
            "setup_s": fill_s + statistics.median(starts),
            "wall_s": sum(command_s.values()),
            "max_op_s": max(command_s.values()),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        extra = {}
    summary = {
        "correct": not errors,
        "attempted": sum(len(r["commands"]) for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": metrics,
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, errors=errors,
                  fill_s=fill_s, start_s=starts, command_s=command_s,
                  rounds=[{"wall_s": r["wall_s"], "ref_wall_s": r["ref_wall_s"],
                           "peak_rss_mb": r["peak_rss_mb"], "failed": r["failed"],
                           "commands": {c["key"]: [c["seconds"], c["ref_s"]]
                                        for c in r["commands"]}}
                          for r in rounds], **extra)
    with open(os.path.join(out_dir, "results", f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "hypfrob", "cli.py")):
        print("perfbench: run from the root of a hypfrob checkout (no src/hypfrob/cli.py here)",
              file=sys.stderr)
        return 2
    try:
        run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
