"""Benchmark of the prisoners package: one workload, timed and checked.

    python3 perfbench/run.py --workload windows --seed 1 --seconds 20 --trace 0

Run it from anywhere; it finds the package in ../src relative to this file
and writes only under .bench_out/ next to that src/.

Workloads (the ops and their output checks are in workloads.py):

  windows  `simulate` on random explicit plans across V1a-V2a, plus one
           `prisoners simulate` run through `cli.main`
  guards   adversary streams (two-cycle, good-index, v2a/v2b harmonic
           blocks with certified continuations, truncated v1b/v1d streams)
           pulled and then played
  scans    exhaustive analyzer scans: `brute_force_min` at m=7 and m=8,
           descending dominance at m=7, zero omission at m=6

Every workload runs as a closed loop with one caller and no threads, in
fresh interpreters (worker.py): an op starts once the previous one has been
checked.  A run is a fixed number of whole rounds, set by --seconds and the
workload's nominal round time, and round r uses seed + r.  Each round plays
every op kind once, in an order shuffled by its seed.

--trace 0 sets the workload up three times (the last set-up goes on to the
timed rounds) and prints the end-to-end metrics:

  setup_s      interpreter start to the first timed op: import, model and
               allocation builders, and one untimed warm-up pass over every
               op kind at the default seed; median of the three set-ups
  ops_per_s    ops completed / time spent inside ops
  op_s_p50     median op time
  op_s_tail    op time at the highest percentile with at least 10 samples
               beyond it (percentile and sample count printed beside it)
  peak_rss_mb  ru_maxrss of the process that ran the timed rounds

and, on the report lines only, prisoners_per_s (windows), arrangements_per_s
(scans) and fail_ratio (failed ops / attempted ops, warm-up ops included).

--trace 1 runs the same rounds once untraced and once inside the tracer of
tracer.py, and prints the per-layer metrics, the Rat add/compare probes and
trace.overhead_ratio.  Traced timings never feed the end-to-end metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the environment, each op
kind's horizon, cycle-length cap and largest numerator/denominator bit
sizes, and every metric with its unit.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("windows", "guards", "scans")
SETUPS = 3
TAIL_BEYOND = 10
# the whole run ends within this many seconds, or fails without a result
DEADLINE_S = 175.0


class RunFailed(Exception):
    pass


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    try:
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = got.stdout.split()
    if got.returncode != 0 or len(lines) != 2 or Path(
            lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.count = 0
        self.work = OUT / f"work-{os.getpid()}"

    def child(self, mode: str, spans=None) -> tuple[dict, float]:
        """Run worker.py once; returns its result and its start time."""
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode,
               "--scratch", str(self.work), "--result", str(result)]
        if spans:
            cmd += ["--spans", str(spans)]
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise RunFailed("out of time before the next worker")
        # one hash seed for every worker, so set and dict layouts, and with
        # them the op times, do not vary from one process to the next
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned = time.monotonic()
        try:
            # the worker's stdout goes to stderr: ours ends with the result
            done = subprocess.run(cmd, stdout=sys.stderr, env=env,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} worker ran past the deadline")
        if done.returncode != 0:
            raise RunFailed(f"{mode} worker exited {done.returncode}")
        return json.loads(result.read_text()), spawned


def end_to_end(runner: Runner, report: dict) -> tuple:
    setups, main = [], None
    for i in range(SETUPS):
        got, spawned = runner.child("setup" if i < SETUPS - 1 else "run")
        setups.append(got["ready_monotonic"] - spawned)
        report["children"].append(got)
        main = got
    times = [took for _, took, _ in main["samples"]]
    busy = sum(times)
    done = sum(1 for _, _, ok in main["samples"] if ok)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (done / busy, "op/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "op_s_tail": f"p{tail_pct:.1f} over {len(times)} samples",
        "op_s_p50": f"{len(times)} samples, {main['rounds']} rounds",
    }
    extra = {}
    if runner.args.workload == "windows":
        extra["prisoners_per_s"] = (main["prisoners"] / busy, "prisoner/s")
    if runner.args.workload == "scans":
        extra["arrangements_per_s"] = (main["arrangements"] / busy,
                                       "arrangement/s")
    report["rounds"] = main["rounds"]
    report["per_kind"] = per_kind(main)
    return metrics, extra, notes


def per_kind(result: dict) -> dict:
    times: dict = {}
    for kind, took, _ in result["samples"]:
        times.setdefault(kind, []).append(took)
    return {kind: dict(result["kinds"].get(kind, {}),
                       n=len(ts), p50_s=statistics.median(ts))
            for kind, ts in times.items()}


def traced(runner: Runner, report: dict) -> tuple:
    plain, _ = runner.child("run")
    spans = OUT / f"spans-{runner.args.workload}-seed{runner.args.seed}.json"
    got, _ = runner.child("trace", spans)
    report["children"] += [plain, got]
    metrics = {k: tuple(v) for k, v in got["layers"].items()}
    wall = sum(got["round_op_s"])
    metrics["trace.overhead_ratio"] = (wall / sum(plain["round_op_s"]),
                                       "ratio")
    layer_s = sum(v for k, (v, unit) in metrics.items()
                  if unit == "s" and not k.startswith("trace."))
    notes = {
        "trace.untraced_s":
            f"layer self times {layer_s:.6f} s + untraced "
            f"{metrics['trace.untraced_s'][0]:.6f} s = "
            f"{layer_s + metrics['trace.untraced_s'][0]:.6f} s of traced "
            f"wall {wall:.6f} s",
        "trace.wall_s": f"spans logged {got.get('spans_logged')}, dropped "
                        f"{got.get('spans_dropped')}, file {spans.name}",
    }
    report["rounds"] = got["rounds"]
    report["per_kind"] = per_kind(got)
    return metrics, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time and check one prisoners workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "prisoners" / "__init__.py").is_file():
        print(f"error: no prisoners package under {ROOT / 'src'}; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2

    runner = Runner(args)
    runner.work.mkdir(parents=True, exist_ok=True)
    report = {"env": {
        "python": platform.python_version(),
        "gmpy2": ("available" if importlib.util.find_spec("gmpy2")
                  else "unavailable"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": read_loadavg(),
    }, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "children": []}
    try:
        measure = traced if args.trace else end_to_end
        metrics, extra, notes = measure(runner, report)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    children = report.pop("children")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    report["env"]["backend"] = children[-1]["backend"]
    report["env"]["loadavg_end"] = read_loadavg()
    extra_lines = dict(extra)
    if not args.trace:
        extra_lines["fail_ratio"] = (failed / attempted, "ratio")
    report.update(metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  report_only={k: {"value": v, "unit": u}
                               for k, (v, u) in extra_lines.items()},
                  attempted=attempted, failed=failed, problems=problems)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {report['rounds']} "
          "rounds, closed loop with one caller")
    print(f"  {'op kind':30s} {'n':>4s} {'p50_s':>9s} {'horizon':>8s} "
          f"{'cap':>5s} {'num_bits':>9s} {'den_bits':>9s}")
    for kind, row in sorted(report["per_kind"].items()):
        print(f"  {kind:30s} {row['n']:4d} {row['p50_s']:9.4f} "
              f"{str(row.get('horizon')):>8s} {str(row.get('cycle_cap')):>5s} "
              f"{row.get('num_bits', 0):9d} {row.get('den_bits', 0):9d}")
    for name, (value, unit) in {**metrics, **extra_lines}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    for problem in problems:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
