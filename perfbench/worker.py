"""One workload in one fresh interpreter: set-up, then timed rounds.

run.py starts it in the first three modes and reads the JSON it writes to
--result.  Modes:

  setup   import, build the workload and run the untimed warm-up pass, then
          stop; run.py times this from process start to get setup_s
  run     set-up, then the timed rounds with tracing off
  trace   set-up, then the same rounds inside the per-layer tracer, then
          the Rat probes; the spans go to --spans
  digests set-up only, printing the warm-up outputs' SHA-256 digests, to
          refresh digests.json by hand after an intended change of output
          bytes, e.g. python3 perfbench/worker.py --workload scans --seed 0
          --seconds 1 --mode digests --scratch .bench_out
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import prisoners  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# failure messages kept per run; the counts cover every failure
MAX_PROBLEMS = 20


class Book:
    """Everything the worker measured or checked."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.samples: list = []      # [kind, seconds, ok] of timed ops
        self.kinds: dict = {}        # kind -> largest sizes seen
        self.digests: dict = {}      # kind -> digest at the default seed
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.witness_den_bits = 0

    def fail(self, kind: str, seed: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{kind} seed={seed}: {why}")

    def execute(self, op, seed: int, tracer=None):
        """Run one op, time its package half and judge it.

        Returns (seconds, ok, outcome); outcome is None when the op raised.
        The tracer, when given, records spans only while the package runs.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        start = time.perf_counter()
        try:
            raw, data = op.run(seed)
        except Exception:
            self.fail(op.kind, seed, traceback.format_exc(limit=3))
            return time.perf_counter() - start, False, None
        finally:
            if tracer is not None:
                tracer.op = None
        took = time.perf_counter() - start
        try:
            out = op.judge(raw)
        except Exception:
            self.fail(op.kind, seed, traceback.format_exc(limit=3))
            return took, False, None
        ok = out.ok
        if not ok:
            self.fail(op.kind, seed, out.problem)
        digest = hashlib.sha256(data).hexdigest()
        if seed == workloads.DEFAULT_SEED or not op.seeded:
            self.digests[op.kind] = digest
            pinned = self.pins.get(op.kind)
            if digest != pinned:
                ok = False
                self.fail(op.kind, seed, f"output sha256 {digest} differs "
                                         f"from the pinned {pinned}")
        sizes = self.kinds.setdefault(op.kind, {
            "horizon": out.horizon, "cycle_cap": out.cycle_cap,
            "num_bits": 0, "den_bits": 0})
        sizes["num_bits"] = max(sizes["num_bits"], out.num_bits)
        sizes["den_bits"] = max(sizes["den_bits"], out.den_bits)
        self.witness_den_bits = max(self.witness_den_bits,
                                    out.witness_den_bits)
        return took, ok, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=["setup", "run", "trace", "digests"])
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    scratch = Path(args.scratch)
    pins = json.loads((HERE / "digests.json").read_text())
    workload = workloads.build(args.workload, scratch)
    book = Book(pins.get(workload.name, {}))

    # warm-up: every op kind once at the default seed, untimed; fills the
    # package's module-level caches and checks the pinned output bytes
    for op in workload.ops:
        book.execute(op, workloads.DEFAULT_SEED)
    ready = time.monotonic()

    if args.mode == "digests":
        print(json.dumps({workload.name: book.digests}, indent=2,
                         sort_keys=True))
        return 0

    result = {"workload": workload.name, "backend": prisoners.BACKEND,
              "ready_monotonic": ready}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer(tracing.modules_to_patch([workloads]))
            tracing.install(tracer)
        rounds = workload.rounds(args.seconds)
        round_op_s = []
        timed_prisoners = timed_arrangements = 0
        for r in range(rounds):
            seed = args.seed + r
            order = list(workload.ops)
            random.Random(seed).shuffle(order)
            spent = 0.0
            for op in order:
                took, ok, out = book.execute(op, seed, tracer)
                spent += took
                book.samples.append([op.kind, took, ok])
                if ok:
                    timed_prisoners += out.prisoners
                    timed_arrangements += out.arrangements
            round_op_s.append(spent)
        result.update(rounds=rounds, round_op_s=round_op_s,
                      samples=book.samples, prisoners=timed_prisoners,
                      arrangements=timed_arrangements)
        if tracer is not None:
            tracer.uninstall()
            layers = tracing.layer_metrics(tracer, sum(round_op_s))
            layers["adversaries.witness_den_bits_max"] = (
                book.witness_den_bits, "bits")
            layers.update(tracing.probe_rat(prisoners.Rat, args.seed))
            result["layers"] = layers
            if args.spans:
                tracer.dump(args.spans)
                result["spans_logged"] = len(tracer.spans)
                result["spans_dropped"] = tracer.dropped

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        peak_rss_mb=usage.ru_maxrss / 1024, attempted=book.attempted,
        failed=book.failed, problems=book.problems, kinds=book.kinds,
        witness_den_bits=book.witness_den_bits)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
