"""The benchmark's workloads: the ops of one round and their output checks.

An op has two halves.  `run(seed)` calls the package and returns its raw
result together with the output bytes the package rendered (a JSON report,
a TSV, a CLI output file); only this half is timed.  `judge(raw)` checks the
result without trusting the package: verdict strings against literals,
certified inequalities re-compared, exhaustive minima against sums of plain
`fractions.Fraction`.  It also records the op's horizon, its cycle-length
cap and the bit sizes of the rationals in its output.

Package entry points are always looked up as module attributes at call
time (`engine.simulate`, `permutations.random_plan`, ...), so the tracer can
wrap them where their callers look them up.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from prisoners import (
    adversaries, analyzer, cli, engine, permutations, sequences, strategies,
)
from prisoners.numeric import rat

# The warm-up pass runs every op once with this seed, and the pinned output
# digests in digests.json were recorded with it.
DEFAULT_SEED = 0

# Each round plays every op kind once and every workload has an odd number
# of kinds, so over whole rounds the median op lands inside one kind's
# cluster.  Four rounds put op_s_tail above the median even on guards.
MIN_ROUNDS = 4


@dataclass
class Outcome:
    """What the benchmark's own check found in one op's result."""

    ok: bool
    horizon: Optional[int]
    cycle_cap: Optional[int]
    num_bits: int
    den_bits: int
    witness_den_bits: int = 0
    prisoners: int = 0
    arrangements: int = 0
    problem: str = ""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[int], tuple]        # seed -> (raw, output bytes)
    judge: Callable[[object], Outcome]
    # True when the inputs come from the seed; the pinned digest then only
    # applies to DEFAULT_SEED.  Seed-free ops are checked on every call.
    seeded: bool


@dataclass(frozen=True)
class Workload:
    name: str
    # nominal wall time of one round on a 2-CPU x86 box with Python 3.11
    # and the Fraction backend; sets how many rounds --seconds buys
    round_s: float
    ops: tuple

    def rounds(self, seconds: float) -> int:
        """Whole rounds per run, fixed by --seconds so that both sides of
        a comparison time the same ops and the rank statistics sit on the
        same samples."""
        return max(MIN_ROUNDS, round(seconds / self.round_s))


def _bits(values) -> tuple[int, int]:
    num = den = 0
    for q in values:
        num = max(num, abs(q.numerator).bit_length())
        den = max(den, q.denominator.bit_length())
    return num, den


def _rationals(entries) -> list:
    """Every rational value in a list of witness-log dicts."""
    return [v for entry in entries for v in entry.values()
            if isinstance(v, numbers.Rational) and not isinstance(v, int)]


def _harmonic(m: int) -> Fraction:
    return sum((Fraction(1, n) for n in range(1, m + 1)), Fraction(0))


def _judge_report(report, verdict: str, horizon: int, cap: int,
                  scored: Optional[int] = None) -> Outcome:
    num, den = _bits(o.spent for o in report.outcomes)
    problem = ""
    if report.verdict != verdict:
        problem = f"verdict {report.verdict}, expected {verdict}"
    elif scored is not None and len(report.outcomes) != scored:
        problem = f"scored {len(report.outcomes)} of {scored} prisoners"
    return Outcome(not problem, horizon, cap, num, den,
                   prisoners=len(report.outcomes), problem=problem)


# ---------------------------------------------------------------------------
# windows: simulate on explicit random plans

def _windows(scratch: Path) -> Workload:
    harmonic = sequences.builtin_model("harmonic")
    geo = sequences.builtin_model("geometric", ratio=rat(1, 2))
    prefix = strategies.build_v2_strategy("harmonic-prefix")
    length3, _ = strategies.build_bounded_length_strategy(geo, 3)
    diameter2, _ = strategies.build_bounded_diameter_strategy(geo, 2)
    baseline = strategies.build_baseline_geometric()

    def simulate_op(kind, variant, model, alloc, planner, horizon, cap):
        def run(seed):
            report = engine.simulate(variant, model, alloc, planner(seed),
                                     horizon)
            return report, report.to_json().encode()

        # every plan here partitions [1, horizon], so all prisoners score
        return Op(kind, run,
                  lambda report: _judge_report(report, "PatternConfirmed",
                                               horizon, cap, horizon),
                  seeded=True)

    def random_plan(horizon, cap):
        return lambda seed: permutations.random_plan(horizon, cap, seed)

    def informed_run(seed):
        plan = permutations.random_plan(2000, 3, seed)
        alloc = strategies.build_cycle_informed_strategy(geo, plan, 3)
        report = engine.simulate("V1d", geo, alloc, plan, 2000)
        return report, report.to_json().encode()

    out_file = scratch / "cli-simulate.json"
    argv = ["simulate", "--variant", "V2a", "--model", "harmonic",
            "--strategy", "harmonic-prefix", "--plan", "random:max_len=6",
            "--horizon", "3000", "--out", str(out_file)]

    def cli_run(seed):
        shown = io.StringIO()
        with contextlib.redirect_stdout(shown):
            code = cli.main(argv + ["--seed", str(seed)])
        data = out_file.read_bytes()
        return (code, shown.getvalue(), data), data

    def cli_judge(raw) -> Outcome:
        code, shown, data = raw
        payload = json.loads(data)
        spent = [Fraction(o["spent"]) for o in payload["outcomes"]]
        num, den = _bits(spent)
        problem = ""
        if code != 0:
            problem = f"exit code {code}"
        elif payload["verdict"] != "PatternConfirmed":
            problem = f"verdict {payload['verdict']}"
        elif len(spent) != 3000:
            problem = f"scored {len(spent)} of 3000 prisoners"
        elif not shown.startswith("V2a horizon=3000 verdict=PatternConfirmed"):
            problem = f"summary line {shown.strip()!r}"
        return Outcome(not problem, 3000, 6, num, den, prisoners=len(spent),
                       problem=problem)

    ops = (
        # harmonic-sim-3000 of the old backend comparison script
        simulate_op("v2a-harmonic-prefix", "V2a", harmonic, prefix,
                    random_plan(3000, 6), 3000, 6),
        simulate_op("v1a-geometric-k3", "V1a", geo, length3,
                    random_plan(4000, 3), 4000, 3),
        # diameter 2 caps cycles at 3 members
        simulate_op("v1b-diameter-d2", "V1b", geo, diameter2,
                    lambda seed: permutations.random_bounded_diameter_plan(
                        2000, 2, seed), 2000, 3),
        simulate_op("v1c-open-k3", "V1c", geo, length3, random_plan(2000, 3),
                    2000, 3),
        Op("v1d-informed-k3", informed_run,
           lambda report: _judge_report(report, "PatternConfirmed", 2000, 3,
                                        2000),
           seeded=True),
        # baseline-sims-1000 of the old backend comparison script
        simulate_op("v1a-baseline", "V1a", geo, baseline,
                    random_plan(1000, 20), 1000, 20),
        Op("cli-simulate-v2a", cli_run, cli_judge, seeded=True),
    )
    return Workload("windows", 0.95, ops)


# ---------------------------------------------------------------------------
# guards: adversary plans pulled and then played

TWO_CYCLE_PAIRS = 2000


def _guards(scratch: Path) -> Workload:
    harmonic = sequences.builtin_model("harmonic")
    geo = sequences.builtin_model("geometric", ratio=rat(1, 2))
    invsq = sequences.builtin_model("inverse-square")
    baseline = strategies.build_baseline_geometric()

    def two_cycle_run(seed):
        plan = adversaries.two_cycle_adversary(geo, baseline)
        pulled = plan.materialize(TWO_CYCLE_PAIRS + 10)
        horizon = max(c.max_member for c in pulled)
        report = engine.simulate("V1b", geo, baseline, plan, horizon)
        return (report, plan), report.to_json().encode()

    def two_cycle_judge(raw) -> Outcome:
        report, plan = raw
        out = _judge_report(report, "CounterexampleFound", report.horizon, 2)
        pairs = [c for c in report.cycles if len(c) == 2]
        # the baseline amount 2^-(n-1) of partner n sits below the leader
        # price 2^-l exactly when n - 1 > l
        starved = all(partner - 1 > leader
                      for leader, partner in pairs[:TWO_CYCLE_PAIRS])
        if out.ok and (len(pairs) < TWO_CYCLE_PAIRS or not starved):
            out.ok = False
            out.problem = f"{len(pairs)} pairs, starved={starved}"
        out.witness_den_bits = _bits(_rationals(plan.witness_log))[1]
        return out

    def good_index_run(seed):
        plan = adversaries.good_index_adversary(invsq, baseline)
        pulled = plan.materialize(400)
        horizon = max(c.max_member for c in pulled)
        report = engine.simulate("V1a", invsq, baseline, plan, horizon)
        return (report, plan), report.to_json().encode()

    def good_index_judge(raw) -> Outcome:
        report, plan = raw
        cap = max(len(c) for c in report.cycles)
        out = _judge_report(report, "CounterexampleFound", report.horizon,
                            cap)
        first = set(report.cycles[0])
        stray = [o.prisoner for o in report.outcomes
                 if o.success and o.prisoner not in first]
        if out.ok and stray:
            out.ok = False
            out.problem = f"successes outside cycle one: {stray[:5]}"
        out.witness_den_bits = _bits(_rationals(plan.witness_log))[1]
        return out

    def block_op(kind, variant, builder, alloc_name, horizon, blocks):
        def run(seed):
            alloc = _fixed_price_alloc(alloc_name)
            plan = builder(alloc)
            report = engine.simulate(variant, harmonic, alloc, plan, horizon)
            certified = plan.certified_blocks(blocks)
            text = report.to_json() + "\n" + "\n".join(
                blk.describe() for blk in certified) + "\n"
            return (report, plan, certified), text.encode()

        def judge(raw) -> Outcome:
            report, plan, certified = raw
            cap = max(c.length for c in plan.cycles)
            out = _judge_report(report, "CounterexampleFound", horizon, cap)
            broken = [blk.start_label for blk in certified
                      if not blk.price_lower > blk.amount_upper]
            if out.ok and (len(certified) != blocks or broken):
                out.ok = False
                out.problem = (f"{len(certified)} certified blocks, "
                               f"failing: {broken[:5]}")
            bounds = [v for blk in certified
                      for v in (blk.price_lower, blk.amount_upper)]
            logged = _rationals(plan.witness_log)
            num, den = _bits(bounds + logged)
            out.num_bits = max(out.num_bits, num)
            out.den_bits = max(out.den_bits, den)
            out.witness_den_bits = _bits(logged)[1]
            return out

        return Op(kind, run, judge, seeded=False)

    def truncation_op(kind, variant, build, horizon):
        # leader_cap=50 ends the stream after three blocks; the window
        # reaches past the covered bound, so its tail goes unscored
        def run(seed):
            plan = build()
            report = engine.simulate(variant, invsq, baseline, plan, horizon)
            return (report, plan), report.to_json().encode()

        def judge(raw) -> Outcome:
            report, plan = raw
            out = _judge_report(report, "CounterexampleFound", horizon,
                                max(c.length for c in plan.cycles))
            note = plan.witness_log[-1].get("note", "")
            if out.ok and not (note.startswith("stream truncated")
                               and plan.covered_bound is not None
                               and report.not_simulated):
                out.ok = False
                out.problem = f"no truncation ({note!r})"
            return out

        return Op(kind, run, judge, seeded=False)

    # v2a-blocks against constant1 is left out: its exact stream is the
    # v2b-blocks one against constant1, block for block (both target 1)
    ops = (
        Op("two-cycle-geometric", two_cycle_run, two_cycle_judge,
           seeded=False),
        Op("good-index-inverse-square", good_index_run, good_index_judge,
           seeded=False),
        block_op("v2b-blocks-constant1", "V2b",
                 lambda a: adversaries.v2b_block_adversary(a),
                 "constant1", 520, 30),
        block_op("v2b-blocks-harmonic-prefix", "V2b",
                 lambda a: adversaries.v2b_block_adversary(a),
                 "harmonic-prefix", 520, 30),
        block_op("v2a-blocks-scaled-half", "V2a",
                 lambda a: adversaries.v2a_block_adversary(a),
                 "scaled", 200, 50),
        truncation_op("truncation-v1b-ceiling", "V1b",
                      lambda: adversaries.v1b_ceiling_adversary(
                          invsq, baseline, leader_cap=50), 520),
        truncation_op("truncation-v1d-chooser", "V1d",
                      lambda: adversaries.v1d_cycle_chooser(
                          invsq, leader_cap=50), 200),
    )
    return Workload("guards", 6.5, ops)


def _fixed_price_alloc(name: str):
    if name == "scaled":
        return strategies.build_v2_strategy("scaled", c=rat(1, 2))
    return strategies.build_v2_strategy(name)


# ---------------------------------------------------------------------------
# scans: exhaustive analyzer loops over tiny operands

def _scans(scratch: Path) -> Workload:
    invsq = sequences.builtin_model("inverse-square")
    geo = sequences.builtin_model("geometric", ratio=rat(1, 2))
    alternating = sequences.CustomModel(
        {2 * k: rat(1, 2 ** k) for k in range(1, 7)},
        sequences.ZeroTail(13), name="alternating")

    def minimum_op(m):
        def run(seed):
            value, delta = analyzer.brute_force_min(invsq, m)
            return (value, delta), analyzer.analysis_tsv(
                [(delta, value)]).encode()

        def judge(raw) -> Outcome:
            value, delta = raw
            expected = _harmonic(m)
            problem = "" if value == expected else (
                f"minimum {value}, expected {expected}")
            num, den = _bits([value])
            return Outcome(not problem, m, m, num, den,
                           arrangements=math.factorial(m), problem=problem)

        # exhaustive-min-m7 of the old backend comparison script at m=7
        return Op(f"min-inverse-square-m{m}", run, judge, seeded=False)

    def dominance_run(seed):
        report = analyzer.descending_partial_dominance(invsq, m=7, seed=seed)
        sigma = sequences.Relabeling.from_sequence(list(report.sigma),
                                                   name="sigma")
        head = "pass" if report.passed else "fail"
        text = (f"{head}\tchecked={report.checked}\tminimum="
                f"{report.minimum.numerator}/{report.minimum.denominator}\n"
                + analyzer.analysis_tsv([(sigma, report.minimum)]))
        return report, text.encode()

    def dominance_judge(report) -> Outcome:
        # descending 1/n^2 is the identity order, whose sum n * 1/n^2 is H_7
        problem = ""
        if not report.passed or report.mode != "exhaustive":
            problem = f"passed={report.passed} mode={report.mode}"
        elif report.checked != math.factorial(7):
            problem = f"checked {report.checked} arrangements"
        elif report.minimum != _harmonic(7):
            problem = f"minimum {report.minimum}"
        num, den = _bits([report.minimum])
        return Outcome(not problem, 7, 7, num, den,
                       arrangements=report.checked, problem=problem)

    def omission_op(kind, model, mode):
        def run(seed):
            trace = analyzer.check_zero_omission(model, 6)
            head = "pass" if trace.passed else "fail"
            text = (f"{head}\tmode={trace.mode}\t"
                    f"permutations={trace.permutations}\n")
            return trace, text.encode()

        def judge(trace) -> Outcome:
            problem = ""
            if not trace.passed or trace.failures:
                problem = f"failures: {trace.failures[:3]}"
            elif trace.mode != mode:
                problem = f"mode {trace.mode}, expected {mode}"
            elif trace.permutations != math.factorial(6):
                problem = f"{trace.permutations} permutations"
            return Outcome(not problem, 6, 6, 0, 0,
                           arrangements=trace.permutations, problem=problem)

        return Op(kind, run, judge, seeded=False)

    ops = (
        minimum_op(7),
        minimum_op(8),
        Op("dominance-inverse-square-m7", dominance_run, dominance_judge,
           seeded=False),
        omission_op("zero-omission-alternating-m6", alternating,
                    "even-embedding"),
        omission_op("zero-omission-geometric-m6", geo, "zero-free"),
    )
    return Workload("scans", 1.5, ops)


BUILDERS = {"windows": _windows, "guards": _guards, "scans": _scans}


def build(name: str, scratch: Path) -> Workload:
    return BUILDERS[name](scratch)
