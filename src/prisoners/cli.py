"""Command-line front door: simulate, verify, adversary, analyze.

Exit codes are a stable scripting contract: 0 when the run confirmed what
it claimed (or had nothing to claim), 1 when a counterexample or failed
check came back, 2 for configuration and usage problems.  All randomness
flows from the single --seed flag, so identical invocations write
byte-identical files.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from .adversaries import (
    good_index_adversary, two_cycle_adversary, v1b_ceiling_adversary,
    v1d_cycle_chooser, v2a_block_adversary, v2b_block_adversary,
)
from .analyzer import (
    analysis_tsv, brute_force_min, check_zero_omission, decide_existence,
    descending_partial_dominance,
)
from .engine import NoClaim, simulate
from .errors import DomainError, PrisonersError, UsageError
from .numeric import rat, rat_str
from .permutations import (
    cycle_line, parse_plan, random_bounded_diameter_plan, random_plan,
)
from .registry import THEOREM_KEYS, verify_theorem
from .sequences import (
    Relabeling, builtin_model, load_allocation, load_model,
)
from .strategies import (
    build_baseline_geometric, build_bounded_diameter_strategy,
    build_bounded_length_strategy, build_cycle_informed_strategy,
    build_tail_sum_strategy, build_v2_strategy,
)

__all__ = ["ScenarioConfig", "main"]

# Past this a run is refused before any work.  At 10^5 prisoners the
# cheapest run (V2a constant1) took 0.8 s and 110 MiB, so 10^6 needs about
# 1 GiB.  The random plans cap the boxes a window can open themselves.
HORIZON_CAP = 10**6


def _capped(label: str, value, cap: int):
    if isinstance(value, int) and value > cap:
        raise DomainError(f"{label} is capped at {cap}, not {value}")
    return value


# ---------------------------------------------------------------------------
# spec strings

def _split_spec(spec: str):
    """'name:a=1,b=2/3' -> (name, {raw strings})."""
    name, _, raw = spec.partition(":")
    params = {}
    if raw:
        for piece in raw.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                raise UsageError(f"expected key=value in {spec!r}")
            params[key.strip()] = value.strip()
    return name.strip(), params


def _value(text: str):
    """A spec parameter: an integer or an exact a/b rational, nothing else."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected an integer or a rational a/b, "
                         f"got {text!r}") from None


def _check_keys(label: str, params: dict, allowed) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise UsageError(f"{label} takes no parameter "
                         f"{', '.join(unknown)}")


def _build(label: str, builder, args: tuple, params: dict, allowed=None):
    """builder(*args, **params) for the keywords of a spec string.

    A keyword outside allowed (when given) or unknown to the builder, and a
    required one that is missing, are usage errors rather than tracebacks.
    """
    if allowed is not None:
        _check_keys(label, params, allowed)
    try:
        inspect.signature(builder).bind(*args, **params)
    except TypeError as err:
        raise UsageError(f"{label}: {err}") from None
    return builder(*args, **params)


def _read_text(path) -> str:
    """A plan, table or config file's text, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise UsageError(f"{path} is not UTF-8 text: {err}") from None


def parse_model(spec: str):
    if spec.startswith("@"):
        return load_model(_read_text(spec[1:]), name=Path(spec[1:]).stem)
    name, params = _split_spec(spec)
    if name == "geometric":
        ratio = _value(params.pop("ratio", "1/2"))
        if params:
            raise UsageError(f"unknown model parameters {sorted(params)}")
        return builtin_model("geometric", ratio=ratio)
    if params:
        raise UsageError(f"{name} takes no parameters")
    return builtin_model(name)


def parse_strategy(spec: str, model, plan=None):
    """Build an allocation from its spec string.

    The cycle-informed builder needs the plan it will be played against,
    so it is resolved last; everything else depends only on the model.
    """
    if spec.startswith("@"):
        return load_allocation(_read_text(spec[1:]), name=Path(spec[1:]).stem)
    name, raw = _split_spec(spec)
    params = {k: _value(v) for k, v in raw.items()}
    if name == "baseline":
        return _build(name, build_baseline_geometric, (), params)
    if name == "tail-sum":
        return _build(name, build_tail_sum_strategy, (model,), params,
                      ("total",))[0]
    if name == "bounded-length":
        return _build(name, build_bounded_length_strategy, (model,), params,
                      ("k", "total"))[0]
    if name == "bounded-diameter":
        return _build(name, build_bounded_diameter_strategy, (model,),
                      params, ("d", "total"))[0]
    if name == "cycle-informed":
        if plan is None:
            raise UsageError("cycle-informed amounts need a concrete plan; "
                             "combine with --plan @file or random")
        return _build(name, build_cycle_informed_strategy, (model, plan),
                      params, ("k", "total"))
    if name in ("constant1", "harmonic-prefix", "shifted-harmonic",
                "scaled", "log-shift"):
        return build_v2_strategy(name, **params)
    raise UsageError(f"unknown strategy {spec!r}")


# adversary kind -> (builder, the arguments it takes before its keywords)
_ADVERSARIES = {
    "good-index": (good_index_adversary, ("model", "alloc")),
    "v1b-ceiling": (v1b_ceiling_adversary, ("model", "alloc")),
    "two-cycle": (two_cycle_adversary, ("model", "alloc")),
    "v1d-chooser": (v1d_cycle_chooser, ("model",)),
    "v2a-blocks": (v2a_block_adversary, ("alloc",)),
    "v2b-blocks": (v2b_block_adversary, ("alloc",)),
}


def _adversary_plan(kind: str, model, alloc, params):
    if kind not in _ADVERSARIES:
        raise UsageError(f"unknown adversary {kind!r}; choose from "
                         f"{', '.join(_ADVERSARIES)}")
    builder, takes = _ADVERSARIES[kind]
    if alloc is None and "alloc" in takes:
        raise UsageError(f"{kind} is built against the amounts, and "
                         "cycle-informed amounts are built from the plan")
    given = {"model": model, "alloc": alloc}
    return _build(kind, builder, tuple(given[a] for a in takes), params)


def parse_plan_source(spec: str, horizon: int, seed: int, model, alloc):
    if spec.startswith("@"):
        return parse_plan(_read_text(spec[1:]), name=Path(spec[1:]).stem)
    name, raw = _split_spec(spec)
    params = {k: _value(v) for k, v in raw.items()}
    if name == "random":
        _check_keys(name, params, ("max_len",))
        return random_plan(horizon, params.get("max_len", 6), seed)
    if name == "banded":
        _check_keys(name, params, ("d",))
        return random_bounded_diameter_plan(horizon, params.get("d", 2),
                                            seed)
    if name in _ADVERSARIES:
        return _adversary_plan(name, model, alloc, params)
    raise UsageError(f"unknown plan source {spec!r}; use @file, random, "
                     f"banded, or one of {', '.join(_ADVERSARIES)}")


# ---------------------------------------------------------------------------
# scenario configs

@dataclass
class ScenarioConfig:
    """Everything one simulation run needs, file-representable."""

    variant: str
    model: str
    strategy: str
    plan: str
    horizon: int
    seed: int = 0
    entry_order: Optional[list] = None
    out: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        return cls(**payload)

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        text = _read_text(path)
        try:
            return cls.from_dict(json.loads(text))
        except (TypeError, ValueError) as err:
            raise UsageError(f"bad config file {path}: {err}")


def _emit(text: str, out: Optional[str], summary: Optional[str] = None):
    if out:
        Path(out).write_text(text)
        if summary:
            print(summary)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    if args.config:
        config = ScenarioConfig.load(args.config)
    else:
        if not (args.variant and args.model and args.strategy and args.plan
                and args.horizon is not None):
            raise UsageError("simulate needs --variant, --model, "
                             "--strategy, --plan and --horizon "
                             "(or a --config file)")
        order = None
        if args.entry_order:
            try:
                order = [int(x) for x in args.entry_order.split(",")]
            except ValueError:
                raise UsageError("--entry-order takes comma-separated "
                                 "prisoner indices, got "
                                 f"{args.entry_order!r}") from None
        config = ScenarioConfig(args.variant, args.model, args.strategy,
                                args.plan, args.horizon, args.seed,
                                order, args.out)
    _capped("the horizon", config.horizon, HORIZON_CAP)
    if args.save_config:
        ScenarioConfig(**config.to_dict()).save(args.save_config)

    model = parse_model(config.model)
    strategy_spec, _ = _split_spec(config.strategy)
    alloc = None
    if strategy_spec != "cycle-informed":
        alloc = parse_strategy(config.strategy, model)
    plan = parse_plan_source(config.plan, config.horizon, config.seed,
                             model, alloc)
    if alloc is None:
        alloc = parse_strategy(config.strategy, model, plan)

    report = simulate(config.variant, model, alloc, plan, config.horizon,
                      entry_order=config.entry_order)
    wins = report.success_count
    summary = (f"{report.variant} horizon={report.horizon} "
               f"verdict={report.verdict} successes={wins}"
               f"/{len(report.outcomes)}")
    _emit(report.to_json() + "\n", config.out, summary)
    claims = not isinstance(report.claim, NoClaim)  # else it decides nothing
    return 1 if claims and report.verdict != "PatternConfirmed" else 0


_PARAM_ALIASES = {"alloc": "allocs", "cycles": "blocks"}


def _verify_params(tokens) -> dict:
    params = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise UsageError(f"expected key=value, got {token!r}")
        key = _PARAM_ALIASES.get(key, key)
        params[key] = (value,) if key == "allocs" else _value(value)
    return params


def _verify_one(key: str, params, seed: int) -> bool:
    report = verify_theorem(key, params=params or None, seed=seed)
    flag = "PASS" if report.passed else "FAIL"
    line = f"{flag} {key}: {report.details} [checks={report.checks}]"
    if not report.passed and report.witnesses:
        line += f" witnesses={list(report.witnesses)[:8]}"
    print(line)
    return report.passed


def cmd_verify(args) -> int:
    params = _verify_params(args.params)
    if args.key == "all":
        if params:
            raise UsageError("parameters apply to a single key, not all")
        results = [_verify_one(k, {}, args.seed) for k in THEOREM_KEYS]
        return 0 if all(results) else 1
    if args.key not in THEOREM_KEYS:
        raise UsageError(f"unknown registry key {args.key!r}; run "
                         "'prisoners verify all' to see every key")
    return 0 if _verify_one(args.key, params, args.seed) else 1


def cmd_adversary(args) -> int:
    model = parse_model(args.model)
    alloc = parse_strategy(args.strategy, model)
    kind, raw = _split_spec(args.kind)
    params = {k: _value(v) for k, v in raw.items()}
    if args.cycles < 1:
        raise UsageError(f"--cycles must be at least 1, not {args.cycles}")
    plan = _adversary_plan(kind, model, alloc, params)
    cycles = plan.materialize(args.cycles)
    lines = []
    for cycle, entry in zip(cycles, plan.witness_log):
        base, note = cycle_line(cycle), entry.get("inequality")
        lines.append(f"{base}  # {note}" if note else base)
    _emit("\n".join(lines) + "\n", args.out,
          f"{kind}: wrote {len(cycles)} cycles")
    return 0


def cmd_analyze(args) -> int:
    model = parse_model(args.model)
    if args.mode == "min":
        value, delta = brute_force_min(model, args.m)
        _emit(analysis_tsv([(delta, value)]), args.out)
        return 0
    if args.mode == "existence":
        verdict = decide_existence(model)
        lines = [f"{verdict.value}\t{verdict.justification}"]
        diag = verdict.diagnostics or {}
        if diag.get("ordering"):
            lines.append(f"ordering\t{diag['ordering']}")
            for m, total in diag.get("partial_sums", []):
                lines.append(f"partial-sum\t{m}\t{total}")
        elif "note" in diag:
            lines.append(f"note\t{diag['note']}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.mode == "dominance":
        report = descending_partial_dominance(model, trials=args.trials,
                                              m=args.m, seed=args.seed)
        sigma = Relabeling.from_sequence(list(report.sigma), name="sigma")
        head = ("pass" if report.passed else "fail")
        body = (f"{head}\tchecked={report.checked}\t"
                f"minimum={rat_str(report.minimum)}\n")
        _emit(body + analysis_tsv([(sigma, report.minimum)]), args.out)
        return 0 if report.passed else 1
    if args.mode == "zero-omission":
        trace = check_zero_omission(model, args.m)
        head = "pass" if trace.passed else "fail"
        _emit(f"{head}\tmode={trace.mode}\t"
              f"permutations={trace.permutations}\n", args.out)
        return 0 if trace.passed else 1
    raise UsageError(f"unknown analyze mode {args.mode!r}")


# ---------------------------------------------------------------------------
# wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prisoners",
        description="Exact simulator and verifier for priced-box games")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario window")
    sim.add_argument("--variant")
    sim.add_argument("--model")
    sim.add_argument("--strategy")
    sim.add_argument("--plan")
    sim.add_argument("--horizon", type=int)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--entry-order")
    sim.add_argument("--config")
    sim.add_argument("--save-config")
    sim.add_argument("--out")
    sim.set_defaults(run=cmd_simulate)

    ver = sub.add_parser("verify", help="replay a registered result")
    ver.add_argument("key")
    ver.add_argument("params", nargs="*")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(run=cmd_verify)

    adv = sub.add_parser("adversary", help="emit a guard plan")
    adv.add_argument("kind")
    adv.add_argument("--model", default="geometric")
    adv.add_argument("--strategy", default="baseline")
    adv.add_argument("--cycles", type=int, default=6)
    adv.add_argument("--out")
    adv.set_defaults(run=cmd_adversary)

    ana = sub.add_parser("analyze", help="weighted-sum analysis")
    ana.add_argument("--model", required=True)
    ana.add_argument("--mode", required=True,
                     choices=["min", "existence", "dominance",
                              "zero-omission"])
    ana.add_argument("--m", type=int, default=4)
    ana.add_argument("--trials", type=int, default=1000)
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--out")
    ana.set_defaults(run=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except PrisonersError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # a bug, but scripts read exit 1 as a counterexample
        import traceback  # only a bug needs it, so kept off the import path
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
