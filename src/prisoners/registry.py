"""Named-result registry: each check replays one claim end to end.

A check builds its allocations, plans and guards from its parameters and
a seed, runs them through engine.simulate or the analyzer's exhaustive
scans, and judges every outcome exactly.  verify_theorem runs one check by
key, with its defaults overridden by parameters of the same names and
types.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .adversaries import (
    divergence_witness, good_index_adversary, scaled_harmonic_gap,
    two_cycle_adversary, v1b_ceiling_adversary, v1d_cycle_chooser,
    v2a_block_adversary, v2b_block_adversary,
)
from .analyzer import (
    brute_force_min, check_zero_omission, cycle_notation, decide_existence,
    descending_partial_dominance,
)
from .engine import simulate
from .errors import DomainError
from .numeric import ONE, Rat, ZERO, rat, rat_str
from .permutations import random_bounded_diameter_plan, random_plan
from .sequences import (
    HARMONIC, AllocationPlan, BlackBoxModel, CustomModel, GeometricTail,
    PermutedModel, TableAllocation, ZeroTail, builtin_model,
    descending_rearrangement, omit_zeros, quasi_descending_rearrangement,
    weighted_partial_sum,
)
from .strategies import (
    build_baseline_geometric, build_bounded_diameter_strategy,
    build_bounded_length_strategy, build_cycle_informed_strategy,
    build_tail_sum_strategy, build_v2_strategy,
)

__all__ = ["THEOREM_KEYS", "VerificationReport", "verify_theorem"]


@dataclass
class VerificationReport:
    key: str
    passed: bool
    checks: int
    details: str
    witnesses: tuple = ()


GEO_HALF = builtin_model("geometric", ratio=rat(1, 2))
INVSQ = builtin_model("inverse-square")


_PARAM_KINDS = {int: "an integer", tuple: "a tuple", Rat: "a rational"}

# count parameters: below 1 a check would run nothing and pass, and past
# the cap it cannot run; tail-sum at horizon 3 * 10^4 took 13 s and 200 MiB,
# growing about as the square, so 10^5 needs about 2 GiB
_COUNTS = frozenset(("plans", "horizon", "max_len", "m", "k", "d", "cycles",
                     "pairs", "blocks"))
_COUNT_CAP = 10**5


def _merge(defaults: dict, params) -> dict:
    """The runner's defaults, overridden by params of the same keys and types.

    A check run with a key it does not read, with a value of the wrong
    type, or with a count below 1 or past _COUNT_CAP would pass vacuously,
    crash or never end, so each is a domain error.
    """
    got = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise DomainError(f"unknown parameter {key!r}; this check takes "
                              f"{', '.join(defaults)}")
        want, have = type(defaults[key]), type(value)
        if have is not want:
            raise DomainError(
                f"parameter {key!r} takes "
                f"{_PARAM_KINDS.get(want, want.__name__)}, not "
                f"{_PARAM_KINDS.get(have, have.__name__)}")
        if key in _COUNTS and not 1 <= value <= _COUNT_CAP:
            raise DomainError(f"parameter {key!r} counts, so it must be at "
                              f"least 1 and at most {_COUNT_CAP}, not {value}")
        got[key] = value
    return got


def _shuffled_geometric(seed: int, width: int = 12) -> CustomModel:
    """Geometric values dealt onto 1..width in a seeded disorder."""
    rng = random.Random(("shuffle", seed).__repr__())
    values = [rat(1, 2) ** k for k in range(1, width + 1)]
    rng.shuffle(values)
    entries = {i + 1: v for i, v in enumerate(values)}
    return CustomModel(entries, GeometricTail(rat(1, 2), width + 1),
                       name=f"shuffled[{seed}]")


def _alloc_from_name(name: str) -> AllocationPlan:
    """constant1, harmonic-prefix, shifted-harmonic:k or scaled:c."""
    kind, _, arg = name.partition(":")
    try:
        if kind in ("constant1", "harmonic-prefix") and not arg:
            return build_v2_strategy(kind)
        if kind == "shifted-harmonic" and arg:
            return build_v2_strategy(kind, k=int(arg))
        if kind == "scaled" and arg:
            return build_v2_strategy(kind, c=rat(arg))
    except DomainError:
        raise
    except (ValueError, ZeroDivisionError):  # an unreadable k or c
        pass
    raise DomainError(f"unknown fixed-price allocation {name!r}")


def _block_defeats(variant: str, adversary, names, horizon: int,
                   count: int, bad: list) -> int:
    """Play named allocations against their block guard, count the checks:
    one per window verdict and one per certified block; misses go to bad."""
    checks = 0
    for name in names:
        alloc = _alloc_from_name(name)
        plan = adversary(alloc)
        report = simulate(variant, HARMONIC, alloc, plan, horizon)
        checks += 1
        if report.verdict != "CounterexampleFound":
            bad.append(f"{name}: {report.verdict}")
        blocks = plan.certified_blocks(count)
        if len(blocks) != count:
            bad.append(f"{name}: {len(blocks)} certified blocks")
        for blk in blocks:
            checks += 1
            if not blk.price_lower > blk.amount_upper:
                bad.append(f"{name}: certified block {blk.start_label}")
    return checks


def _k_tail_sum(params, seed) -> VerificationReport:
    p = _merge({"plans": 50, "horizon": 48, "max_len": 6}, params)
    alloc, m = build_tail_sum_strategy(GEO_HALF)
    bad = []
    for i in range(p["plans"]):
        plan = random_plan(p["horizon"], p["max_len"], seed + i)
        report = simulate("V1a", GEO_HALF, alloc, plan, p["horizon"])
        if report.verdict != "PatternConfirmed":
            bad.extend(report.witnesses or [f"plan {i}: {report.verdict}"])
        won = {o.prisoner: o.success for o in report.outcomes}
        bad.extend(min(members) for members in report.cycles
                   if min(members) >= m and not won[min(members)])
    return VerificationReport(
        "tail-sum-strategy", not bad, p["plans"],
        f"tail-funded amounts with cutoff {m} on {p['plans']} random plans",
        tuple(bad))


def _k_rearranged(params, seed) -> VerificationReport:
    p = _merge({"plans": 30, "horizon": 40, "max_len": 5}, params)
    model = _shuffled_geometric(seed)
    delta = descending_rearrangement(model, 64)
    work = PermutedModel(model, delta)
    bad = []
    prev = None
    for n in range(1, 41):
        cur = work.term(n)
        if prev is not None and cur > prev:
            bad.append(n)
        prev = cur
    alloc, m = build_tail_sum_strategy(model, delta)
    for i in range(p["plans"]):
        plan = random_plan(p["horizon"], p["max_len"], seed + i)
        report = simulate("V1a", work, alloc, plan, p["horizon"])
        if report.verdict != "PatternConfirmed":
            bad.extend(report.witnesses or [f"plan {i}: {report.verdict}"])
    return VerificationReport(
        "rearranged-strategy", not bad, p["plans"],
        "reordered prices are non-increasing and the tail-funded pattern "
        f"holds from cutoff {m}", tuple(bad))


def _k_divergence(params, seed) -> VerificationReport:
    p = _merge({"targets": (3, 10)}, params)
    bad = []
    checks = 0
    for model in (INVSQ, HARMONIC):
        for target in p["targets"]:
            delta, m = divergence_witness(model, target)
            checks += 1
            if not weighted_partial_sum(model, delta, m) > Rat(target):
                bad.append(f"{model.name}@{target}")
    return VerificationReport(
        "divergence-witness", not bad, checks,
        "weighted partial sums pushed past every target exactly",
        tuple(bad))


def _k_identity_min(params, seed) -> VerificationReport:
    p = _merge({"m": 6}, params)
    m = p["m"]
    value, delta = brute_force_min(INVSQ, m)
    expected = sum((rat(1, n) for n in range(1, m + 1)), ZERO)
    ok = delta.is_identity and value == expected
    return VerificationReport(
        "identity-minimality", ok, math.factorial(m),
        f"identity wins all {math.factorial(m)} arrangements at "
        f"{rat_str(value)}",
        () if ok else (cycle_notation(delta),))


def _k_good_index(params, seed) -> VerificationReport:
    p = _merge({"cycles": 8}, params)
    allocs = [build_baseline_geometric(),
              TableAllocation({1: rat(1, 2), 2: rat(1, 4), 3: rat(1, 8),
                               4: rat(1, 16)}, ZeroTail(5), name="front")]
    bad = []
    checks = 0
    for alloc in allocs:
        plan = good_index_adversary(INVSQ, alloc)
        pulled = plan.materialize(p["cycles"])
        horizon = max(c.max_member for c in pulled)
        report = simulate("V1a", INVSQ, alloc, plan, horizon)
        checks += 1
        if report.verdict != "CounterexampleFound":
            bad.append(f"{alloc.name}: {report.verdict}")
        first = report.cycles[0]
        for o in report.outcomes:
            if o.success and o.prisoner not in first:
                bad.append(f"{alloc.name}: success at {o.prisoner}")
    return VerificationReport(
        "good-index-adversary", not bad, checks,
        "every success is trapped in the first emitted cycle",
        tuple(bad))


def _k_existence(params, seed) -> VerificationReport:
    p = _merge({"plans": 20, "horizon": 40}, params)
    bad = []
    if decide_existence(GEO_HALF).value != "Exists":
        bad.append("geometric not Exists")
    if decide_existence(INVSQ).value != "NotExists":
        bad.append("inverse-square not NotExists")
    opaque = BlackBoxModel(lambda n: rat(1, n), name="opaque")
    if decide_existence(opaque).value != "Unknown":
        bad.append("black box not Unknown")
    alloc, _ = build_tail_sum_strategy(GEO_HALF)
    for i in range(p["plans"]):
        plan = random_plan(p["horizon"], 5, seed + i)
        if simulate("V1a", GEO_HALF, alloc, plan,
                    p["horizon"]).verdict != "PatternConfirmed":
            bad.append(f"plan {i} unconfirmed")
    baseline = build_baseline_geometric()
    guard = good_index_adversary(INVSQ, baseline)
    pulled = guard.materialize(6)
    horizon = max(c.max_member for c in pulled)
    if simulate("V1a", INVSQ, baseline, guard,
                horizon).verdict != "CounterexampleFound":
        bad.append("no counterexample on the divergent side")
    return VerificationReport(
        "existence-criterion", not bad, p["plans"] + 4,
        "certificates agree with builders on one side and the guard on "
        "the other", tuple(bad))


def _k_descending_reduction(params, seed) -> VerificationReport:
    p = _merge({"m": 6}, params)
    bad = []
    if not descending_partial_dominance(INVSQ, m=p["m"]).passed:
        bad.append("dominance failed on inverse-square")
    model = _shuffled_geometric(seed + 1)
    delta = descending_rearrangement(model, 64)
    work = PermutedModel(model, delta)
    for n in range(1, 40):
        if work.term(n) < work.term(n + 1):
            bad.append(f"not sorted at {n}")
    entries = {2 * k: rat(1, 2 ** k) for k in range(1, 7)}
    gappy = CustomModel(entries, ZeroTail(13), name="gappy")
    quasi = quasi_descending_rearrangement(gappy, 64)
    placed = [gappy.term(quasi(n)) for n in range(1, 13)]
    positives = [v for v in placed if v > ZERO]
    if positives != sorted(positives, reverse=True):
        bad.append("quasi ordering scrambled the positives")
    return VerificationReport(
        "descending-reduction", not bad, math.factorial(p["m"]) + 2,
        "descending prefix dominates and value orderings sort exactly",
        tuple(bad))


def _k_zero_omission(params, seed) -> VerificationReport:
    p = _merge({"m": 5}, params)
    entries = {2 * k: rat(1, 2 ** k) for k in range(1, 7)}
    model = CustomModel(entries, ZeroTail(13), name="alternating")
    trace = check_zero_omission(model, p["m"])
    compressed, _ = omit_zeros(model, 64)
    bad = list(trace.failures)
    if compressed.weighted_cert is not model.weighted_cert:
        bad.append("certificate lost in compression")
    return VerificationReport(
        "zero-omission", trace.passed and not bad, trace.permutations,
        f"all {trace.permutations} arrangements kept both identities",
        tuple(str(b) for b in bad))


def _k_bounded_length(params, seed) -> VerificationReport:
    p = _merge({"k": 3, "plans": 200, "horizon": 40}, params)
    alloc, m = build_bounded_length_strategy(GEO_HALF, p["k"])
    bad = []
    for i in range(p["plans"]):
        plan = random_plan(p["horizon"], p["k"], seed + i)
        report = simulate("V1a", GEO_HALF, alloc, plan, p["horizon"])
        if report.verdict != "PatternConfirmed":
            bad.append(i)
    return VerificationReport(
        "bounded-length-v1a", not bad, p["plans"],
        f"priciest member wins in every cycle past {m} across "
        f"{p['plans']} plans", tuple(bad))


def _k_v1b_no_strategy(params, seed) -> VerificationReport:
    p = _merge({"horizon": 200}, params)
    allocs = [build_baseline_geometric(),
              TableAllocation({1: rat(1, 3), 2: rat(1, 3), 3: rat(1, 3)},
                              ZeroTail(4), name="thirds")]
    bad = []
    blocks_seen = 0
    for alloc in allocs:
        plan = v1b_ceiling_adversary(INVSQ, alloc)
        report = simulate("V1b", INVSQ, alloc, plan, p["horizon"])
        if report.verdict != "CounterexampleFound":
            bad.append(f"{alloc.name}: {report.verdict}")
        blocks_seen += sum(1 for c in report.cycles if len(c) >= 2)
    return VerificationReport(
        "v1b-no-strategy", not bad, blocks_seen,
        "every sized block pinched some member below its leader price",
        tuple(bad))


def _k_bounded_diameter(params, seed) -> VerificationReport:
    p = _merge({"d": 2, "plans": 200, "horizon": 40}, params)
    alloc, m = build_bounded_diameter_strategy(GEO_HALF, p["d"])
    bad = []
    for i in range(p["plans"]):
        plan = random_bounded_diameter_plan(p["horizon"], p["d"], seed + i)
        report = simulate("V1b", GEO_HALF, alloc, plan, p["horizon"])
        if report.verdict != "PatternConfirmed":
            bad.append(i)
    return VerificationReport(
        "bounded-diameter-v1b", not bad, p["plans"],
        f"everyone past {m + p['d']} succeeds on {p['plans']} banded plans",
        tuple(bad))


def _k_two_cycle(params, seed) -> VerificationReport:
    p = _merge({"pairs": 100}, params)
    alloc = build_baseline_geometric()
    plan = two_cycle_adversary(GEO_HALF, alloc)
    pulled = plan.materialize(p["pairs"] + 10)
    horizon = max(c.max_member for c in pulled)
    report = simulate("V1b", GEO_HALF, alloc, plan, horizon)
    pairs = [c for c in report.cycles if len(c) == 2]
    success = {o.prisoner: o.success for o in report.outcomes}
    bad = []
    if report.verdict != "CounterexampleFound":
        bad.append(report.verdict)
    if len(pairs) < p["pairs"]:
        bad.append(f"only {len(pairs)} pairs inside the window")
    for members in pairs[:p["pairs"]]:
        if all(success[m] for m in members):
            bad.append(f"pair {members} fully succeeded")
    return VerificationReport(
        "two-cycle-v1b", not bad, len(pairs),
        f"each of the first {p['pairs']} pairs starves its partner",
        tuple(str(b) for b in bad))


def _k_open_boxes(params, seed) -> VerificationReport:
    p = _merge({"k": 3, "plans": 100, "horizon": 40}, params)
    alloc, m = build_bounded_length_strategy(GEO_HALF, p["k"])
    bad = []
    free_riders = 0
    for i in range(p["plans"]):
        plan = random_plan(p["horizon"], p["k"], seed + i)
        report = simulate("V1c", GEO_HALF, alloc, plan, p["horizon"])
        if report.verdict != "PatternConfirmed":
            bad.append(i)
            continue
        outcome = {o.prisoner: o for o in report.outcomes}
        for members in report.cycles:
            if min(members) < m:
                continue
            for member in members:
                if not outcome[member].success:
                    bad.append(f"plan {i}: {member} failed")
                if member != min(members):
                    free_riders += 1
                    if outcome[member].spent != ZERO:
                        bad.append(f"plan {i}: {member} paid")
    return VerificationReport(
        "open-boxes-v1c", not bad, p["plans"],
        f"{free_riders} later cycle members all succeeded at zero cost",
        tuple(str(b) for b in bad))


def _k_v1d_no_strategy(params, seed) -> VerificationReport:
    p = _merge({"horizon": 200}, params)
    allocs = [build_baseline_geometric(),
              TableAllocation({1: rat(1, 2), 2: rat(1, 2)}, ZeroTail(3),
                              name="halves")]
    bad = []
    blocks = 0
    disclosed = []
    for alloc in allocs:
        plan = v1d_cycle_chooser(INVSQ)
        report = simulate("V1d", INVSQ, alloc, plan, p["horizon"])
        if report.verdict != "CounterexampleFound":
            bad.append(f"{alloc.name}: {report.verdict}")
        blocks += sum(1 for c in report.cycles if len(c) >= 2)
        disclosed.append(tuple(repr(c) for c in plan.materialize(5)))
    if disclosed[0] != disclosed[1]:
        bad.append("the disclosed plan depended on the allocation")
    return VerificationReport(
        "v1d-no-strategy", not bad, blocks,
        "one disclosed block sequence defeats every allocation inside "
        "the total", tuple(bad))


def _k_v1d_bounded(params, seed) -> VerificationReport:
    p = _merge({"k": 3, "plans": 50, "horizon": 40}, params)
    bad = []
    for i in range(p["plans"]):
        plan = random_plan(p["horizon"], p["k"], seed + i)
        alloc = build_cycle_informed_strategy(GEO_HALF, plan, p["k"])
        report = simulate("V1d", GEO_HALF, alloc, plan, p["horizon"])
        won = {o.prisoner: o.success for o in report.outcomes}
        late = [c for c in report.cycles if min(c) >= alloc.claim.cutoff]
        if (report.verdict != "PatternConfirmed"
                or not all(won[x] for c in late for x in c)):
            bad.append(i)
    return VerificationReport(
        "v1d-bounded", not bad, p["plans"],
        "exact cycle prices released every fully late cycle",
        tuple(bad))


def _k_v2a(params, seed) -> VerificationReport:
    p = _merge({"plans": 30, "horizon": 40, "blocks": 50, "K": 2}, params)
    bad = []
    checks = 0
    winners = [build_v2_strategy("harmonic-prefix"),
               build_v2_strategy("shifted-harmonic", k=5),
               build_v2_strategy("log-shift", K=p["K"])]
    kcut = winners[2].start
    if HARMONIC.prefix_sum(kcut + 1) < Rat(p["K"]) + 1:
        bad.append("log-shift cutoff too small")
    for alloc in winners:
        for i in range(p["plans"]):
            plan = random_plan(p["horizon"], 4, seed + i)
            report = simulate("V2a", HARMONIC, alloc, plan, p["horizon"])
            checks += 1
            if report.verdict != "PatternConfirmed":
                bad.append(f"{alloc.name}: plan {i}")
    checks += _block_defeats("V2a", v2a_block_adversary,
                             ("constant1", "scaled:1/2"), 200, p["blocks"],
                             bad)
    return VerificationReport(
        "v2a-strategies", not bad, checks,
        "prefix-style amounts confirm; the flat and scaled ones are "
        "defeated block by block", tuple(bad))


def _k_scaled_gap(params, seed) -> VerificationReport:
    p = _merge({"cases": ((2, "1/2", 4), (1, "1/2", 1), (1, "99/100", 1),
                          (5, "1/2", 36))}, params)
    bad = []
    for k, c, expected in p["cases"]:
        c = rat(c)
        n = scaled_harmonic_gap(k, c)
        if n != expected:
            bad.append(f"gap({k},{rat_str(c)}) = {n}")
            continue
        goal = HARMONIC.prefix_sum(k - 1) if k > 1 else ZERO
        if not HARMONIC.prefix_sum(n) * (ONE - c) > goal:
            bad.append(f"gap({k},{rat_str(c)}) inequality")
        if n > 1 and HARMONIC.prefix_sum(n - 1) * (ONE - c) > goal:
            bad.append(f"gap({k},{rat_str(c)}) not minimal")
    return VerificationReport(
        "scaled-gap", not bad, len(p["cases"]),
        "every scaled amount is outgrown at exactly the recorded index",
        tuple(bad))


def _k_v2b(params, seed) -> VerificationReport:
    p = _merge({"allocs": ("constant1", "harmonic-prefix"),
                "horizon": 520, "blocks": 30}, params)
    bad = []
    checks = _block_defeats("V2b", v2b_block_adversary, p["allocs"],
                            p["horizon"], p["blocks"], bad)
    return VerificationReport(
        "v2b-no-strategy", not bad, checks,
        "every block's first member fails, exactly or by certified bound",
        tuple(bad))


_REGISTRY = {
    "tail-sum-strategy": _k_tail_sum,
    "rearranged-strategy": _k_rearranged,
    "divergence-witness": _k_divergence,
    "identity-minimality": _k_identity_min,
    "good-index-adversary": _k_good_index,
    "existence-criterion": _k_existence,
    "descending-reduction": _k_descending_reduction,
    "zero-omission": _k_zero_omission,
    "bounded-length-v1a": _k_bounded_length,
    "v1b-no-strategy": _k_v1b_no_strategy,
    "bounded-diameter-v1b": _k_bounded_diameter,
    "two-cycle-v1b": _k_two_cycle,
    "open-boxes-v1c": _k_open_boxes,
    "v1d-no-strategy": _k_v1d_no_strategy,
    "v1d-bounded": _k_v1d_bounded,
    "v2a-strategies": _k_v2a,
    "scaled-gap": _k_scaled_gap,
    "v2b-no-strategy": _k_v2b,
}

THEOREM_KEYS = tuple(_REGISTRY)


def verify_theorem(key: str, params: Optional[dict] = None,
                   seed: int = 0) -> VerificationReport:
    """Replay a named result end to end and judge it exactly.

    A check that checked nothing has not passed.
    """
    runner = _REGISTRY.get(key)
    if runner is None:
        raise DomainError(f"unknown registry key {key!r}; choose from "
                          f"{', '.join(THEOREM_KEYS)}")
    report = runner(params, seed)
    report.passed = report.passed and report.checks > 0
    return report
