"""Pointer-following execution, release evaluation, and the check registry.

A prisoner walks his pointer chain box by box, paying each closed box's
price out of his own amount; the walk either closes his whole cycle or dies
where the money runs out.  Simulation scores every prisoner whose cycle is
fully inside the window, renders a verdict against whatever success pattern
was claimed (by a builder descriptor or by a guard construction), and the
registry replays each named result end to end with exact arithmetic.

Under closed boxes (V1a, V1b, V1d, V2a, V2b) prices are nonnegative, so a
walk opens exactly the longest prefix of its rotation that the amount
covers; those variants are scored a cycle at a time from the cycle's prefix
sums.  run_prisoner is the box-by-box walk: it plays the open-boxes variant
V1c, whose shared open boxes make walks depend on each other, and it is the
oracle the per-cycle scoring is tested against.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .adversaries import (
    ALL_MEMBERS_FAIL, ANCHOR_FAILS, AdversaryClaim, FAILURE_IN_EVERY_CYCLE,
    NO_SUCCESS_AFTER_FIRST, divergence_witness, good_index_adversary,
    scaled_harmonic_gap, two_cycle_adversary, v1b_ceiling_adversary,
    v1d_cycle_chooser, v2a_block_adversary, v2b_block_adversary,
)
from .analyzer import (
    brute_force_min, check_zero_omission, cycle_notation, decide_existence,
    descending_partial_dominance,
)
from .errors import DomainError, NotMaterializedError, UsageError
from .numeric import ONE, Rat, ZERO, rat, rat_str
from .permutations import (
    CyclePlan, random_bounded_diameter_plan, random_plan,
)
from .sequences import (
    AllocationPlan, BlackBoxModel, CustomModel, DivergentTotal, ExactTotal,
    GeometricTail, HarmonicModel, PermutedModel, PriceModel,
    TableAllocation, ZeroTail, builtin_model, descending_rearrangement,
    omit_zeros, quasi_descending_rearrangement, weighted_partial_sum,
)
from .strategies import (
    StrategyDescriptor, build_baseline_geometric,
    build_bounded_diameter_strategy, build_bounded_length_strategy,
    build_cycle_informed_strategy, build_tail_sum_strategy, build_v2_strategy,
    relabeling_from_pairs,
)

__all__ = [
    "PrisonerOutcome", "ReleaseVerdict", "SimulationReport", "THEOREM_KEYS",
    "Variant", "VARIANTS", "VerificationReport", "evaluate_release",
    "get_variant", "run_prisoner", "simulate", "verify_theorem",
]


# ---------------------------------------------------------------------------
# variants

@dataclass(frozen=True)
class Variant:
    """Release rule, information model and price regime of one game."""

    id: str
    release: str  # InfinitelyMany | CofinitelyMany
    info: str     # ClosedBoxes | OpenBoxesPersist | CycleSetsDisclosed
    prices: str   # Free | FixedHarmonic


VARIANTS = {
    "V1a": Variant("V1a", "InfinitelyMany", "ClosedBoxes", "Free"),
    "V1b": Variant("V1b", "CofinitelyMany", "ClosedBoxes", "Free"),
    "V1c": Variant("V1c", "CofinitelyMany", "OpenBoxesPersist", "Free"),
    "V1d": Variant("V1d", "CofinitelyMany", "CycleSetsDisclosed", "Free"),
    "V2a": Variant("V2a", "InfinitelyMany", "ClosedBoxes", "FixedHarmonic"),
    "V2b": Variant("V2b", "CofinitelyMany", "ClosedBoxes", "FixedHarmonic"),
}


def get_variant(v) -> Variant:
    if isinstance(v, Variant):
        return v
    got = VARIANTS.get(v)
    if got is None:
        raise UsageError(f"unknown variant {v!r}; choose from "
                         f"{sorted(VARIANTS)}")
    return got


# ---------------------------------------------------------------------------
# one prisoner

@dataclass(frozen=True)
class PrisonerOutcome:
    """What one walk did: boxes paid for, money gone, label found or not."""

    prisoner: int
    opened: tuple
    spent: Rat
    success: bool
    reason: Optional[str] = None  # BudgetExhausted | NotSimulated

    def to_dict(self) -> dict:
        return {"prisoner": self.prisoner, "spent": rat_str(self.spent),
                "success": self.success, "opened": list(self.opened)}


def _walk_order(cycle, n: int):
    """Members in pointer order starting at n; ends at n's predecessor."""
    if cycle.members is not None:
        i = cycle.members.index(n)
        return cycle.members[i:] + cycle.members[:i]
    return tuple(range(n, cycle.end + 1)) + tuple(range(cycle.start, n))


def run_prisoner(n: int, budget, plan: CyclePlan, model: PriceModel,
                 open_boxes: Optional[set] = None) -> PrisonerOutcome:
    """Walk prisoner n's chain, paying closed boxes while the money lasts.

    The walk starts at box n and follows the slips; the box holding label
    n is the last of the cycle, so success means the whole chain was
    covered.  A box is opened iff the remaining amount is at least its
    price (equality allowed).  With a shared open-box set, open boxes are
    read for free, newly opened ones stay open for later prisoners even
    when this walk fails, and a prisoner whose label is already on view
    succeeds without spending.
    """
    cycle = plan.cycle_containing(n)
    remaining = Rat(budget)
    if remaining < ZERO:
        raise DomainError("amounts cannot be negative")
    if open_boxes is not None and cycle.predecessor(n) in open_boxes:
        return PrisonerOutcome(n, (), ZERO, True)
    spent = ZERO
    opened = []
    success = True
    for box in _walk_order(cycle, n):
        if open_boxes is not None and box in open_boxes:
            continue
        price = model.term(box)
        if remaining >= price:
            remaining -= price
            spent += price
            opened.append(box)
            if open_boxes is not None:
                open_boxes.add(box)
        else:
            success = False
            break
    return PrisonerOutcome(n, tuple(opened), spent, success,
                           None if success else "BudgetExhausted")


def _score_cycle(members: tuple, alloc: AllocationPlan, model: PriceModel,
                 outcomes: dict) -> None:
    """Score every member of one closed-box cycle, as run_prisoner would.

    members is the cycle in walk order.  Prices are nonnegative, so what a
    walk has paid after j boxes never decreases in j, and the walk opens
    exactly the largest j whose payment the amount covers.  The cyclic
    prefix sums are built once per cycle, as integers over the common
    denominator of the prices, and only once some member's amount covers
    the box its walk starts at; each member then needs one bisection.
    """
    size = len(members)
    prices = [model.term(box) for box in members]
    scale = sums = None
    for i, n in enumerate(members):
        amount = alloc.amount(n)
        if amount < ZERO:
            raise DomainError("amounts cannot be negative")
        if amount < prices[i]:
            outcomes[n] = PrisonerOutcome(n, (), ZERO, False,
                                          "BudgetExhausted")
            continue
        if sums is None:
            scale = math.lcm(*(price.denominator for price in prices))
            sums = [0]
            for price in prices:
                if price.numerator < 0:
                    raise DomainError("prices must be nonnegative")
                sums.append(sums[-1]
                            + price.numerator * (scale // price.denominator))
        total = sums[size]
        # sums are whole multiples of 1/scale, so the walk can pay exactly
        # the payments of at most floor(amount * scale) such units
        budget = amount.numerator * scale // amount.denominator
        if budget >= total:
            outcomes[n] = PrisonerOutcome(n, members[i:] + members[:i],
                                          Rat(total, scale), True)
            continue
        # the walk has paid sums[k] - sums[i] on reaching position k before
        # it wraps, and total - sums[i] + sums[k] after
        reach = budget + sums[i]
        if reach < total:
            k = bisect_right(sums, reach, i + 1, size + 1) - 1
            opened, paid = members[i:k], sums[k] - sums[i]
        else:
            k = bisect_right(sums, reach - total, 0, i) - 1
            opened = members[i:] + members[:k]
            paid = total - sums[i] + sums[k]
        outcomes[n] = PrisonerOutcome(n, opened, Rat(paid, scale), False,
                                      "BudgetExhausted")


# ---------------------------------------------------------------------------
# whole-window simulation

@dataclass
class SimulationReport:
    """Exact outcomes for every fully covered prisoner, plus the verdict."""

    variant: str
    horizon: int
    outcomes: tuple
    success_count: int
    verdict: str
    witnesses: tuple
    cycles: tuple            # scored cycles, members in walk order
    not_simulated: tuple     # indices whose cycle leaves the window
    claim: object = None
    model: object = None

    def to_json(self) -> str:
        return json.dumps({
            "variant": self.variant,
            "horizon": self.horizon,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
        })


def _pull_to_horizon(plan: CyclePlan, horizon: int) -> None:
    # stream cycles can grow fast, so stop the moment the window is covered
    if not plan.is_lazy:
        return
    want = len(plan.cycles)
    while plan.pulled_bound < horizon:
        want += 4
        if len(plan.materialize(want)) < want:
            break


def simulate(variant, model: PriceModel, alloc: AllocationPlan,
             plan: CyclePlan, horizon: int,
             entry_order=None) -> SimulationReport:
    """Run every prisoner whose whole cycle sits inside [1, horizon].

    Prisoners whose cycle crosses the window edge (or lies beyond what the
    plan can materialize) are left unscored rather than counted as
    failures.  Open boxes persist across prisoners only when the variant
    says so, in ascending order unless an explicit entry order is given.
    The verdict is rendered against the guard's claim when the plan
    carries one, else against the allocation's descriptor.
    """
    v = get_variant(variant)
    if not isinstance(horizon, int) or horizon < 1:
        raise DomainError("the horizon must be a positive integer")
    if entry_order is not None and v.info != "OpenBoxesPersist":
        raise UsageError(f"{v.id} fixes the entry order; only the "
                         "open-boxes variant lets prisoners choose")
    if v.prices == "FixedHarmonic":
        if not isinstance(model, HarmonicModel):
            raise UsageError(f"{v.id} is played against fixed 1/n prices")
    else:
        cert = alloc.total_cert
        if isinstance(cert, DivergentTotal):
            raise UsageError(
                f"{v.id} caps the shared amount; {alloc.name} declares a "
                "divergent total")
        if isinstance(cert, ExactTotal) and cert.value > ONE:
            raise UsageError(
                f"{v.id} caps the shared amount at 1; {alloc.name} "
                f"declares {rat_str(cert.value)}")

    _pull_to_horizon(plan, horizon)
    scored: list[int] = []
    not_simulated: list[int] = []
    # id(cycle) -> (cycle, members in walk order from the least); the cycle
    # is kept so its id cannot be reused by a later fixed-point cycle
    seen_cycles: dict[int, tuple] = {}
    for n in range(1, horizon + 1):
        try:
            cycle = plan.cycle_containing(n)
        except NotMaterializedError:
            not_simulated.append(n)
            continue
        if cycle.max_member > horizon:
            not_simulated.append(n)
            continue
        if id(cycle) not in seen_cycles:
            seen_cycles[id(cycle)] = (cycle,
                                      _walk_order(cycle, cycle.min_member))
        scored.append(n)
    cycles = tuple(members for _, members in seen_cycles.values())

    outcomes: dict[int, PrisonerOutcome] = {}
    if v.info == "OpenBoxesPersist":
        order = scored
        if entry_order is not None:
            try:
                order = [int(x) for x in entry_order]
            except (TypeError, ValueError):
                raise UsageError("the entry order must list prisoner "
                                 "indices") from None
            if sorted(order) != scored:
                raise UsageError("the entry order must be a permutation "
                                 "of the simulated prisoners")
        open_boxes: set[int] = set()
        for n in order:
            outcomes[n] = run_prisoner(n, alloc.amount(n), plan, model,
                                       open_boxes)
    else:
        for members in cycles:
            _score_cycle(members, alloc, model, outcomes)

    ordered = tuple(outcomes[n] for n in scored)
    claim = plan.claim if plan.claim is not None else alloc.descriptor
    report = SimulationReport(
        variant=v.id, horizon=horizon, outcomes=ordered,
        success_count=sum(1 for o in ordered if o.success),
        verdict="Inconclusive", witnesses=(),
        cycles=cycles, not_simulated=tuple(not_simulated),
        claim=claim, model=model)
    release = evaluate_release(v, report, claim)
    report.verdict = release.verdict
    report.witnesses = release.witnesses
    return report


# ---------------------------------------------------------------------------
# release evaluation

@dataclass(frozen=True)
class ReleaseVerdict:
    verdict: str  # PatternConfirmed | CounterexampleFound | Inconclusive
    witnesses: tuple = ()


def evaluate_release(variant, report: SimulationReport,
                     claim) -> ReleaseVerdict:
    """Judge the finite window against the claimed success pattern.

    Infinite release conditions are never decided here; the verdict only
    says whether the claimed pattern survived the window.  A builder
    descriptor is confirmed when every prisoner it promises did succeed
    (and, under a cofinite release rule, nobody outside its declared
    exceptions failed).  A guard claim is confirmed when the promised
    failures all happened, which is a counterexample to the allocation.
    No claim, or an empty window, decides nothing.
    """
    v = get_variant(variant)
    if report.variant != v.id:
        raise UsageError(f"report was produced under {report.variant}, "
                         f"not {v.id}")
    if claim is None:
        return ReleaseVerdict("Inconclusive")
    if isinstance(claim, AdversaryClaim):
        return _guard_verdict(report, claim)
    pattern = claim.success_pattern() if isinstance(
        claim, StrategyDescriptor) else dict(claim)
    return _pattern_verdict(v, report, pattern)


def _pattern_verdict(v: Variant, report, pattern: dict) -> ReleaseVerdict:
    scope = pattern["scope"]
    if scope == "none":
        return ReleaseVerdict("Inconclusive")
    claimed: set[int] = set()
    exempt: set[int] = set()
    if scope == "above-threshold":
        threshold = pattern["threshold"]
        pairs = pattern.get("relabeling")
        delta = relabeling_from_pairs(pairs) if pairs else None
        for o in report.outcomes:
            coord = delta.inverse(o.prisoner) if delta else o.prisoner
            (claimed if coord > threshold else exempt).add(o.prisoner)
    else:
        cutoff = pattern.get("cutoff") or 1
        for members in report.cycles:
            least = min(members)
            if least < cutoff:
                exempt.update(members)
            elif scope == "least-member":
                claimed.add(least)
            elif scope == "cycle-members":
                claimed.update(members)
            elif scope == "last-member":
                claimed.add(max(members))
            elif scope == "max-price-member":
                prices = [report.model.term(m) for m in members]
                top = max(prices)
                claimed.update(
                    m for m, price in zip(members, prices) if price == top)
            else:
                raise DomainError(f"unknown claim scope {scope!r}")
    failures = [o.prisoner for o in report.outcomes if not o.success]
    bad = {n for n in failures if n in claimed}
    if v.release == "CofinitelyMany":
        bad.update(n for n in failures if n not in exempt)
    if bad:
        return ReleaseVerdict("CounterexampleFound", tuple(sorted(bad)))
    if not claimed:
        return ReleaseVerdict("Inconclusive")
    return ReleaseVerdict("PatternConfirmed")


def _guard_verdict(report, claim: AdversaryClaim) -> ReleaseVerdict:
    success = {o.prisoner: o.success for o in report.outcomes}
    cycles = report.cycles
    witnesses: list[int] = []
    confirmed = bool(cycles)
    if claim.kind == NO_SUCCESS_AFTER_FIRST:
        later = cycles[1:]
        confirmed = bool(later)
        for members in later:
            for m in members:
                if success[m]:
                    confirmed = False
                else:
                    witnesses.append(m)
    elif claim.kind == FAILURE_IN_EVERY_CYCLE:
        blocks = [c for c in cycles if len(c) >= 2]
        confirmed = bool(blocks)
        for members in blocks:
            failed = [m for m in members if not success[m]]
            if not failed:
                confirmed = False
            witnesses.extend(failed)
    elif claim.kind == ALL_MEMBERS_FAIL:
        for members in cycles:
            for m in members:
                if success[m]:
                    confirmed = False
                else:
                    witnesses.append(m)
    elif claim.kind == ANCHOR_FAILS:
        for members in cycles:
            anchor = min(members)
            if success[anchor]:
                confirmed = False
            else:
                witnesses.append(anchor)
    else:
        raise DomainError(f"unknown guard claim kind {claim.kind!r}")
    if confirmed:
        return ReleaseVerdict("CounterexampleFound", tuple(sorted(witnesses)))
    return ReleaseVerdict("Inconclusive")


# ---------------------------------------------------------------------------
# named-result registry

@dataclass
class VerificationReport:
    key: str
    passed: bool
    checks: int
    details: str
    witnesses: tuple = ()


GEO_HALF = builtin_model("geometric", ratio=rat(1, 2))
INVSQ = builtin_model("inverse-square")
HARMONIC = builtin_model("harmonic")


_PARAM_KINDS = {int: "an integer", tuple: "a tuple", Rat: "a rational"}


def _merge(defaults: dict, params) -> dict:
    """The runner's defaults, overridden by params of the same keys and types.

    A check run with a key it does not read, or with a value of the wrong
    type, would pass vacuously or crash, so both are domain errors.
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
        got[key] = value
    return got


def _shuffled_geometric(seed: int, width: int = 12) -> CustomModel:
    """Geometric values dealt onto 1..width in a seeded disorder."""
    import random as _random
    rng = _random.Random(("shuffle", seed).__repr__())
    values = [rat(1, 2) ** k for k in range(1, width + 1)]
    rng.shuffle(values)
    entries = {i + 1: v for i, v in enumerate(values)}
    return CustomModel(entries, GeometricTail(rat(1, 2), width + 1),
                       name=f"shuffled[{seed}]")


def _alloc_from_name(name: str) -> AllocationPlan:
    if name == "constant1":
        return build_v2_strategy("constant1")
    if name == "harmonic-prefix":
        return build_v2_strategy("harmonic-prefix")
    if name.startswith("shifted-harmonic:"):
        return build_v2_strategy("shifted-harmonic",
                                 k=int(name.split(":", 1)[1]))
    if name.startswith("scaled:"):
        return build_v2_strategy("scaled", c=rat(name.split(":", 1)[1]))
    raise DomainError(f"unknown fixed-price allocation {name!r}")


def _k_tail_sum(params, seed) -> VerificationReport:
    p = _merge({"plans": 50, "horizon": 48, "max_len": 6}, params)
    alloc, m = build_tail_sum_strategy(GEO_HALF)
    bad = []
    for i in range(p["plans"]):
        plan = random_plan(p["horizon"], p["max_len"], seed + i)
        report = simulate("V1a", GEO_HALF, alloc, plan, p["horizon"])
        if report.verdict != "PatternConfirmed":
            bad.extend(report.witnesses)
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
            bad.extend(report.witnesses)
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
        spent_of = {o.prisoner: o.spent for o in report.outcomes}
        for members in report.cycles:
            if min(members) < m:
                continue
            for member in members:
                if member != min(members):
                    free_riders += 1
                    if spent_of[member] != ZERO:
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
        if report.verdict != "PatternConfirmed":
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
    kcut = winners[2].descriptor.params["k"]
    if HARMONIC.prefix_sum(kcut + 1) < Rat(p["K"]) + 1:
        bad.append("log-shift cutoff too small")
    for alloc in winners:
        for i in range(p["plans"]):
            plan = random_plan(p["horizon"], 4, seed + i)
            report = simulate("V2a", HARMONIC, alloc, plan, p["horizon"])
            checks += 1
            if report.verdict != "PatternConfirmed":
                bad.append(f"{alloc.name}: plan {i}")
    for name in ("constant1", "scaled:1/2"):
        alloc = _alloc_from_name(name)
        plan = v2a_block_adversary(alloc)
        report = simulate("V2a", HARMONIC, alloc, plan, 200)
        checks += 1
        if report.verdict != "CounterexampleFound":
            bad.append(f"{name}: {report.verdict}")
        for blk in plan.certified_blocks(p["blocks"]):
            checks += 1
            if not blk.price_lower > blk.amount_upper:
                bad.append(f"{name}: certified block {blk.start_label}")
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
    checks = 0
    for name in p["allocs"]:
        alloc = _alloc_from_name(name)
        plan = v2b_block_adversary(alloc)
        report = simulate("V2b", HARMONIC, alloc, plan, p["horizon"])
        checks += 1
        if report.verdict != "CounterexampleFound":
            bad.append(f"{name}: {report.verdict}")
        for blk in plan.certified_blocks(p["blocks"]):
            checks += 1
            if not blk.price_lower > blk.amount_upper:
                bad.append(f"{name}: certified block {blk.start_label}")
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
    """Replay a named result end to end and judge it exactly."""
    runner = _REGISTRY.get(key)
    if runner is None:
        raise DomainError(f"unknown registry key {key!r}; choose from "
                          f"{', '.join(THEOREM_KEYS)}")
    return runner(params, seed)
