"""Pointer-following execution, whole-window simulation, release verdicts.

A prisoner walks their pointer chain box by box, paying each closed box's
price out of their own amount; the walk either closes their whole cycle or
dies where the money runs out.  Simulation scores every prisoner whose cycle
is fully inside the window and renders a verdict against the claim object
an allocation or a guard plan carries.  The claim classes live here,
next to their judge: builder claims name the members of each cycle promised
to succeed, guard claims the members promised to fail.

A walk never leaves its cycle, so every variant is scored a cycle at a time
from the cycle's prices as integers over one scale.  Under closed boxes
(V1a, V1b, V1d, V2a, V2b) prices are nonnegative, so a walk opens exactly
the longest prefix of its rotation that the amount covers.  Under open
boxes (V1c) opened boxes stay open for later walks, so each cycle's members
walk box by box in the entry order.  run_prisoner is the public single
walk and the oracle both kernels are tested against.
"""
from __future__ import annotations

import json
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple, Optional

from .errors import DomainError, UsageError
from .numeric import (
    ONE, Cmp, Rat, ZERO, compare_certified, int_str, rat_str,
)
from .permutations import CyclePlan
from .sequences import (
    AllocationPlan, BracketedTotal, DivergentTotal, ExactTotal, HarmonicModel,
    PriceModel, Relabeling,
)

__all__ = [
    "AboveThreshold", "AllMembersFail", "AnchorFails", "BuilderClaim",
    "CycleMembers", "FailureInEveryCycle", "GuardClaim", "LastMember",
    "LeastMember", "MaxPriceMember", "NO_CLAIM", "NoClaim",
    "NoSuccessAfterFirst", "PrisonerOutcome", "ReleaseVerdict",
    "SimulationReport", "Variant", "VARIANTS", "evaluate_release",
    "get_variant", "run_prisoner", "simulate",
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

class PrisonerOutcome(NamedTuple):
    """What one walk did: boxes paid for, money gone, label found or not."""

    prisoner: int
    opened: tuple
    spent: Rat
    success: bool
    reason: Optional[str] = None  # BudgetExhausted | NotSimulated

    def to_dict(self) -> dict:
        return {"prisoner": self.prisoner, "spent": rat_str(self.spent),
                "success": self.success, "opened": list(self.opened)}


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
    for box in cycle.rotation_from(n):
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
                 outcomes: dict) -> tuple:
    """Score every member of one closed-box cycle, as run_prisoner would.

    members is the cycle in walk order.  Prices are nonnegative, so what a
    walk has paid after j boxes never decreases in j, and the walk opens
    exactly the largest j whose payment the amount covers.  The prices come
    from model.cycle_units as integers over one common scale; the cyclic
    prefix sums of those integers are built once per cycle, and only once
    some member's amount covers the box its walk starts at.  Each member
    costs one floor division, integer compares and at most one bisection.
    Returns the members whose price is the cycle's highest.
    """
    size = len(members)
    units, scale = model.cycle_units(members)
    sums = None
    for i, n in enumerate(members):
        amount = alloc.amount(n)
        num, den = amount.numerator, amount.denominator
        if num < 0:
            raise DomainError("amounts cannot be negative")
        # prices are whole multiples of 1/scale, so the walk can pay exactly
        # the payments of at most floor(amount * scale) such units
        budget = num * scale // den
        if budget < units[i]:
            outcomes[n] = PrisonerOutcome(n, (), ZERO, False,
                                          "BudgetExhausted")
            continue
        if sums is None:
            if min(units) < 0:
                raise DomainError("prices must be nonnegative")
            sums = list(accumulate(units, initial=0))
            total = sums[size]
            whole = None  # Rat(total, scale), shared by every success
        if budget >= total:
            if whole is None:
                whole = Rat(total, scale)
            outcomes[n] = PrisonerOutcome(n, members[i:] + members[:i],
                                          whole, True)
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
    return _top_priced(members, units)


def _walk_open_cycle(members: tuple, entries: list, alloc: AllocationPlan,
                     model: PriceModel, outcomes: dict) -> tuple:
    """Walk one cycle's members, in entry order, as run_prisoner does with
    one open-box set shared by the window; returns the top-priced members.

    The prices are model.cycle_units, integers of any sign over one scale,
    so after paying `paid` units an amount covers u more exactly when
    floor(amount * scale) - paid >= u.
    """
    units, scale = model.cycle_units(members)
    is_open = [False] * len(members)
    for n in entries:
        amount = alloc.amount(n)
        num, den = amount.numerator, amount.denominator
        if num < 0:
            raise DomainError("amounts cannot be negative")
        i = members.index(n)
        if is_open[i - 1]:  # the box holding label n is on view
            outcomes[n] = PrisonerOutcome(n, (), ZERO, True)
            continue
        budget = num * scale // den
        paid, opened, reason = 0, [], None
        for j in (*range(i, len(members)), *range(i)):
            if is_open[j]:
                continue
            if budget - paid < units[j]:
                reason = "BudgetExhausted"
                break
            paid += units[j]
            is_open[j] = True
            opened.append(members[j])
        outcomes[n] = PrisonerOutcome(n, tuple(opened), Rat(paid, scale),
                                      reason is None, reason)
    return _top_priced(members, units)


def _top_priced(members: tuple, prices: list) -> tuple:
    """The members whose price (in any one exact unit) is the highest."""
    top = max(prices)
    return tuple(m for m, price in zip(members, prices) if price == top)


# ---------------------------------------------------------------------------
# whole-window simulation

# SimulationReport.to_json's text, in json.dumps' default separators
_ROW = '{"prisoner": %d, "spent": "%s/%s", "success": %s, "opened": %s}'
_CUT_ROW = '{"prisoner": %d, "spent": "%s/%s", "success": %s, "opened": [%s]}'
_REPORT = ('{"variant": %s, "horizon": %s, "outcomes": [%s], '
           '"verdict": %s, "witnesses": %s}')
# a list of at most this many boxes reprs about as fast as it is cut from
# its cycle's text, so shorter cycles never build theirs
_CUT_MIN = 20


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
    top_priced: tuple        # per scored cycle, its members of top price
    claim: object = None

    def to_json(self) -> str:
        """json.dumps of the report dict, written one outcome row at a time.

        Each distinct numerator and denominator is converted to decimal
        once.  A closed-box walk opens a cyclic run of its cycle from the
        prisoner's own box, so a long run is cut out of its cycle's text,
        written once (twice round, for the wrap) with every member's
        offset; any other list of ints reprs as its JSON text.
        """
        digits: dict[int, str] = {}
        slot = {n: (c, i) for c, members in enumerate(self.cycles)
                if len(members) > _CUT_MIN for i, n in enumerate(members)}
        cut: dict[int, tuple] = {}  # cycle -> (members twice, text, offsets)
        rows = []
        for o in self.outcomes:
            num, den = o.spent.numerator, o.spent.denominator
            num_text = digits.get(num)
            if num_text is None:
                num_text = digits[num] = int_str(num)
            den_text = digits.get(den)
            if den_text is None:
                den_text = digits[den] = int_str(den)
            success = "true" if o.success else "false"
            k = len(o.opened)
            at = slot.get(o.prisoner) if k > _CUT_MIN else None
            if at is not None:
                c, i = at
                if c not in cut:
                    twice = self.cycles[c] * 2
                    parts = list(map(repr, twice))
                    cut[c] = (twice, ", ".join(parts), list(accumulate(
                        (len(p) + 2 for p in parts), initial=0)))
                twice, text, ends = cut[c]
                if o.opened == twice[i:i + k]:
                    rows.append(_CUT_ROW % (o.prisoner, num_text, den_text,
                                            success,
                                            text[ends[i]:ends[i + k] - 2]))
                    continue
            rows.append(_ROW % (o.prisoner, num_text, den_text, success,
                                list(o.opened)))
        return _REPORT % (json.dumps(self.variant), json.dumps(self.horizon),
                          ", ".join(rows), json.dumps(self.verdict),
                          json.dumps(list(self.witnesses)))


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
    carries one, else against the allocation's claim, else against
    NO_CLAIM.
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
        if isinstance(cert, BracketedTotal) and compare_certified(
                cert.interval(Rat(1, 100)), ONE) is Cmp.GREATER:
            raise UsageError(
                f"{v.id} caps the shared amount at 1; {alloc.name} "
                "declares a total certified above 1")

    _pull_to_horizon(plan, horizon)
    cycles, not_simulated = plan.window(horizon)
    outcomes: dict[int, PrisonerOutcome] = {}
    if v.info == "OpenBoxesPersist":
        cycle_of = {n: i for i, members in enumerate(cycles) for n in members}
        order = scored = sorted(cycle_of)
        if entry_order is not None:
            try:
                order = [operator.index(x) for x in entry_order]
            except TypeError:
                raise UsageError("the entry order must list prisoner "
                                 "indices") from None
            if sorted(order) != scored:
                raise UsageError("the entry order must be a permutation "
                                 "of the simulated prisoners")
        entries = [[] for _ in cycles]
        for n in order:
            entries[cycle_of[n]].append(n)
        top_priced = tuple(
            _walk_open_cycle(members, mine, alloc, model, outcomes)
            for members, mine in zip(cycles, entries))
    else:
        top_priced = tuple(_score_cycle(members, alloc, model, outcomes)
                           for members in cycles)

    ordered = tuple(outcomes[n] for n in sorted(outcomes))
    claim = plan.claim or alloc.claim or NO_CLAIM
    report = SimulationReport(
        variant=v.id, horizon=horizon, outcomes=ordered,
        success_count=sum(1 for o in ordered if o.success),
        verdict="Inconclusive", witnesses=(),
        cycles=tuple(cycles), not_simulated=tuple(not_simulated),
        top_priced=top_priced, claim=claim)
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
    """Judge the finite window against a claim object.

    Infinite release conditions are never decided here; the verdict only
    says whether the claimed pattern survived the window.
    """
    v = get_variant(variant)
    if report.variant != v.id:
        raise UsageError(f"report was produced under {report.variant}, "
                         f"not {v.id}")
    return claim.judge(v, report)


class NoClaim:
    """A plan that promises nothing, so its windows decide nothing."""

    __slots__ = ()  # no state, so nothing to change

    def judge(self, v: Variant, report) -> ReleaseVerdict:
        return ReleaseVerdict("Inconclusive")


NO_CLAIM = NoClaim()


class BuilderClaim:
    """Who a builder promises will succeed.

    A scored cycle with a member below the cutoff is exempt; pick(cycles,
    tops) names the claimed members of the rest, given their top-priced
    members.  A claimed failure is a counterexample, and so under a
    cofinite release rule is any failure outside an exempt cycle, unless
    unpicked_exempt is set.  Else a claim on anyone is confirmed.
    """

    cutoff = 1  # no index lies below it
    unpicked_exempt = False

    def judge(self, v: Variant, report) -> ReleaseVerdict:
        exempt, cycles, tops, cut = set(), [], [], self.cutoff
        for members, top in zip(report.cycles, report.top_priced):
            if min(members) < cut:
                exempt.update(members)
            else:
                cycles.append(members)
                tops.append(top)
        claimed = set(self.pick(cycles, tops))
        failures = [o.prisoner for o in report.outcomes if not o.success]
        bad = {n for n in failures if n in claimed}
        if v.release == "CofinitelyMany" and not self.unpicked_exempt:
            bad.update(n for n in failures if n not in exempt)
        if bad:
            return ReleaseVerdict("CounterexampleFound", tuple(sorted(bad)))
        return ReleaseVerdict("PatternConfirmed" if claimed
                              else "Inconclusive")


@dataclass(frozen=True)
class _CutoffClaim(BuilderClaim):
    cutoff: int


class LeastMember(_CutoffClaim):
    def pick(self, cycles, tops):
        return map(min, cycles)


class LastMember(_CutoffClaim):
    def pick(self, cycles, tops):
        return map(max, cycles)


class CycleMembers(_CutoffClaim):
    def pick(self, cycles, tops):
        return chain.from_iterable(cycles)


class MaxPriceMember(_CutoffClaim):
    def pick(self, cycles, tops):
        return chain.from_iterable(tops)


@dataclass(frozen=True)
class AboveThreshold(BuilderClaim):
    """Claims prisoner n when its coordinate delta^-1(n) passes the
    threshold; every other prisoner is exempt."""

    threshold: int
    delta: Relabeling
    unpicked_exempt = True

    def pick(self, cycles, tops):
        members, threshold = chain.from_iterable(cycles), self.threshold
        if self.delta.is_identity:
            return [n for n in members if n > threshold]
        return [n for n in members if self.delta.inverse(n) > threshold]


@dataclass(frozen=True)
class GuardClaim:
    """Who a guard promises will fail in the stream it emits.

    pick(cycles) gives groups of scored members, each promised to fail in
    full, or with one_fails in at least one member.  Kept in every group,
    with some group picked, the promise is a counterexample.
    """

    adversary: str
    detail: str = ""
    params: dict = field(default_factory=dict)
    one_fails = False

    def judge(self, v: Variant, report) -> ReleaseVerdict:
        success = {o.prisoner: o.success for o in report.outcomes}
        witnesses: list[int] = []
        for picked in self.pick(report.cycles):
            failed = [m for m in picked if not success[m]]
            if len(failed) < len(picked) and not (self.one_fails and failed):
                return ReleaseVerdict("Inconclusive")
            witnesses.extend(failed)
        if not witnesses:
            return ReleaseVerdict("Inconclusive")
        return ReleaseVerdict("CounterexampleFound", tuple(sorted(witnesses)))


class NoSuccessAfterFirst(GuardClaim):
    def pick(self, cycles):
        return cycles[1:]


class FailureInEveryCycle(GuardClaim):
    one_fails = True

    def pick(self, cycles):
        return [c for c in cycles if len(c) >= 2]


class AllMembersFail(GuardClaim):
    def pick(self, cycles):
        return cycles


class AnchorFails(GuardClaim):
    def pick(self, cycles):
        return [(min(c),) for c in cycles]
