"""Allocation builders, one per constructive winning strategy.

Each builder turns a certified hypothesis about the price sequence into an
explicit allocation plan plus the cutoff index it was chosen for, and hands
the plan the claim naming who is promised to succeed.
"""
from __future__ import annotations

import dataclasses
from typing import Optional

from .engine import (
    NO_CLAIM, AboveThreshold, CycleMembers, LastMember, LeastMember,
    MaxPriceMember,
)
from .errors import CapabilityError, DomainError, PlanViolationError
from .numeric import (
    Cmp, LN2_HI, ONE, Rat, RatInterval, ZERO, least_index, ln_bounds, rat,
    rat_str, rat_sum, require_certified,
)
from .sequences import (
    HARMONIC, AffineBound, AllocationPlan, BracketedTotal, CustomModel,
    DivergentTotal, ExactTotal, FnAllocation, NonDecreasing,
    NonIncreasingBeyond, PriceModel, Relabeling, UnknownTotal, ZeroBeyond,
)

__all__ = [
    "build_baseline_geometric",
    "build_tail_sum_strategy", "build_bounded_length_strategy",
    "build_bounded_diameter_strategy", "build_cycle_informed_strategy",
    "HarmonicAffine", "build_v2_strategy",
]

_SEARCH_CAP = 1_000_000


# ---------------------------------------------------------------------------
# hypothesis plumbing

def _rearranged_model(model: PriceModel, delta: Relabeling) -> PriceModel:
    """The price sequence n -> p(delta(n)) as a first-class model.

    delta moves only finitely many indices, so beyond its support the
    rearranged sequence coincides with the original and the original tail
    rule still describes it.
    """
    if delta.is_identity:
        return model
    rule = model.rule
    if rule is None:
        raise CapabilityError(
            f"cannot rearrange a {type(model).__name__} and keep its tails")
    start = max(delta.support_bound + 1, rule.start)
    entries = {n: model.term(delta(n)) for n in range(1, start)}
    return CustomModel(entries, dataclasses.replace(rule, start=start),
                       name=f"{model.name}@{delta.name or 'relabeled'}")


def _least_with_certified(fn, target, start: int) -> int:
    """Least n >= start where fn(n) is certified strictly below target."""
    n = start
    while n - start <= _SEARCH_CAP:
        if require_certified(fn(n), target) is Cmp.LESS:
            return n
        n += 1
    raise CapabilityError(f"no certified cutoff within {_SEARCH_CAP} indices")


def _refined_interval(iv: RatInterval, width) -> RatInterval:
    while iv.width > width and iv.refinable:
        iv = iv.refine()
    return iv


def _total_cert_from_tail(value) -> object:
    if isinstance(value, RatInterval):
        return BracketedTotal(lambda w: _refined_interval(value, w))
    return ExactTotal(value)


# ---------------------------------------------------------------------------
# builders

def build_baseline_geometric() -> AllocationPlan:
    """Nothing for the first prisoner, then half of the previous amount.

    Against halving prices the least member n >= 2 of any cycle holds
    exactly the sum of all prices from n on, so the walk is affordable.
    """
    half = rat(1, 2)

    def amount(n: int) -> Rat:
        return ZERO if n == 1 else half ** (n - 1)

    return FnAllocation(
        "baseline-geometric", amount,
        total_cert=ExactTotal(ONE),
        tail_structure=NonIncreasingBeyond(2, positive=True),
        claim=LeastMember(2))


def build_tail_sum_strategy(model: PriceModel, delta: Optional[Relabeling]
                            = None, total=ONE):
    """Fund each late prisoner with the whole price tail from his index.

    Picks the least cutoff m > 1 whose sum of tails is certified below the
    budget, gives prisoner n >= m the tail starting at n, prisoners 2..m-1
    nothing, and prisoner 1 the slack.  Returns (plan, m).
    """
    delta = delta or Relabeling.identity()
    total = Rat(total)
    if total <= ZERO:
        raise DomainError("the shared budget must be positive")
    work = _rearranged_model(model, delta)
    if not work.exact_tails:
        raise CapabilityError(
            f"{model.name}: tail-funded amounts need exact, summable tails")
    m = _least_with_certified(work.second_tail, total, start=2)
    slack = total - work.second_tail(m)

    def amount(n: int) -> Rat:
        if n == 1:
            return slack
        if n < m:
            return ZERO
        return work.tail(n)

    top = work.last_positive()
    if top is None:
        structure = NonIncreasingBeyond(m, positive=True)
    else:
        structure = ZeroBeyond(max(top, m - 1, 1))
    alloc = FnAllocation(
        f"tail-sum[{model.name}]", amount,
        total_cert=ExactTotal(total), tail_structure=structure,
        claim=LeastMember(m))
    return alloc, m


def build_bounded_length_strategy(model: PriceModel, k: int, total=ONE):
    """k times each price from a cutoff, against cycles of length <= k.

    A cycle avoiding [1..m-1] costs at most k times its priciest member's
    price, which that member can pay.  Returns (plan, m).
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("the length bound must be a positive integer")
    total = Rat(total)
    if total <= ZERO:
        raise DomainError("the shared budget must be positive")

    def scaled_tail(n: int):
        return k * model.tail(n)

    m = _least_with_certified(scaled_tail, total, start=1)

    def amount(n: int) -> Rat:
        return ZERO if n < m else k * model.term(n)

    top = model.last_positive()
    if top is not None:
        structure = ZeroBeyond(max(top, m - 1, 1))
    elif model.nonincreasing_from is not None:
        structure = NonIncreasingBeyond(
            max(m, model.nonincreasing_from), positive=True)
    else:
        structure = None

    alloc = FnAllocation(
        f"bounded-length[{model.name},k={k}]", amount,
        total_cert=_total_cert_from_tail(scaled_tail(m)),
        tail_structure=structure, claim=MaxPriceMember(m))
    return alloc, m


def build_bounded_diameter_strategy(model: PriceModel, d: int,
                                    delta: Optional[Relabeling] = None,
                                    total=ONE):
    """Zeros through m+d, then the tail sums shifted d places outward.

    In rearranged coordinates a cycle containing prisoner m+d+k spans at
    most [m+k, m+2d+k], so its price is at most the tail from m+k, which
    is exactly that prisoner's amount.  Returns (plan, m).
    """
    if not isinstance(d, int) or d < 0:
        raise DomainError("the diameter bound must be a nonnegative integer")
    delta = delta or Relabeling.identity()
    total = Rat(total)
    if total <= ZERO:
        raise DomainError("the shared budget must be positive")
    work = _rearranged_model(model, delta)
    if not work.exact_tails:
        raise CapabilityError(
            f"{model.name}: shifted tail amounts need exact, summable tails")
    m = _least_with_certified(work.second_tail, total, start=1)

    def base(n: int) -> Rat:
        if n <= m + d:
            return ZERO
        return work.tail(n - d)

    if delta.is_identity:
        fn = base
    else:
        def fn(n: int) -> Rat:
            return base(delta.inverse(n))

    floor = m + d
    top = work.last_positive()
    if top is not None:
        structure = ZeroBeyond(max(1, top + d, delta.support_bound))
    else:
        structure = NonIncreasingBeyond(
            max(floor + 1, delta.support_bound + 1), positive=True)
    alloc = FnAllocation(
        f"bounded-diameter[{model.name},d={d}]", fn,
        total_cert=ExactTotal(work.second_tail(m + 1)),
        tail_structure=structure, claim=AboveThreshold(m + d, delta))
    return alloc, m


def build_cycle_informed_strategy(model: PriceModel, plan, k: int,
                                  total=ONE) -> AllocationPlan:
    """Everyone in a disclosed all-past-the-cutoff cycle gets its price.

    The plan is public, so each member of a cycle living entirely in
    [m, infinity) carries exactly the cycle's cost; everyone else gets 0.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("the length bound must be a positive integer")
    total = Rat(total)
    if total <= ZERO:
        raise DomainError("the shared budget must be positive")
    for c in plan.cycles:
        if c.length > k:
            raise PlanViolationError(
                f"disclosed plan has a cycle of length {c.length} > {k}")

    m = _least_with_certified(lambda n: k * model.tail(n), total, start=1)
    price_cache: dict[int, Rat] = {}

    def amount(n: int) -> Rat:
        cyc = plan.cycle_containing(n)
        if cyc.min_member < m:
            return ZERO
        key = cyc.min_member
        got = price_cache.get(key)
        if got is None:
            got = price_cache[key] = cyc.price(model)
        return got

    total_cert = UnknownTotal()
    if not any(c.is_range for c in plan.cycles):
        # charged cycles at length*price, plus every unlisted singleton's
        # own price, which is tail(m) minus listed members; each member is
        # priced once, and amount() reuses the cycle prices
        charged = []
        listed = []
        for c in plan.cycles:
            members = [x for x in c.members if x >= m]
            if not members:
                continue
            units, scale = model.cycle_units(members)
            price = Rat(sum(units), scale)
            listed.append(price)
            if c.min_member >= m:
                price_cache[c.min_member] = price
                charged.append(c.length * price)
        total_cert = _total_cert_from_tail(
            model.tail(m) + (rat_sum(charged) - rat_sum(listed)))
    return FnAllocation(
        f"cycle-informed[{model.name}]", amount, total_cert=total_cert,
        claim=CycleMembers(m))


# ---------------------------------------------------------------------------
# fixed-price builders (prices 1/n, only the amounts vary)

class HarmonicAffine(AllocationPlan):
    """Amounts c * (1/start + ... + 1/n) + e from index start on, 0 before.

    The facts are read off (c, start, e): the total diverges unless c and e
    are 0, amounts are constant from start on when c is 0 and never fall
    otherwise, and H(2**E) <= 1 + E ln 2 bounds the amount at 2**E by
    c * (1 - H(start - 1) + E * LN2_HI) + e, with ln(start) below
    H(start - 1) standing in for it when start is huge.  With c = 1 the
    last member of a cycle past start is promised to succeed; no other
    form promises anyone.
    """

    def __init__(self, name: str, c: Rat, start: int, e: Rat):
        if c < ZERO or e < ZERO:
            raise DomainError("amounts must be nonnegative")
        self.name, self.c, self.start, self.e = name, c, start, e
        self.claim = LastMember(start) if c == ONE else NO_CLAIM
        floor = (HARMONIC.prefix_sum(start - 1) if start - 1 <= 100_000
                 else ln_bounds(start)[0])
        self.amount_upper_pow2 = AffineBound(c * (ONE - floor) + e,
                                             c * LN2_HI)
        self.total_cert = DivergentTotal() if c or e else ExactTotal(ZERO)
        self.tail_structure = (NonIncreasingBeyond(start, positive=True)
                               if not c and e else NonDecreasing())
        # settled once, so amount tests plain booleans
        self._flat, self._scaled, self._shifted = not c, c != ONE, bool(e)
        self._memo: dict[int, Rat] = {}

    def amount(self, n: int) -> Rat:
        got = self._memo.get(n)
        if got is None:
            if n < 1:
                raise DomainError("indices start at 1")
            if n < self.start:
                got = ZERO
            elif self._flat:
                got = self.e
            else:
                # summed from start, so a huge start never needs H(start - 1)
                got = (HARMONIC.prefix_sum(n) if self.start == 1
                       else HARMONIC.range_sum(self.start, n))
                if self._scaled:
                    got = self.c * got
                if self._shifted:
                    got += self.e
            if len(self._memo) < 200_000:
                self._memo[n] = got
        return got


def _log_shift_cutoff(K: Rat) -> tuple[int, bool]:
    """Least k with 1 + ... + 1/(k+1) certified >= K + 1.

    Exact and minimal while the cutoff stays small; for large K falls back
    to a certified logarithmic lower bound, which may overshoot but never
    undershoots the guarantee.
    """
    goal = K + 1
    k = least_index(lambda k: HARMONIC.prefix_sum(k + 1) >= goal, 1, 4095)
    if k is not None:
        return k, True
    # prefix from 1..k+1 exceeds ln(k+2); find the least such k
    k = least_index(lambda k: ln_bounds(k + 2)[0] >= goal, 4096, 1 << 200)
    if k is None:
        raise CapabilityError("shift constant out of tractable range")
    return k, False


# the keywords each fixed-price kind takes, all of them required
_V2_PARAMS = {"constant1": (), "harmonic-prefix": (),
              "shifted-harmonic": ("k",), "log-shift": ("K",),
              "scaled": ("c",)}


def build_v2_strategy(kind: str, **params) -> HarmonicAffine:
    """Allocations for the fixed 1/n price schedule, each a HarmonicAffine.

    kinds and their (c, start, e): constant1 (0, 1, 1), harmonic-prefix
    (1, 1, 0), shifted-harmonic k and log-shift K (1, k, 0), where log-shift
    takes the least k with H(k + 1) certified >= K + 1, and scaled c
    (c, 1, 0).
    """
    wanted = _V2_PARAMS.get(kind)
    if wanted is None:
        raise DomainError(f"unknown fixed-price strategy kind {kind!r}")
    if set(params) != set(wanted):
        raise DomainError(
            f"{kind} takes {', '.join(wanted) or 'no parameters'}, "
            f"not {', '.join(sorted(params)) or 'none'}")
    c, start, e, label = ONE, 1, ZERO, ""
    if kind == "constant1":
        c, e = ZERO, ONE
    elif kind == "shifted-harmonic":
        start = params["k"]
        if not isinstance(start, int) or start < 1:
            raise DomainError("shifted-harmonic needs an integer k >= 1")
        label = f"[{start}]"
    elif kind == "log-shift":
        K = Rat(params["K"])
        if K < ZERO:
            raise DomainError("the shift constant must be nonnegative")
        start = _log_shift_cutoff(K)[0]
        label = f"[{rat_str(K)}]"
    elif kind == "scaled":
        c = Rat(params["c"])
        if c >= ONE:
            raise DomainError(
                "scaled prefix amounts with factor >= 1 are a different game")
        if c < ZERO:
            raise DomainError("the scale factor must be nonnegative")
        label = f"[{rat_str(c)}]"
    return HarmonicAffine(f"v2-{kind}{label}", c, start, e)
