"""Guard-side constructions that defeat prisoner allocations.

Each builder returns a lazy cycle stream together with a guard claim, the
engine's typed promise of who fails inside it.  Every inequality backing a
claim is established in exact rational arithmetic while the numbers
involved are representable; blocks too large to sum term by term are
vouched for by certified logarithm bounds instead, and the stream reports
exactly where the representation changes.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .engine import (
    AllMembersFail, AnchorFails, FailureInEveryCycle, GuardClaim,
    NoSuccessAfterFirst,
)
from .errors import (
    CapabilityError, DomainError, HorizonExhaustedError, PlanViolationError)
from .numeric import (
    Cmp, LN2_HI, LN2_LO, ONE, Rat, RatInterval, ZERO, least_index, ln_bounds,
    rat, rat_ceil, rat_floor, rat_str, require_certified)
from .permutations import Cycle, CyclePlan
from .sequences import (
    HARMONIC, AffineBound, AllocationPlan, BracketedTotal, ExactTotal,
    NonIncreasingBeyond, PriceModel, Relabeling, WeightedCert, ZeroBeyond)

__all__ = [
    "CertifiedBlock", "GoodIndexPlan", "GuardPlan", "HarmonicBlockPlan",
    "divergence_witness", "good_index_adversary", "scaled_harmonic_gap",
    "two_cycle_adversary", "v1b_ceiling_adversary", "v1d_cycle_chooser",
    "v2a_block_adversary", "v2b_block_adversary",
]

_DEFAULT_HORIZON = 1_000_000
# largest index up to which harmonic block prices are summed exactly
_EXACT_END_CAP = 100_000
_EXPONENT_CAP = 1 << 60
_HEAD_CAP = 2_000_000
_LEADER_CAP = 10_000_000


@dataclass(frozen=True)
class CertifiedBlock:
    """A block too large to enumerate, justified by logarithm bounds.

    The block runs from `start_index` (or from 2**start_exponent + 1 when
    only the exponent is representable) through 2**end_exponent.  Its exact
    price provably exceeds price_lower, every relevant amount provably
    stays below amount_upper, and the constructor insists on the strict
    gap between the two, so the block defeats its members without any of
    them being materialized.
    """

    end_exponent: int
    price_lower: Rat
    amount_upper: Rat
    start_index: Optional[int] = None
    start_exponent: Optional[int] = None

    def __post_init__(self):
        if (self.start_index is None) == (self.start_exponent is None):
            raise DomainError("exactly one start representation is required")
        if not self.price_lower > self.amount_upper:
            raise PlanViolationError(
                "certified block fails its own inequality: "
                f"{_rat_label(self.price_lower)} must exceed "
                f"{_rat_label(self.amount_upper)}")

    @property
    def start_label(self) -> str:
        if self.start_index is not None:
            return str(self.start_index)
        return f"2^{self.start_exponent}+1"

    def describe(self) -> str:
        return (f"block {self.start_label}..2^{self.end_exponent}: "
                f"price > {_rat_label(self.price_lower)} > "
                f"{_rat_label(self.amount_upper)} >= amounts")


Pairs = Iterator[tuple]  # (Cycle, witness dict) as a guard stream yields


class GuardPlan(CyclePlan):
    """A guard's lazy cycle stream together with the claim it certifies.

    stream(plan) returns a generator of (cycle, witness) pairs.  The plan
    logs {"cycle": n, **witness} as it pulls cycle n, so witness_log holds
    one numbered entry per pulled cycle, in order, plus at most one closing
    note (see _stop) when the stream stops short of the identity.
    """

    def __init__(self, name: str, claim: GuardClaim,
                 stream: Callable[["GuardPlan"], Pairs]):
        # the stream sees the plan through a weak proxy: a plan it held
        # strongly would form a cycle with its own generator and outlive
        # its last use, witness log included, until the cyclic collector ran
        proxy = weakref.proxy(self)
        super().__init__(name=name, source=_logged(proxy, stream(proxy)))
        self.claim = claim
        self.witness_log: list[dict] = []


def _logged(plan: GuardPlan, pairs: Pairs) -> Iterator[Cycle]:
    for n, (cycle, witness) in enumerate(pairs, 1):
        plan.witness_log.append({"cycle": n, **witness})
        yield cycle


def _stop(plan: GuardPlan, note: str, **fields) -> None:
    """Close the log with a note: the stream ends at what it has pulled,
    and the indices past it are not fixed points."""
    plan.witness_log.append({"note": note, **fields})
    plan.covered_bound = plan.pulled_bound


def _free_box(leader: int) -> tuple:
    """The skipped singleton of a leader whose box costs nothing."""
    return Cycle((leader,)), {"leader": leader, "skipped": True,
                              "note": "free box"}


def _int_label(n) -> str:
    n = int(n)
    if n.bit_length() > 1024:
        return f"<{n.bit_length()}-bit integer>"
    return str(n)


def _rat_label(q) -> str:
    # witness inequalities are for reading; huge exact values stay in the
    # log entries themselves and are summarized here by size
    num_bits = int(q.numerator).bit_length()
    den_bits = int(q.denominator).bit_length()
    if max(num_bits, den_bits) > 1024:
        return f"<{num_bits}/{den_bits}-bit rational>"
    return rat_str(q)


def _total_upper(alloc: AllocationPlan, width=rat(1, 64)) -> Rat:
    cert = alloc.total_cert
    if not isinstance(cert, (ExactTotal, BracketedTotal)):
        raise CapabilityError(
            f"{alloc.name}: a certified finite total is required")
    return cert.interval(width).hi


# ---------------------------------------------------------------------------
# moving heavy prices to heavy positions

def divergence_witness(model: PriceModel, target,
                       horizon: int = _DEFAULT_HORIZON):
    """A relabeling prefix whose weighted price sum provably exceeds target.

    Picks every other positive price and moves it to a position j with
    j * price > 1; after floor(target) + 1 such moves the partial weighted
    sum is above the target.  Returns (relabeling, m) where m is the last
    moved position.
    """
    target = Rat(target)
    positives = model.positive_indices()

    def next_positive() -> int:
        try:
            n = next(positives)
        except StopIteration:
            raise HorizonExhaustedError(
                f"{model.name}: ran out of positive prices before the "
                "witness was complete") from None
        if n > horizon:
            raise HorizonExhaustedError(
                f"{model.name}: no usable positive price within "
                f"horizon {horizon}")
        return n

    value = next_positive()
    if target <= ZERO:
        return Relabeling.identity(), value

    moves = rat_floor(target) + 1
    placements: dict[int, int] = {}
    position = 0
    moved_sum = ZERO
    done = 0
    while True:
        price = model.term(value)
        position = max(position + 1, rat_floor(ONE / price) + 1)
        placements[position] = value
        moved_sum += position * price
        done += 1
        if done == moves:
            break
        next_positive()  # skip one, keeping room for the bijective fill
        value = next_positive()

    delta = Relabeling(placements, name="divergence-witness")
    # each move contributes strictly more than 1, so this cannot fail
    if not moved_sum > target:
        raise PlanViolationError("witness construction lost its invariant")
    return delta, position


# ---------------------------------------------------------------------------
# good positions: reordered price tails versus enriched amounts

class _DescendingMerge:
    """Enriched amounts listed in nonincreasing order of value, lazily.

    Position k (1-based) maps to (original index, enriched amount).  The
    head of the allocation is sorted outright; beyond it the enriched
    values are already nonincreasing (declared structure for real amounts,
    strictly shrinking powers of two for fills), so a two-way merge keeps
    the whole stream ordered.  Zero amounts are replaced first: a finite
    batch of z zeros each receives 1/z, an infinite supply receives
    1/2, 1/4, 1/8, ... in index order; either way the additions sum to one.
    """

    def __init__(self, alloc: AllocationPlan):
        self.alloc = alloc
        structure = alloc.tail_structure
        if isinstance(structure, ZeroBeyond):
            head_end = max(structure.index, 0)
            fill_tail = True
        elif isinstance(structure, NonIncreasingBeyond):
            if structure.positive:
                head_end = structure.index - 1
                fill_tail = False
            else:
                head_end, fill_tail = self._vanishing_point(alloc, structure)
        else:
            raise CapabilityError(
                f"{alloc.name}: descending reordering needs a ZeroBeyond or "
                f"NonIncreasingBeyond tail structure, not {structure!r}")
        if head_end > _HEAD_CAP:
            raise CapabilityError(
                f"{alloc.name}: head of {head_end} amounts is too large "
                "to sort")
        zeros = [i for i in range(1, head_end + 1)
                 if alloc.amount(i) == ZERO]
        self.head_end = head_end
        self.fill_tail = fill_tail
        self._head_zero_count = len(zeros)
        if fill_tail:
            self.added = ONE
            self._fills = {index: rat(1, 1 << (j + 1))
                           for j, index in enumerate(zeros)}
        elif zeros:
            self.added = ONE
            share = ONE / rat(len(zeros))
            self._fills = {index: share for index in zeros}
        else:
            self.added = ZERO
            self._fills = {}
        pairs = [(self.enriched(i), i) for i in range(1, head_end + 1)]
        pairs.sort(key=lambda pair: (-pair[0], pair[1]))
        self._head = pairs
        self._head_pos = 0
        self._tail_index = head_end + 1
        self._tail_last: Optional[Rat] = None
        self._order: list = []

    @staticmethod
    def _vanishing_point(alloc, structure) -> tuple:
        """First zero of a nonincreasing tail without a positivity
        certificate; everything from it on is zero, so fills take over."""
        base = structure.index
        zero = least_index(lambda n: alloc.amount(n) == ZERO, base,
                           base + _DEFAULT_HORIZON)
        if zero is None:
            raise CapabilityError(
                f"{alloc.name}: a nonincreasing tail with no "
                "positivity certificate must vanish within the scan "
                "horizon for the zero fill to be exact")
        return zero - 1, True

    def enriched(self, index: int) -> Rat:
        """The amount at an original index after zero filling."""
        if index <= self.head_end:
            fill = self._fills.get(index)
            return self.alloc.amount(index) if fill is None else fill
        if not self.fill_tail:
            return self.alloc.amount(index)
        ordinal = self._head_zero_count + (index - self.head_end)
        return rat(1, 1 << ordinal)

    def _tail_value(self) -> Rat:
        return self.enriched(self._tail_index)

    def _advance(self) -> None:
        if self._head_pos < len(self._head):
            value, index = self._head[self._head_pos]
            if value >= self._tail_value():
                self._order.append((index, value))
                self._head_pos += 1
                return
        index = self._tail_index
        value = self._tail_value()
        if self._tail_last is not None and value > self._tail_last:
            raise PlanViolationError(
                f"{self.alloc.name}: declared nonincreasing tail rises "
                f"at index {index}")
        self._tail_last = value
        self._order.append((index, value))
        self._tail_index += 1

    def pair(self, position: int):
        """(original index, enriched amount) at a reordered position."""
        while len(self._order) < position:
            self._advance()
        return self._order[position - 1]


class GoodIndexPlan(GuardPlan):
    """The good-index stream, plus the amount-descending coordinates it
    was built in."""

    def __init__(self, merge: _DescendingMerge, claim: GuardClaim,
                 stream: Callable[[GuardPlan], Pairs]):
        super().__init__("good-index", claim, stream)
        self._merge = merge
        self.enrichment_added = merge.added

    def enriched_amount(self, index: int) -> Rat:
        """The amount at an original index after zero filling."""
        return self._merge.enriched(index)

    def reordered_index(self, position: int) -> int:
        """The original index at a position of the descending order."""
        return self._merge.pair(position)[0]


def _refined_once(iv: RatInterval) -> RatInterval:
    """iv whose chain of refinements is computed once, however often it is
    walked from here."""
    if not iv.refinable:
        return iv
    finer: list = []

    def refine() -> RatInterval:
        if not finer:
            finer.append(_refined_once(iv.refine()))
        return finer[0]

    return RatInterval(iv.lo, iv.hi, refine)


def good_index_adversary(model: PriceModel, alloc: AllocationPlan,
                         search_horizon: int = _DEFAULT_HORIZON
                         ) -> GoodIndexPlan:
    """Consecutive cycles in amount-descending coordinates, mapped back.

    Requires the certificate that weighted price sums diverge under every
    relabeling.  Amounts are zero-filled and reordered to be nonincreasing;
    prices travel along.  A reordered position is good when the price tail
    from it strictly exceeds its amount.  Each cycle starts at a good
    position, grows until its price passes that amount, then extends until
    the next position is good again, so the stream covers every index.
    The bad positions before the first good one ride along in cycle one,
    which is the only place a success can hide.
    """
    if model.weighted_cert is not WeightedCert.DIVERGES_ALL:
        raise CapabilityError(
            f"{model.name}: needs the certificate that weighted price "
            "sums diverge under every relabeling")
    total = model.total_cert
    if not isinstance(total, (ExactTotal, BracketedTotal)):
        raise CapabilityError(
            f"{model.name}: a certified finite price total is required")

    merge = _DescendingMerge(alloc)
    # without a finite total the amounts may never fall below a price tail
    _total_upper(alloc)
    prices: list = []
    prefix: list = [ZERO]

    def extend_prices(count: int) -> None:
        while len(prices) < count:
            index = merge.pair(len(prices) + 1)[0]
            value = model.term(index)
            prices.append(value)
            prefix.append(prefix[-1] + value)

    def price_of(position: int) -> Rat:
        extend_prices(position)
        return prices[position - 1]

    bracket: list = []  # the total's bracket, refinements computed once

    def price_tail(position: int) -> RatInterval:
        extend_prices(position - 1)
        if not bracket:
            bracket.append(_refined_once(total.interval(rat(1, 64))))
        return bracket[0].shift(-prefix[position - 1])

    goodness: dict = {}

    def is_good(position: int) -> bool:
        known = goodness.get(position)
        if known is None:
            amount = merge.pair(position)[1]
            known = require_certified(price_tail(position),
                                      amount) is Cmp.GREATER
            goodness[position] = known
        return known

    def stream(plan: GuardPlan) -> Pairs:
        position = 1
        while not is_good(position):
            position += 1
            if position > search_horizon:
                raise HorizonExhaustedError(
                    "no good position within the search horizon; the "
                    "divergence certificate promises one further out")
        start = 1
        anchor = position
        while True:
            target = merge.pair(anchor)[1]
            cum = ZERO
            end = anchor - 1
            while cum <= target:
                end += 1
                if end - anchor > search_horizon:
                    raise HorizonExhaustedError(
                        "cycle price failed to pass the anchor amount "
                        "within the search horizon")
                cum += price_of(end)
            while not is_good(end + 1):
                end += 1
                if end - anchor > search_horizon:
                    raise HorizonExhaustedError(
                        "no good position to close the cycle within the "
                        "search horizon")
                cum += price_of(end)
            members = tuple(merge.pair(i)[0] for i in range(start, end + 1))
            yield Cycle(members), {
                "anchor_position": anchor,
                "anchor_index": merge.pair(anchor)[0],
                "anchor_amount": target,
                "price_from_anchor": cum,
                "bundled_bad_prefix": anchor - start,
                "inequality": f"{_rat_label(cum)} > {_rat_label(target)}",
            }
            start = end + 1
            anchor = end + 1

    return GoodIndexPlan(merge, NoSuccessAfterFirst(
        "good-index", params={"enrichment_added": merge.added},
        detail="beyond cycle one, every member's enriched amount sits "
               "strictly below its cycle price"), stream)


# ---------------------------------------------------------------------------
# pigeonhole blocks against a certified finite total

def v1b_ceiling_adversary(model: PriceModel, alloc: AllocationPlan,
                          leader_cap: int = _LEADER_CAP) -> GuardPlan:
    """Blocks sized so the leader price times the size beats the total.

    Block (m .. m + s - 1) with s = ceil(T / p_m) + 1, where T is a
    certified upper bound on the allocation total: if every member could
    pay the block price (at least p_m each), the members alone would hold
    more than T.  Leaders with a free box are emitted as skipped
    singletons.  When the next leader index stops being representable the
    stream truncates and says so.
    """
    if leader_cap < 1:
        raise DomainError("leader_cap must be at least 1")
    bound = _total_upper(alloc)

    def stream(plan: GuardPlan) -> Pairs:
        leader = 1
        while True:
            if leader > leader_cap:
                _stop(plan, "stream truncated: next leader exceeds the "
                            "representable cap",
                      next_leader_bits=leader.bit_length())
                return
            price = model.term(leader)
            if price == ZERO:
                non_increasing = model.nonincreasing_from
                if non_increasing is not None and leader >= non_increasing:
                    raise HorizonExhaustedError(
                        f"prices vanish from index {leader} on; every "
                        "further cycle would be a free singleton")
                yield _free_box(leader)
                leader += 1
                continue
            size = rat_ceil(bound / price) + 1
            end = leader + size - 1
            if not size * price > bound:
                raise PlanViolationError("pigeonhole sizing lost its "
                                         "invariant")
            yield Cycle.of_range(leader, end), {
                "leader": leader, "leader_price": price, "size": size,
                "total_bound": bound,
                "inequality": f"{_int_label(size)} * {_rat_label(price)} > "
                              f"{_rat_label(bound)}",
            }
            leader = end + 1

    return GuardPlan("ceiling-blocks", FailureInEveryCycle(
        "ceiling-blocks", params={"total_bound": bound},
        detail="in every unskipped block, some member's amount is below "
               "the leader price and so below the block price"), stream)


def two_cycle_adversary(model: PriceModel, alloc: AllocationPlan,
                        search_horizon: int = _DEFAULT_HORIZON) -> GuardPlan:
    """Pairs each leader with a partner too poor for the leader's box.

    Takes the smallest unconsumed index l; if its box is free the cycle
    (l) is emitted and marked skipped, otherwise it searches the smallest
    unconsumed n with amount(n) < price(l) and emits (l, n): the partner
    cannot pay even the leader's box, let alone the pair.  A certified
    total T lets at most floor(T / price) candidates pay, bounding the scan.
    """
    bound = _total_upper(alloc)
    t_num, t_den = bound.numerator, bound.denominator

    def stream(plan: GuardPlan) -> Pairs:
        consumed: set = set()
        floor_index = 1
        while True:
            leader = floor_index
            while leader in consumed:
                leader += 1
            price = model.term(leader)
            consumed.add(leader)
            if price == ZERO:
                yield _free_box(leader)
                floor_index = leader + 1
                continue
            partner = leader + 1
            scanned = 0
            rich = t_num * price.denominator // (t_den * price.numerator)
            while True:
                if partner not in consumed:
                    if alloc.amount(partner) < price:
                        break
                    scanned += 1
                    if scanned > rich:
                        raise PlanViolationError(
                            f"{scanned} candidates past {leader} can pay "
                            f"{rat_str(price)}; the total allows {rich}")
                    if scanned > search_horizon:
                        raise HorizonExhaustedError(
                            f"no unconsumed index with amount below "
                            f"{rat_str(price)} within {search_horizon} "
                            f"candidates past {leader}")
                partner += 1
            consumed.add(partner)
            amount = alloc.amount(partner)
            yield Cycle((leader, partner)), {
                "leader": leader, "partner": partner, "leader_price": price,
                "partner_amount": amount,
                "inequality": f"{_rat_label(amount)} < {_rat_label(price)}",
            }
            floor_index = leader + 1

    return GuardPlan("two-cycles", FailureInEveryCycle(
        "two-cycles", detail="the partner in every unskipped pair cannot "
                             "pay the leader's box price"), stream)


def v1d_cycle_chooser(model: PriceModel, total=ONE,
                      leader_cap: int = _LEADER_CAP,
                      search_horizon: int = _DEFAULT_HORIZON) -> GuardPlan:
    """Allocation-independent blocks with a pigeonhole witness member.

    Block (m+1 .. m+k) takes the smallest k whose largest price p_i inside
    satisfies k * p_i > total: if all k members could pay a price at least
    p_i, together they would hold more than the total.  Works against
    every allocation bounded by the given total, which is why it needs no
    look at the amounts.
    """
    if leader_cap < 1:
        raise DomainError("leader_cap must be at least 1")
    bound = Rat(total)
    if bound < ZERO:
        raise DomainError("the total bound cannot be negative")

    def stream(plan: GuardPlan) -> Pairs:
        covered = 0
        while True:
            start = covered + 1
            if start > leader_cap:
                _stop(plan, "stream truncated: next block start exceeds "
                            "the representable cap",
                      next_start_bits=start.bit_length())
                return
            non_increasing = model.nonincreasing_from
            if non_increasing is not None and start >= non_increasing:
                best_price = model.term(start)
                if best_price == ZERO:
                    raise HorizonExhaustedError(
                        f"prices vanish from index {start} on; no block "
                        "can exceed the pigeonhole bound")
                witness = start
                size = rat_floor(bound / best_price) + 1
            else:
                best_price = ZERO
                witness = None
                size = None
                for offset in range(1, search_horizon + 1):
                    price = model.term(covered + offset)
                    if price > best_price:
                        best_price, witness = price, covered + offset
                    if best_price > ZERO and offset * best_price > bound:
                        size = offset
                        break
                if size is None:
                    raise HorizonExhaustedError(
                        "no block within the search horizon beats the "
                        "pigeonhole bound")
            end = covered + size
            if not size * best_price > bound:
                raise PlanViolationError("block sizing lost its invariant")
            yield Cycle.of_range(start, end), {
                "start": start, "size": size,
                "witness_index": witness, "witness_price": best_price,
                "total_bound": bound,
                "inequality": f"{_int_label(size)} * "
                              f"{_rat_label(best_price)} > "
                              f"{_rat_label(bound)}",
            }
            covered = end

    return GuardPlan("pigeonhole-blocks", FailureInEveryCycle(
        "pigeonhole-blocks", params={"total_bound": bound},
        detail="each block holds a witness price p with size * p above "
               "the total, so against any allocation within the total "
               "some member cannot pay"), stream)


# ---------------------------------------------------------------------------
# harmonic block adversaries for the fixed-price variants

def _least_block_end(anchor: int, target_fn, end_cap: int):
    """Smallest end in [anchor, end_cap] whose harmonic price from the
    anchor strictly exceeds target_fn(end), or None when even end_cap
    cannot (the caller then switches representation).

    Certified log bounds skip the ends they already rule out.  The price
    H(anchor..e) grows with e and lies strictly below
    ln_hi(e) - ln_lo(anchor - 1), since H(a..e) < ln(e / (a - 1)); for
    anchor 1 the bound is ln_hi(e) + 1, since H_e <= 1 + ln e.  The target
    never falls as e grows (a fixed amount, or the largest amount in
    [anchor, e]), so target_fn(e) >= floor = target_fn(anchor).
    least_index returns start only when the bound at start - 1 is at most
    floor (or start == anchor), and None only when the bound at end_cap
    is.  Either way every end up to that index has
    price <= bound <= floor <= target, so no block ends there; the bound
    itself need not be monotone.  One exact sum covers [anchor, start - 1]
    and the chunked search below runs from start.  When the block
    predicate is monotone in e (fixed targets and every built-in
    allocation), the end found is the least one, whatever the chunking.
    """
    floor = target_fn(anchor)
    ln_below = ln_bounds(anchor - 1)[0] if anchor > 1 else -ONE
    start = least_index(lambda e: ln_bounds(e)[1] - ln_below > floor,
                        anchor, end_cap)
    if start is None:
        return None
    cum = HARMONIC.range_sum(anchor, start - 1) if start > anchor else ZERO
    cursor = start - 1
    step = 64
    while cursor < end_cap:
        upto = min(cursor + step, end_cap)
        chunk = HARMONIC.range_sum(cursor + 1, upto)
        if cum + chunk > target_fn(upto):
            # base is the price of [anchor, lo - 1] and found that of
            # [anchor, hi], so each probe sums only the terms past lo
            lo, hi = cursor + 1, upto
            base, found = cum, cum + chunk
            while lo < hi:
                mid = (lo + hi) // 2
                price = base + HARMONIC.range_sum(lo, mid)
                if price > target_fn(mid):
                    hi, found = mid, price
                else:
                    lo, base = mid + 1, price
            return lo, found
        cum += chunk
        cursor = upto
        step *= 2
    return None


def _least_certified_exponent(bound: AffineBound, ln_start_hi: Rat,
                              floor_exp: int, cap: int) -> Optional[int]:
    """Least E in [floor_exp, cap] where E*LN2_LO - ln_start_hi, a lower
    bound on the price of (s, 2^E], beats bound(E): E*LN2_LO > ln_start_hi
    and E*(LN2_LO - slope) > ln_start_hi + intercept, solved exactly."""
    top, gap = ln_start_hi + bound.intercept, LN2_LO - bound.slope
    lo = max(floor_exp, rat_floor(ln_start_hi / LN2_LO) + 1)
    if gap > 0:
        lo = max(lo, rat_floor(top / gap) + 1)
    elif top >= 0:
        return None
    elif gap < 0:
        cap = min(cap, rat_ceil(top / gap) - 1)
    return lo if lo <= cap else None


class HarmonicBlockPlan(GuardPlan):
    """Consecutive harmonic blocks, exact while summable, then certified.

    The exact stream emits greedily minimal blocks from `anchor` on, each
    priced above its target amount: the largest amount inside the block
    when per_member is set, the anchor's own amount otherwise.  It ends
    once no block closes by exact_end_cap; certified_blocks(count) then
    continues from `anchor` with power-of-two blocks proved by logarithm
    bounds, each end solved in closed form from an AffineBound on amounts.
    """

    def __init__(self, alloc: AllocationPlan, per_member: bool,
                 claim: GuardClaim, exact_end_cap: int,
                 exponent_cap: int):
        super().__init__(claim.adversary, claim,
                         HarmonicBlockPlan._exact_stream)
        self.alloc = alloc
        self.per_member = per_member
        self.exact_end_cap = exact_end_cap
        self.exponent_cap = exponent_cap
        self.anchor = 1
        self.prev_exp: Optional[int] = None
        self._certified: list = []

    @property
    def transitioned(self) -> bool:
        """Whether the exact stream ended with its note."""
        return self.covered_bound is not None

    def _target_for(self, anchor: int):
        if self.per_member:
            return lambda end: self.alloc.max_in_range(anchor, end)
        fixed = self.alloc.amount(anchor)
        return lambda end: fixed

    def _exact_stream(self) -> Pairs:
        while True:
            anchor = self.anchor
            target_fn = self._target_for(anchor)
            found = _least_block_end(anchor, target_fn, self.exact_end_cap)
            if found is None:
                if anchor == 1:
                    raise HorizonExhaustedError(
                        f"{self.name}: no block ending by "
                        f"{self.exact_end_cap} defeats this allocation; if "
                        "one exists it lies beyond the exact horizon")
                _stop(self, "exact stream ends; certified_blocks continues it",
                      next_anchor=anchor)
                return
            end, price = found
            amount_bound = target_fn(end)
            self.anchor = end + 1
            yield Cycle.of_range(anchor, end), {
                "anchor": anchor, "end": end,
                "price": price, "amount_bound": amount_bound,
                "inequality": f"{_rat_label(price)} > "
                              f"{_rat_label(amount_bound)}",
            }

    def certified_blocks(self, count: int) -> list:
        """The first count power-of-two blocks after the exact stream."""
        self.materialize(self.exact_end_cap + 1)
        if not self.transitioned:
            raise HorizonExhaustedError(
                f"{self.name}: the exact stream is still running; "
                "certified blocks only continue a finished one")
        while len(self._certified) < count:
            self._certified.append(self._next_certified())
        return list(self._certified[:count])

    def _next_certified(self) -> CertifiedBlock:
        """Continue the finished exact stream with one power-of-two block,
        its amounts bounded by amount_upper_pow2 or a v2b anchor's amount."""
        alloc = self.alloc
        hook = alloc.amount_upper_pow2
        previous = self.prev_exp
        if previous is None:
            anchor = self.anchor
            ln_start_hi = ln_bounds(anchor)[1] if anchor > 1 else ZERO
            floor_exp = max(2, anchor.bit_length())
            start_index, start_exponent = anchor, None
        else:
            # anchor is 2^previous + 1; ln(2^e + 1) <= e ln2 + 2^-e
            ln_start_hi = previous * LN2_HI + rat(1, 1 << min(previous, 64))
            floor_exp = previous + 1
            start_index, start_exponent = None, previous

        if hook is None and (self.per_member or start_index is None):
            raise CapabilityError(
                f"{alloc.name}: lacks a certified amount bound over "
                "power-of-two prefixes")
        if self.per_member:
            amount_bound = hook
        elif start_index is not None:
            amount_bound = AffineBound(alloc.amount(start_index), ZERO)
        else:  # the anchor sits below 2^(previous + 1)
            amount_bound = AffineBound(hook(previous + 1), ZERO)

        lo = _least_certified_exponent(amount_bound, ln_start_hi, floor_exp,
                                       self.exponent_cap)
        if lo is None:
            raise HorizonExhaustedError(
                f"{alloc.name}: no power-of-two block end is "
                "certifiable; the amounts keep pace with the price sums")
        block = CertifiedBlock(
            end_exponent=lo,
            price_lower=lo * LN2_LO - ln_start_hi,
            amount_upper=amount_bound(lo),
            start_index=start_index,
            start_exponent=start_exponent)
        self.prev_exp = lo
        return block


def v2a_block_adversary(alloc: AllocationPlan,
                        exact_end_cap: int = _EXACT_END_CAP,
                        exponent_cap: int = _EXPONENT_CAP
                        ) -> HarmonicBlockPlan:
    """Consecutive harmonic blocks whose price beats every amount inside.

    Greedily minimal block ends; since amounts inside each block all sit
    strictly below the block price, the set of successful prisoners stays
    finite, defeating the release rule that needs infinitely many.  Once
    block ends stop being exactly summable, certified_blocks(count)
    continues the stream with power-of-two blocks proved by log bounds.
    """
    return HarmonicBlockPlan(alloc, True, AllMembersFail(
        "v2a-blocks", detail="each block's price strictly exceeds the "
                             "largest amount carried by any of its members"),
        exact_end_cap, exponent_cap)


def v2b_block_adversary(alloc: AllocationPlan,
                        exact_end_cap: int = _EXACT_END_CAP,
                        exponent_cap: int = _EXPONENT_CAP
                        ) -> HarmonicBlockPlan:
    """Consecutive harmonic blocks whose price beats the first amount.

    Every block's first member fails, so cofinitely many successes are
    impossible no matter the allocation; harmonic divergence guarantees
    each block closes.  The certified continuation mirrors
    v2a_block_adversary.
    """
    return HarmonicBlockPlan(alloc, False, AnchorFails(
        "v2b-blocks", detail="the first member of each block cannot pay "
                             "the block price"),
        exact_end_cap, exponent_cap)


def scaled_harmonic_gap(k: int, c) -> int:
    """Smallest n >= k with harmonic_sum(k, n) > c * H_n, for 0 < c < 1.

    Exists because the head H_{k-1} is a vanishing share of H_n; found by
    a least-index search over exact harmonic prefixes.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    c = Rat(c)
    if not ZERO < c < ONE:
        raise DomainError("the scale must lie strictly between 0 and 1")
    goal = HARMONIC.prefix_sum(k - 1) / (ONE - c)
    return least_index(lambda n: HARMONIC.prefix_sum(n) > goal, k)
