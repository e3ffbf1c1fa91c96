"""Adversary streams against hand-computed blocks and exact inequalities."""
import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prisoners.adversaries import (
    CertifiedBlock, divergence_witness, good_index_adversary,
    scaled_harmonic_gap, two_cycle_adversary, v1b_ceiling_adversary,
    v1d_cycle_chooser, v2a_block_adversary, v2b_block_adversary,
    _EXPONENT_CAP, _least_block_end, _least_certified_exponent,
    _refined_once,
)
from prisoners.engine import (
    AllMembersFail, AnchorFails, FailureInEveryCycle, NoSuccessAfterFirst,
    simulate,
)
from prisoners.errors import (
    CapabilityError, DomainError, HorizonExhaustedError, NotMaterializedError,
    PlanViolationError,
)
from prisoners.numeric import (
    LN2_HI, LN2_LO, ONE, RatInterval, ZERO, harmonic_sum, least_index,
    ln_bounds, power_tail_bounds, rat,
)
from prisoners.sequences import (
    AffineBound, BracketedTotal, CustomModel, ExactTotal, FnAllocation,
    GeometricTail, HarmonicModel, InverseSquareModel, NonIncreasingBeyond,
    TableAllocation, ZeroTail, builtin_model,
    weighted_partial_sum,
)
from prisoners.strategies import build_baseline_geometric, build_v2_strategy

GEO = builtin_model("geometric", ratio=rat(1, 2))
INV = builtin_model("inverse-square")


def pow2_alloc():
    return FnAllocation(
        "pow2", lambda n: rat(1, 2 ** n),
        total_cert=ExactTotal(ONE),
        tail_structure=NonIncreasingBeyond(1, True))


def spans(cycles):
    return [(c.min_member, c.max_member) for c in cycles]


def pairwise_disjoint(cycles) -> bool:
    """A check that does not go through CyclePlan's own index: explicit
    members go into a plain set, range cycles are compared as intervals."""
    members = [m for c in cycles if not c.is_range for m in c.members]
    ranges = sorted((c.start, c.end) for c in cycles if c.is_range)
    return (len(set(members)) == len(members)
            and all(a[1] < b[0] for a, b in zip(ranges, ranges[1:]))
            and not any(lo <= m <= hi for m in members for lo, hi in ranges))


# ---------------------------------------------------------------------------
# divergence witness

def test_witness_moves_heavy_prices_to_heavy_positions():
    delta, m = divergence_witness(GEO, 10)
    placed = sorted((int(j), v) for j, v in delta.placements.items())
    # value 2^-i lands at position 2^i + 1, values are every other index
    assert placed[:4] == [(3, 1), (9, 3), (33, 5), (129, 7)]
    assert len(placed) == 11  # floor(10) + 1 moves
    assert m == placed[-1][0] == 2 ** 21 + 1
    for j, v in placed:
        assert j * GEO.term(v) > ONE


def test_witness_partial_sum_verified_exactly_at_small_target():
    delta, m = divergence_witness(GEO, 3)
    assert weighted_partial_sum(GEO, delta, m) > 3


def test_witness_zero_target_is_identity():
    delta, m = divergence_witness(GEO, 0)
    assert delta.is_identity
    assert m == 1


def test_witness_needs_infinitely_many_positive_prices():
    finite = CustomModel({1: rat(1, 2), 2: rat(1, 4)}, ZeroTail(3),
                         name="finite")
    with pytest.raises(HorizonExhaustedError):
        divergence_witness(finite, 5)


# ---------------------------------------------------------------------------
# good positions

def test_good_index_singleton_first_cycle_on_halving_amounts():
    plan = good_index_adversary(INV, pow2_alloc())
    cycles = plan.materialize(3)
    # price tail from 1 brackets above 1/2 and p_1 = 1 beats a_1 = 1/2,
    # position 2 is good again, so the first cycle is the singleton (1)
    assert tuple(cycles[0].members) == (1,)
    assert isinstance(plan.claim, NoSuccessAfterFirst)
    assert plan.enrichment_added == ZERO  # no zeros to fill
    assert pairwise_disjoint(plan.cycles)


def test_good_index_zero_fill_single_zero_gets_whole_unit():
    base = build_baseline_geometric()  # a_1 = 0 is the only zero
    plan = good_index_adversary(INV, base)
    plan.materialize(1)
    assert plan.enrichment_added == ONE
    assert plan.enriched_amount(1) == ONE
    assert plan.enriched_amount(2) == rat(1, 2)


def test_good_index_zero_fill_finite_batch_shares_equally():
    tab = TableAllocation(
        {1: ZERO, 2: rat(1, 2), 3: ZERO, 4: rat(1, 4)},
        GeometricTail(rat(1, 2), 5), name="two-zeros")
    plan = good_index_adversary(INV, tab)
    plan.materialize(1)
    assert plan.enriched_amount(1) == rat(1, 2)
    assert plan.enriched_amount(3) == rat(1, 2)
    assert plan.enrichment_added == ONE


def test_good_index_zero_fill_infinite_tail_uses_halving_fills():
    tab = TableAllocation({1: rat(1, 2), 2: ZERO, 3: rat(1, 4)},
                          ZeroTail(4), name="zero-tail")
    plan = good_index_adversary(INV, tab)
    plan.materialize(2)
    assert plan.enriched_amount(2) == rat(1, 2)   # first zero
    assert plan.enriched_amount(4) == rat(1, 4)   # second zero
    assert plan.enriched_amount(5) == rat(1, 8)
    # enriched amounts approach original total + 1 = 7/4 + ... = 1 + 3/4
    total = sum(plan.enriched_amount(i) for i in range(1, 30))
    assert ZERO < (rat(3, 4) + ONE) - total < rat(1, 2 ** 20)


def test_good_index_every_later_cycle_defeats_enriched_amounts():
    plan = good_index_adversary(INV, pow2_alloc())
    cycles = plan.materialize(12)
    for cycle, entry in zip(cycles[1:], plan.witness_log[1:]):
        price = cycle.price(INV)
        for member in cycle.members:
            assert plan.enriched_amount(member) < price
        assert entry["price_from_anchor"] <= price
    assert pairwise_disjoint(plan.cycles)
    # the cycles are disjoint and, in the identity order of halving
    # amounts, cover every index up to the last one pulled
    union = set()
    for cycle in cycles:
        union.update(cycle.members)
    assert sum(cycle.length for cycle in cycles) == len(union)
    assert union == set(range(1, plan.pulled_bound + 1))


@pytest.mark.parametrize("alloc", [pow2_alloc(), build_baseline_geometric()],
                         ids=["halving", "baseline"])
def test_good_index_builds_the_total_bracket_and_each_refinement_once(alloc):
    widths = []

    def bracket(width):
        # the inverse-square total's bracket chain, counting each link
        widths.append(width)
        iv = power_tail_bounds(2, 1, width)
        return RatInterval(iv.lo, iv.hi, lambda: bracket(iv.width))

    class CountedInverseSquare(InverseSquareModel):
        total_cert = BracketedTotal(bracket)

    plan = good_index_adversary(CountedInverseSquare(), alloc)
    plain = good_index_adversary(INV, alloc)
    assert plan.materialize(40) == plain.materialize(40)
    assert plan.witness_log == plain.witness_log
    assert widths[0] == rat(1, 64)
    assert len(widths) == len(set(widths))


def test_refined_once_walks_the_plain_chain_and_computes_it_once():
    widths = []

    def bracket(width):
        widths.append(width)
        iv = power_tail_bounds(2, 3, width)
        return RatInterval(iv.lo, iv.hi, lambda: bracket(iv.width))

    plain = power_tail_bounds(2, 3, rat(1, 8))
    cached = _refined_once(bracket(rat(1, 8)))
    for _ in range(2):
        want, got = plain, cached.shift(-ONE)
        for _ in range(6):
            assert (got.lo, got.hi) == (want.lo - ONE, want.hi - ONE)
            want, got = want.refine(), got.refine()
    assert len(widths) == 7 == len(set(widths))


def test_good_index_reorders_amounts_descending():
    tab = TableAllocation(
        {1: rat(1, 16), 2: rat(1, 2), 3: rat(1, 8), 4: rat(1, 4)},
        GeometricTail(rat(1, 2), 5), name="shuffled")
    plan = good_index_adversary(INV, tab)
    plan.materialize(2)
    order = [plan.reordered_index(k) for k in range(1, 7)]
    # 1/2@2, 1/4@4, 1/8@3, 1/16@1, then the geometric tail takes over
    assert order == [2, 4, 3, 1, 5, 6]
    values = [plan.enriched_amount(i) for i in order]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("first_zero", [1, 2, 3, 5, 64, 1000])
def test_good_index_finds_where_an_uncertified_tail_vanishes(first_zero):
    # amounts 1/n until first_zero, then 0; the tail is declared
    # nonincreasing but not positive, so the zero fill starts exactly there
    alloc = FnAllocation(
        "vanishing", lambda n: rat(1, n) if n < first_zero else ZERO,
        total_cert=ExactTotal(sum((rat(1, n) for n in range(1, first_zero)),
                                  ZERO)),
        tail_structure=NonIncreasingBeyond(1))
    plan = good_index_adversary(INV, alloc)
    assert plan.enrichment_added == ONE
    if first_zero > 1:
        assert plan.enriched_amount(first_zero - 1) == rat(1, first_zero - 1)
    assert plan.enriched_amount(first_zero) == rat(1, 2)
    assert plan.enriched_amount(first_zero + 1) == rat(1, 4)


def test_good_index_rejects_an_uncertified_tail_that_never_vanishes():
    alloc = FnAllocation("positive", lambda n: rat(1, n),
                         tail_structure=NonIncreasingBeyond(1))
    with pytest.raises(CapabilityError, match="must vanish"):
        good_index_adversary(INV, alloc)


def test_good_index_refuses_an_uncertified_total_at_build():
    # no amount of constant1 falls below a price tail past position 1, so
    # the stream would test every position up to its search horizon
    with pytest.raises(CapabilityError, match="certified finite total"):
        good_index_adversary(INV, build_v2_strategy("constant1"))


def test_good_index_requires_divergence_certificate():
    with pytest.raises(CapabilityError):
        good_index_adversary(GEO, pow2_alloc())


def test_good_index_requires_finite_price_total():
    with pytest.raises(CapabilityError):
        good_index_adversary(HarmonicModel(), pow2_alloc())


def test_good_index_requires_tail_structure():
    bare = FnAllocation("bare", lambda n: rat(1, 2 ** n))
    with pytest.raises(CapabilityError):
        good_index_adversary(INV, bare)


# ---------------------------------------------------------------------------
# ceiling blocks

def test_ceiling_blocks_match_hand_computation():
    plan = v1b_ceiling_adversary(GEO, pow2_alloc())
    cycles = plan.materialize(2)
    assert spans(cycles) == [(1, 3), (4, 20)]
    # leader 21 needs 2^21 + 1 members
    third = plan.materialize(3)[2]
    assert (third.min_member, third.max_member) == (21, 21 + 2 ** 21)
    assert isinstance(plan.claim, FailureInEveryCycle)
    assert plan.claim.params["total_bound"] == ONE


def test_ceiling_pigeonhole_inequality_holds_even_for_jumbo_blocks():
    plan = v1b_ceiling_adversary(GEO, pow2_alloc())
    cycles = plan.materialize(10)
    assert len(cycles) == 4  # the fifth leader is not representable
    assert plan.covered_bound is not None
    assert plan.witness_log[-1]["note"].startswith("stream truncated")
    assert plan.witness_log[-1]["next_leader_bits"] == 2097175
    for entry in plan.witness_log[:-1]:
        assert entry["size"] * entry["leader_price"] > entry["total_bound"]


def test_ceiling_truncation_stops_identity_fallback():
    plan = v1b_ceiling_adversary(GEO, pow2_alloc(), leader_cap=20)
    assert spans(plan.materialize(5)) == [(1, 3), (4, 20)]
    assert plan.covered_bound == 20
    assert plan.cycle_containing(10).contains(4)
    with pytest.raises(NotMaterializedError):
        plan.cycle_containing(21)


def test_ceiling_skips_free_leaders_and_fails_on_vanishing_tails():
    sporadic = CustomModel({1: ZERO, 2: rat(1, 2)},
                           GeometricTail(rat(1, 2), 3), name="sporadic")
    plan = v1b_ceiling_adversary(sporadic, pow2_alloc())
    cycles = plan.materialize(2)
    assert tuple(cycles[0].members) == (1,)
    assert plan.witness_log[0]["skipped"] is True
    assert spans(cycles)[1] == (2, 4)  # ceil(1/(1/2)) + 1 = 3 members

    dead = CustomModel({1: rat(1, 2)}, ZeroTail(2), name="dead")
    with pytest.raises(HorizonExhaustedError):
        v1b_ceiling_adversary(dead, pow2_alloc()).materialize(2)


def test_ceiling_requires_certified_total():
    with pytest.raises(CapabilityError):
        v1b_ceiling_adversary(GEO, FnAllocation("bare", lambda n: ZERO))


# ---------------------------------------------------------------------------
# two-cycles

def test_two_cycle_pairs_match_hand_computation():
    plan = two_cycle_adversary(GEO, pow2_alloc())
    cycles = plan.materialize(4)
    assert [tuple(c.members) for c in cycles] == [
        (1, 2), (3, 4), (5, 6), (7, 8)]
    for entry in plan.witness_log:
        assert entry["partner_amount"] < entry["leader_price"]
    assert set().union(*(c.members for c in cycles)) == set(range(1, 9))
    assert pairwise_disjoint(plan.cycles)


def test_two_cycle_skips_consumed_partners():
    # partner amounts force skipping ahead: a_2 too rich for leader 1
    amounts = {1: rat(1, 2), 2: ONE, 3: rat(1, 64), 4: rat(1, 64)}
    alloc = TableAllocation(amounts, GeometricTail(rat(1, 2), 5),
                            name="rich-2")
    plan = two_cycle_adversary(GEO, alloc)
    cycles = plan.materialize(3)
    assert tuple(cycles[0].members) == (1, 3)
    assert tuple(cycles[1].members) == (2, 4)  # 2 is the next leader
    assert tuple(cycles[2].members) == (5, 6)


def test_two_cycle_free_leader_is_skipped_singleton():
    sporadic = CustomModel({1: ZERO}, GeometricTail(rat(1, 2), 2),
                           name="free-first")
    plan = two_cycle_adversary(sporadic, pow2_alloc())
    cycles = plan.materialize(2)
    assert tuple(cycles[0].members) == (1,)
    assert plan.witness_log[0]["skipped"] is True
    assert tuple(cycles[1].members) == (2, 3)


def test_two_cycle_reports_exhausted_search():
    # without a certified total the scan has no bound, so the guard is
    # refused when it is built
    ones = FnAllocation("ones", lambda n: ONE)
    with pytest.raises(CapabilityError, match="certified finite total"):
        two_cycle_adversary(GEO, ones, search_horizon=64)
    # a total of 2^20 lets 2^21 candidates pay the first price 1/2, so the
    # search horizon ends the scan first
    rich = FnAllocation("rich", lambda n: ONE, total_cert=ExactTotal(2 ** 20))
    plan = two_cycle_adversary(GEO, rich, search_horizon=64)
    with pytest.raises(HorizonExhaustedError, match="within 64 candidates"):
        plan.materialize(1)


def test_two_cycle_scan_stops_at_the_pigeonhole_bound():
    # amounts of 1 under a claimed total of 1: at most two indices can pay
    # the first price 1/2, so a third rich candidate ends the scan
    liar = FnAllocation("liar", lambda n: ONE, total_cert=ExactTotal(ONE))
    plan = two_cycle_adversary(GEO, liar)
    with pytest.raises(PlanViolationError,
                       match="3 candidates past 1 can pay 1/2; the total "
                             "allows 2"):
        plan.materialize(1)


@pytest.mark.parametrize("kind, params", [
    ("constant1", {}), ("harmonic-prefix", {}), ("log-shift", {"K": 2}),
    ("shifted-harmonic", {"k": 3}), ("scaled", {"c": rat(1, 2)})])
def test_two_cycle_refuses_divergent_totals_when_built(kind, params):
    with pytest.raises(CapabilityError, match="certified finite total"):
        two_cycle_adversary(HarmonicModel(),
                            build_v2_strategy(kind, **params))


# ---------------------------------------------------------------------------
# allocation-independent blocks

def test_v1d_blocks_match_hand_computation():
    plan = v1d_cycle_chooser(GEO)
    cycles = plan.materialize(3)
    assert spans(cycles) == [(1, 3), (4, 20), (21, 21 + 2 ** 21)]
    first, second = plan.witness_log[:2]
    assert (first["size"], first["witness_index"]) == (3, 1)
    assert (second["size"], second["witness_index"]) == (17, 4)
    for entry in plan.witness_log:
        assert entry["size"] * entry["witness_price"] > ONE


def test_v1d_block_size_is_minimal_on_nonincreasing_prices():
    plan = v1d_cycle_chooser(GEO)
    plan.materialize(3)
    for entry in plan.witness_log:
        size, price = entry["size"], entry["witness_price"]
        assert (size - 1) * price <= ONE


def test_v1d_absorbs_zero_stretch_with_witness_beyond_it():
    stretch = CustomModel({1: ZERO, 2: ZERO, 3: ZERO, 4: rat(1, 2)},
                          GeometricTail(rat(1, 2), 5), name="stretch")
    plan = v1d_cycle_chooser(stretch)
    cycles = plan.materialize(2)
    assert spans(cycles) == [(1, 4), (5, 37)]
    assert plan.witness_log[0]["witness_index"] == 4
    assert plan.witness_log[0]["size"] == 4


def test_v1d_respects_alternate_total_bound():
    plan = v1d_cycle_chooser(GEO, total=rat(1, 4))
    cycles = plan.materialize(1)
    # k = floor((1/4)/(1/2)) + 1 = 1
    assert spans(cycles) == [(1, 1)]
    assert plan.claim.params["total_bound"] == rat(1, 4)


def test_v1d_fails_loudly_when_prices_vanish():
    dead = CustomModel({1: rat(1, 2)}, ZeroTail(2), name="dead")
    with pytest.raises(HorizonExhaustedError):
        v1d_cycle_chooser(dead).materialize(2)


# ---------------------------------------------------------------------------
# harmonic block adversaries

def as_fraction(q) -> Fraction:
    return Fraction(q.numerator, q.denominator)


_HARMONIC_PREFIX = [Fraction(0)]


def _harmonic_price(a: int, b: int) -> Fraction:
    """1/a + ... + 1/b from plain Fraction prefix sums."""
    while len(_HARMONIC_PREFIX) <= b:
        _HARMONIC_PREFIX.append(_HARMONIC_PREFIX[-1]
                                + Fraction(1, len(_HARMONIC_PREFIX)))
    return _HARMONIC_PREFIX[b] - _HARMONIC_PREFIX[a - 1]


def plain_block_end(anchor, target_fn, end_cap):
    """Doubling chunks, then plain bisection that re-sums every probe
    from the chunk start."""
    cum = Fraction(0)
    cursor = anchor - 1
    step = 64
    while cursor < end_cap:
        upto = min(cursor + step, end_cap)
        chunk = _harmonic_price(cursor + 1, upto)
        if cum + chunk > target_fn(upto):
            lo, hi = cursor + 1, upto
            while lo < hi:
                mid = (lo + hi) // 2
                if cum + _harmonic_price(cursor + 1, mid) > target_fn(mid):
                    hi = mid
                else:
                    lo = mid + 1
            return lo, cum + _harmonic_price(cursor + 1, lo)
        cum += chunk
        cursor = upto
        step *= 2
    return None


@pytest.mark.parametrize("build", [
    lambda: good_index_adversary(INV, build_baseline_geometric()),
    lambda: two_cycle_adversary(GEO, build_baseline_geometric()),
    lambda: v1b_ceiling_adversary(INV, build_baseline_geometric()),
    lambda: v1d_cycle_chooser(INV),
    lambda: v2b_block_adversary(build_v2_strategy("constant1")),
], ids=["good-index", "two-cycle", "v1b-ceiling", "v1d-chooser",
        "v2b-blocks"])
def test_pulled_bound_tracks_every_materialize(build):
    plan = build()
    for count in range(1, 9):
        plan.materialize(count)
        assert plan.pulled_bound == max(c.max_member for c in plan.cycles)


def flat_alloc(value):
    return FnAllocation(f"flat[{value}]", lambda n: value,
                        tail_structure=NonIncreasingBeyond(1, True))


@pytest.mark.parametrize("builder", [v2a_block_adversary,
                                     v2b_block_adversary],
                         ids=["per-member", "anchor-amount"])
@pytest.mark.parametrize("alloc", [
    build_v2_strategy("constant1"), build_v2_strategy("scaled", c=rat(1, 2)),
    build_v2_strategy("shifted-harmonic", k=3),
    build_v2_strategy("harmonic-prefix"), flat_alloc(rat(3)),
], ids=lambda alloc: alloc.name)
def test_least_block_end_matches_plain_bisection(builder, alloc):
    plan = builder(alloc)
    for anchor in (1, 2, 5, 63, 64, 65, 200, 700):
        assert_block_end_matches_oracle(anchor, plan._target_for(anchor))


def assert_block_end_matches_oracle(anchor, target_fn, cap=5000):
    """Same (end, price) as plain_block_end, probing targets only at
    candidate ends; returns the oracle's answer."""
    probes = []
    got = _least_block_end(
        anchor, lambda end: probes.append(end) or target_fn(end), cap)
    want = plain_block_end(anchor, target_fn, cap)
    assert all(anchor <= end <= cap for end in probes)
    if want is None:
        assert got is None
    else:
        assert (got[0], as_fraction(got[1])) == want
    return want


_V2_ALLOCS = [
    build_v2_strategy("constant1"), build_v2_strategy("harmonic-prefix"),
    build_v2_strategy("scaled", c=rat(1, 3)),
    build_v2_strategy("scaled", c=rat(1, 2)),
    build_v2_strategy("scaled", c=rat(9, 10)),
    build_v2_strategy("shifted-harmonic", k=3),
    build_v2_strategy("shifted-harmonic", k=40),
    build_v2_strategy("log-shift", K=1), build_v2_strategy("log-shift", K=2),
]


@settings(max_examples=150, deadline=None)
@given(anchor=st.integers(1, 3000), data=st.data())
def test_least_block_end_matches_plain_search_on_random_targets(anchor,
                                                                 data):
    kind = data.draw(st.sampled_from(["fixed", "per-member", "never"]))
    if kind == "per-member":
        builder = data.draw(st.sampled_from([v2a_block_adversary,
                                             v2b_block_adversary]))
        plan = builder(data.draw(st.sampled_from(_V2_ALLOCS)))
        target_fn = plan._target_for(anchor)
    elif kind == "fixed":
        # from nothing to about the price of [1, 5000]
        value = rat(data.draw(st.integers(0, 9000)),
                    data.draw(st.integers(1, 1000)))
        target_fn = lambda end: value
    else:
        # H_5000 < 9.1, so no block from any anchor closes by the cap
        value = rat(91, 10) + rat(data.draw(st.integers(0, 100)), 7)
        target_fn = lambda end: value
    want = assert_block_end_matches_oracle(anchor, target_fn)
    if kind == "never":
        assert want is None


def test_block_search_proves_the_scaled_half_transition_without_sums(
        monkeypatch):
    # the v2a scaled-1/2 stream ends after anchor 2374: the log bound at
    # the exact cap already stays below that anchor's amount
    plan = v2a_block_adversary(build_v2_strategy("scaled", c=rat(1, 2)))
    plan.materialize(4)
    assert plan.anchor == 2374 and not plan.transitioned
    sums = []
    real = HarmonicModel.range_sum
    monkeypatch.setattr(
        HarmonicModel, "range_sum",
        lambda self, a, b: sums.append((a, b)) or real(self, a, b))
    assert len(plan.materialize(5)) == 4
    assert plan.transitioned and plan.covered_bound == 2373
    assert sums == []


def test_v2a_constant_blocks_match_hand_computation():
    plan = v2a_block_adversary(build_v2_strategy("constant1"))
    cycles = plan.materialize(2)
    assert spans(cycles) == [(1, 2), (3, 7)]
    assert harmonic_sum(3, 7) == rat(153, 140)
    assert harmonic_sum(3, 6) < ONE < harmonic_sum(3, 7)
    assert isinstance(plan.claim, AllMembersFail)


def test_v2a_block_prices_exceed_every_member_amount():
    alloc = build_v2_strategy("scaled", c=rat(1, 2))
    plan = v2a_block_adversary(alloc)
    cycles = plan.materialize(4)
    assert spans(cycles) == [(1, 1), (2, 4), (5, 36), (37, 2373)]
    for cycle, entry in zip(cycles, plan.witness_log):
        price = entry["price"]
        top = max(alloc.amount(n) for n in
                  range(cycle.min_member, min(cycle.max_member, 40) + 1))
        assert top <= entry["amount_bound"] < price
    # greedy minimality: one index earlier the block no longer wins
    for entry in plan.witness_log:
        anchor, end = entry["anchor"], entry["end"]
        if end > anchor:
            assert harmonic_sum(anchor, end - 1) <= alloc.max_in_range(
                anchor, end - 1)


def test_v2a_exact_ends_agree_with_scaled_gap():
    alloc = build_v2_strategy("scaled", c=rat(1, 2))
    plan = v2a_block_adversary(alloc)
    ends = [c.max_member for c in plan.materialize(4)]
    anchors = [1] + [e + 1 for e in ends[:-1]]
    assert ends == [scaled_harmonic_gap(a, rat(1, 2)) for a in anchors]


def test_v2a_certified_continuation_for_scaled_amounts():
    alloc = build_v2_strategy("scaled", c=rat(1, 2))
    plan = v2a_block_adversary(alloc)
    blocks = plan.certified_blocks(3)
    assert [b.start_label for b in blocks] == ["2374", "2^24+1", "2^50+1"]
    assert [b.end_exponent for b in blocks] == [24, 50, 102]
    for block in blocks:
        assert block.price_lower > block.amount_upper
    # the certified price bound really is below the true block price:
    # E*ln2_lo - ln_hi(start) understates sum of 1/i over the block
    first = blocks[0]
    assert first.price_lower == 24 * LN2_LO - ln_bounds(2374)[1]
    assert plan.covered_bound == 2373
    with pytest.raises(NotMaterializedError):
        plan.cycle_containing(2374)


def test_v2a_reports_horizon_error_against_harmonic_prefix():
    plan = v2a_block_adversary(build_v2_strategy("harmonic-prefix"))
    with pytest.raises(HorizonExhaustedError):
        plan.materialize(1)


def test_v2b_blocks_and_certified_continuation_for_harmonic_prefix():
    plan = v2b_block_adversary(build_v2_strategy("harmonic-prefix"))
    cycles = plan.materialize(5)
    assert spans(cycles) == [(1, 2), (3, 16), (17, 514)]
    # H(3..16) > H_3 while H(3..15) fails: the anchor cannot pay
    h = HarmonicModel()
    assert harmonic_sum(3, 16) > h.prefix_sum(3) >= harmonic_sum(3, 15)
    blocks = plan.certified_blocks(4)
    assert [b.end_exponent for b in blocks] == [19, 41, 85, 173]
    assert blocks[0].start_index == 515
    assert blocks[0].amount_upper == h.prefix_sum(515)
    assert isinstance(plan.claim, AnchorFails)


def test_v2b_anchor_rule_terminates_where_v2a_cannot():
    hp = build_v2_strategy("harmonic-prefix")
    plan = v2b_block_adversary(hp)
    assert spans(plan.materialize(1)) == [(1, 2)]


def test_v2b_all_zero_allocation_yields_singletons():
    zero = FnAllocation("zero", lambda n: ZERO,
                        total_cert=ExactTotal(ZERO),
                        tail_structure=NonIncreasingBeyond(1, False))
    plan = v2b_block_adversary(zero)
    cycles = plan.materialize(5)
    assert [tuple(c.members) for c in cycles] == [
        (1,), (2,), (3,), (4,), (5,)]


def test_v2b_small_table_allocation_stays_exact_for_many_blocks():
    entries = {1: rat(3, 8), 2: rat(1, 8), 3: rat(1, 4)}
    alloc = TableAllocation(entries, GeometricTail(rat(1, 2), 4),
                            name="small")
    plan = v2b_block_adversary(alloc)
    cycles = plan.materialize(30)
    assert len(cycles) == 30
    for cycle, entry in zip(cycles, plan.witness_log):
        assert alloc.amount(cycle.min_member) < entry["price"]
    assert pairwise_disjoint(plan.cycles)


def test_certified_block_rejects_non_strict_inequality():
    with pytest.raises(PlanViolationError):
        CertifiedBlock(end_exponent=4, price_lower=ONE, amount_upper=ONE,
                       start_index=3)
    with pytest.raises(DomainError):
        CertifiedBlock(end_exponent=4, price_lower=ONE, amount_upper=ZERO)


def test_certified_block_labels_huge_bounds_by_size():
    # the v2b scaled-1/2 stream ends at anchor 12989, whose exact amount is
    # an 18768-bit rational: too long for str(), so it is labelled by size
    plan = v2b_block_adversary(build_v2_strategy("scaled", c=rat(1, 2)))
    block = plan.certified_blocks(1)[0]
    assert block.start_index == 12989
    assert block.describe().endswith(
        "> <18768/18765-bit rational> >= amounts")
    with pytest.raises(PlanViolationError,
                       match="1 must exceed <18768/18765-bit rational>"):
        CertifiedBlock(end_exponent=4, price_lower=ONE,
                       amount_upper=block.amount_upper, start_index=3)


# ---------------------------------------------------------------------------
# certified block ends in closed form against the search they replaced

def plain_least_exponent(bound, ln_start_hi, floor_exp, cap):
    """The least_index search over the block inequality.  It is exact when
    the inequality is monotone in E, which holds for slope <= LN2_LO."""
    def beats(exp):
        return exp * LN2_LO - ln_start_hi > bound(exp)
    return least_index(beats, floor_exp, cap)


def scanned_least_exponent(bound, ln_start_hi, floor_exp, cap):
    """Every E from floor_exp to a small cap, in order."""
    return next((e for e in range(floor_exp, cap + 1)
                 if e * LN2_LO - ln_start_hi > bound(e)), None)


# the fixed-price allocations, for the amount bounds they declare
BUILTIN_ALLOCS = [
    build_v2_strategy(kind, **params) for kind, params in [
        ("constant1", {}), ("harmonic-prefix", {}),
        ("shifted-harmonic", {"k": 3}), ("shifted-harmonic", {"k": 40}),
        ("log-shift", {"K": rat(7, 2)}), ("scaled", {"c": 0}),
        ("scaled", {"c": rat(1, 2)}), ("scaled", {"c": rat(99, 100)})]]
# ln(s) upper bounds as the first certified block and later ones use them
START_BOUNDS = ([ZERO] + [ln_bounds(n)[1] for n in (2, 155, 515, 12989)]
                + [e * LN2_HI + rat(1, 1 << min(e, 64)) for e in (12, 173)])


@pytest.mark.parametrize("alloc", BUILTIN_ALLOCS,
                         ids=[alloc.name for alloc in BUILTIN_ALLOCS])
def test_certified_exponent_matches_the_search_for_builtin_bounds(alloc):
    bound = alloc.amount_upper_pow2
    for ln_start_hi in START_BOUNDS:
        for floor_exp in (2, 10, 19, 174, 400):
            for cap in (_EXPONENT_CAP, 300, 20):
                assert _least_certified_exponent(
                    bound, ln_start_hi, floor_exp, cap) == (
                    plain_least_exponent(bound, ln_start_hi, floor_exp, cap))


def test_certified_exponent_matches_the_search_for_random_bounds():
    rng = random.Random(29)
    slopes = [ZERO, rat(1, 3), LN2_LO - rat(1, 10 ** 6), LN2_LO, LN2_HI,
              LN2_LO + rat(1, 50), rat(-1, 4)]
    for _ in range(120):
        bound = AffineBound(rat(rng.randint(-90, 90), rng.randint(1, 9)),
                            rng.choice(slopes) + rat(rng.randint(0, 3), 97))
        for ln_start_hi in (ZERO, rat(rng.randint(0, 90), rng.randint(1, 7)),
                            ln_bounds(rng.randint(2, 10 ** 6))[1]):
            for floor_exp in (2, rng.randint(2, 100)):
                got = _least_certified_exponent(bound, ln_start_hi,
                                                floor_exp, floor_exp + 150)
                assert got == scanned_least_exponent(
                    bound, ln_start_hi, floor_exp, floor_exp + 150)
                if bound.slope <= LN2_LO:
                    for cap in (_EXPONENT_CAP, floor_exp + 40):
                        assert _least_certified_exponent(
                            bound, ln_start_hi, floor_exp, cap) == (
                            plain_least_exponent(bound, ln_start_hi,
                                                 floor_exp, cap))


@pytest.mark.parametrize("bound, ln_start_hi, floor_exp, cap, want", [
    # LN2_LO - slope above 0: E > 10 / LN2_LO = 14.4...
    (AffineBound(rat(10), ZERO), ZERO, 2, _EXPONENT_CAP, 15),
    (AffineBound(rat(-10), ZERO), ONE, 2, _EXPONENT_CAP, 2),
    (AffineBound(rat(10), ZERO), ZERO, 2, 14, None),
    # at 0: only a negative ln_start_hi + intercept leaves any E
    (AffineBound(rat(-3), LN2_LO), ONE, 2, _EXPONENT_CAP, 2),
    (AffineBound(rat(-1), LN2_LO), ONE, 2, _EXPONENT_CAP, None),
    (AffineBound(rat(-3), LN2_LO), rat(5), 2, 7, None),
    # below 0: E < (s + a) / (LN2_LO - slope) = 48.5, a window past its end
    (AffineBound(rat(-50), LN2_LO + ONE), rat(3, 2), 2, _EXPONENT_CAP, 3),
    (AffineBound(rat(-50), LN2_LO + ONE), rat(3, 2), 48, _EXPONENT_CAP, 48),
    (AffineBound(rat(-50), LN2_LO + ONE), rat(3, 2), 49, _EXPONENT_CAP,
     None),
    (AffineBound(rat(-1), LN2_HI), ONE, 2, _EXPONENT_CAP, None),
])
def test_certified_exponent_cases(bound, ln_start_hi, floor_exp, cap, want):
    assert _least_certified_exponent(bound, ln_start_hi, floor_exp, cap) == (
        want)
    assert plain_least_exponent(bound, ln_start_hi, floor_exp, cap) == want


def test_certified_block_past_the_exponent_cap_keeps_its_error():
    plan = v2b_block_adversary(build_v2_strategy("constant1"),
                               exact_end_cap=300, exponent_cap=9)
    assert plan.certified_blocks(1)[0].end_exponent == 9
    with pytest.raises(HorizonExhaustedError,
                       match="no power-of-two block end is certifiable"):
        plan.certified_blocks(2)


# ---------------------------------------------------------------------------
# scaled harmonic gaps

def test_scaled_gap_frozen_values():
    assert scaled_harmonic_gap(2, rat(1, 2)) == 4
    assert scaled_harmonic_gap(1, rat(1, 2)) == 1
    assert scaled_harmonic_gap(1, rat(99, 100)) == 1
    assert scaled_harmonic_gap(5, rat(1, 2)) == 36


def test_scaled_gap_rejects_bad_scale():
    with pytest.raises(DomainError):
        scaled_harmonic_gap(2, ONE)
    with pytest.raises(DomainError):
        scaled_harmonic_gap(2, ZERO)
    with pytest.raises(DomainError):
        scaled_harmonic_gap(0, rat(1, 2))


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_scaled_gap_minimality_property(k, tenths):
    c = rat(tenths, 10)
    n = scaled_harmonic_gap(k, c)
    h = HarmonicModel()
    assert n >= k
    assert harmonic_sum(k, n) > c * h.prefix_sum(n)
    if n > k:
        assert harmonic_sum(k, n - 1) <= c * h.prefix_sum(n - 1)


def test_scaled_gap_monotone_in_scale():
    previous = 0
    for tenths in range(1, 9):
        n = scaled_harmonic_gap(3, rat(tenths, 10))
        assert n >= previous
        previous = n


# ---------------------------------------------------------------------------
# stream-level invariants

@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_all_streams_validate_on_prefixes(count):
    plans = [
        two_cycle_adversary(GEO, pow2_alloc()),
        v1d_cycle_chooser(GEO),
        v2a_block_adversary(build_v2_strategy("constant1")),
        v2b_block_adversary(build_v2_strategy("constant1")),
    ]
    for plan in plans:
        cycles = plan.materialize(count)
        assert len(cycles) == count
        assert pairwise_disjoint(plan.cycles)


@pytest.mark.parametrize("build", [
    lambda: two_cycle_adversary(GEO, pow2_alloc()),
    lambda: good_index_adversary(INV, build_baseline_geometric()),
    lambda: v1b_ceiling_adversary(INV, build_baseline_geometric()),
    lambda: v1d_cycle_chooser(GEO),
    lambda: v2b_block_adversary(build_v2_strategy("constant1")),
], ids=["two-cycle", "good-index", "v1b-ceiling", "v1d-chooser",
        "v2b-blocks"])
def test_dropped_guard_plan_is_freed_by_reference_counting(build):
    # a stream that held its plan strongly would keep the plan and its
    # witness log alive until the cyclic collector happened to run
    plan = build()
    plan.materialize(3)
    assert plan.witness_log
    ref = weakref.ref(plan)
    gc.disable()
    try:
        del plan
        assert ref() is None
    finally:
        gc.enable()


def test_a_guard_stream_that_raised_stays_failed_in_simulate():
    # a second simulate used to score all 12 prisoners as fixed points,
    # under the guard's claim
    base = build_baseline_geometric()
    plan = good_index_adversary(INV, base, search_horizon=3)
    for _ in range(2):
        with pytest.raises(HorizonExhaustedError, match="anchor amount"):
            simulate("V1a", INV, base, plan, 12)


def test_certified_blocks_never_continue_an_exact_stream_that_raised():
    plan = v2b_block_adversary(build_v2_strategy("constant1"),
                               exact_end_cap=1)
    for _ in range(2):
        with pytest.raises(HorizonExhaustedError,
                           match="no block ending by 1"):
            plan.certified_blocks(2)
        assert not plan.transitioned and plan.covered_bound is None


# every guard kind, with each way its stream can stop or skip a box
ZERO_PRICES = CustomModel({2: rat(1, 2)}, GeometricTail(rat(1, 2), 4),
                          name="zero-prices")


@pytest.mark.parametrize("build", [
    lambda: good_index_adversary(INV, build_baseline_geometric()),
    lambda: v1b_ceiling_adversary(INV, build_baseline_geometric()),
    lambda: v1b_ceiling_adversary(INV, build_baseline_geometric(),
                                  leader_cap=50),
    lambda: v1b_ceiling_adversary(ZERO_PRICES, build_baseline_geometric()),
    lambda: two_cycle_adversary(ZERO_PRICES, build_baseline_geometric()),
    lambda: v1d_cycle_chooser(INV),
    lambda: v1d_cycle_chooser(INV, leader_cap=50),
    lambda: v2a_block_adversary(build_v2_strategy("scaled", c=rat(1, 2))),
    lambda: v2a_block_adversary(build_v2_strategy("constant1"),
                                exact_end_cap=2000),
    lambda: v2b_block_adversary(build_v2_strategy("harmonic-prefix")),
], ids=["good-index", "v1b-ceiling", "v1b-ceiling-cap", "v1b-free-boxes",
        "two-cycle-free-boxes", "v1d-chooser", "v1d-chooser-cap",
        "v2a-scaled", "v2a-constant1", "v2b-harmonic-prefix"])
def test_witness_log_numbers_each_pulled_cycle_then_at_most_one_note(build):
    plan = build()
    for count in (1, 2, 3, 5, 8, 12):
        plan.materialize(count)
        log = plan.witness_log
        numbered = [entry["cycle"] for entry in log if "cycle" in entry]
        assert numbered == list(range(1, len(plan.cycles) + 1))
        assert all("cycle" in entry for entry in log[:-1])
        assert ("cycle" not in log[-1]) == (plan.covered_bound is not None)
        if plan.covered_bound is not None:
            assert plan.covered_bound == plan.pulled_bound
