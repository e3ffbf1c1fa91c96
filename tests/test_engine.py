"""Walk execution, window scoring, release verdicts, and the registry."""
import ast
import dataclasses
import decimal
import hashlib
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from prisoners import adversaries, registry
from prisoners.adversaries import good_index_adversary
from prisoners.cli import main
from prisoners.engine import (
    NO_CLAIM, VARIANTS, AboveThreshold, AllMembersFail, AnchorFails,
    CycleMembers, FailureInEveryCycle, LastMember, LeastMember,
    MaxPriceMember, NoSuccessAfterFirst, PrisonerOutcome, SimulationReport,
    _score_cycle, _walk_open_cycle, evaluate_release, get_variant,
    run_prisoner, simulate,
)
from prisoners.errors import DomainError, UsageError
from prisoners.numeric import (
    ONE, ZERO, Cmp, RatInterval, compare_certified, rat, rat_str,
)
from prisoners.permutations import (
    Cycle, CyclePlan, random_bounded_diameter_plan, random_plan,
)
from prisoners.registry import THEOREM_KEYS, verify_theorem
from prisoners.sequences import (
    BracketedTotal, CustomModel, FnAllocation, PermutedModel, PriceModel, Relabeling,
    ScaledModel, TableAllocation, ZeroTail, builtin_model,
)
from prisoners.strategies import (
    build_baseline_geometric, build_bounded_diameter_strategy,
    build_bounded_length_strategy, build_v2_strategy,
)

GEO = builtin_model("geometric", ratio=rat(1, 2))
HARMONIC = builtin_model("harmonic")


def plan_of(*cycles) -> CyclePlan:
    return CyclePlan([Cycle(c) for c in cycles], name="fixed")


def table(entries, name="unit") -> TableAllocation:
    bound = max(entries) + 1 if entries else 1
    return TableAllocation({k: rat(v) for k, v in entries.items()},
                           ZeroTail(bound), name=name)


# ---------------------------------------------------------------------------
# single walks

def test_walk_covers_cycle_within_budget():
    # boxes 3, 5, 4 cost 1/8 + 1/32 + 1/16 = 7/32
    plan = plan_of((3, 5, 4))
    out = run_prisoner(3, rat(1, 4), plan, GEO)
    assert out.success and out.reason is None
    assert out.opened == (3, 5, 4)
    assert out.spent == rat(7, 32)


def test_walk_stops_before_an_unaffordable_first_box():
    plan = plan_of((3, 5, 4))
    out = run_prisoner(3, rat(1, 10), plan, GEO)
    assert not out.success and out.reason == "BudgetExhausted"
    assert out.opened == () and out.spent == ZERO


def test_walk_spends_midway_then_dies():
    # 3 and 5 are affordable, the final box 4 is not
    plan = plan_of((3, 5, 4))
    out = run_prisoner(3, rat(3, 16), plan, GEO)
    assert not out.success
    assert out.opened == (3, 5) and out.spent == rat(5, 32)


def test_exact_budget_opens_the_box():
    out = run_prisoner(7, GEO.term(7), plan_of(), GEO)
    assert out.success and out.spent == rat(1, 128) and out.opened == (7,)


def test_each_start_point_walks_its_own_rotation():
    plan = plan_of((3, 5, 4))
    assert run_prisoner(5, ONE, plan, GEO).opened == (5, 4, 3)
    assert run_prisoner(4, ONE, plan, GEO).opened == (4, 3, 5)


def test_negative_budget_is_rejected():
    with pytest.raises(DomainError):
        run_prisoner(1, rat(-1, 2), plan_of(), GEO)


@settings(max_examples=200)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=6,
                unique=True).map(tuple),
       st.integers(0, 400))
def test_closed_box_success_iff_budget_covers_cycle_price(members, num):
    budget = rat(num, 256)
    cycle = Cycle(members)
    plan = CyclePlan([cycle], name="one")
    price = cycle.price(GEO)
    for n in members:
        out = run_prisoner(n, budget, plan, GEO)
        assert out.success == (budget >= price)
        if out.success:
            assert out.spent == price and set(out.opened) == set(members)
        else:
            assert out.spent <= budget and len(out.opened) < len(members)


def test_brute_force_walk_agreement():
    rng = random.Random(4)
    for _ in range(2000):
        size = rng.randrange(1, 7)
        members = tuple(rng.sample(range(1, 40), size))
        cycle = Cycle(members)
        budget = rat(rng.randrange(0, 300), 256)
        out = run_prisoner(members[0], budget, CyclePlan([cycle]), GEO)
        assert out.success == (budget >= cycle.price(GEO))


# ---------------------------------------------------------------------------
# per-cycle scoring against the walk

# zero prices at every odd index below 13 and from 13 on
ZERO_PRICES = CustomModel({2 * k: rat(1, 2 ** k) for k in range(1, 7)},
                          ZeroTail(13), name="zero-prices")
KERNEL_MODELS = [HARMONIC, GEO, builtin_model("inverse-square"), ZERO_PRICES,
                 builtin_model("geometric", ratio=rat(2, 3))]
NANO = rat(1, 10 ** 9)


def _amount(kind: tuple, paid: list):
    """The amount of one drawn kind against a walk's payments paid[j]."""
    choice, j = kind
    total = paid[-1]
    value = paid[j % len(paid)]
    return [ZERO, value, value + NANO, max(ZERO, value - NANO),
            total + NANO, total][choice]


def _explicit_cycles():
    return st.lists(st.integers(1, 200), min_size=1, max_size=8,
                    unique=True).map(lambda m: Cycle(m))


def _range_cycles():
    return st.tuples(st.integers(1, 400), st.integers(64, 90)).map(
        lambda sl: Cycle.of_range(sl[0], sl[0] + sl[1] - 1))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_MODELS),
       st.one_of(_explicit_cycles(), _range_cycles()),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 200)),
                min_size=90, max_size=90))
def test_cycle_scoring_matches_the_walk_exactly(model, cycle, kinds):
    members = cycle.rotation_from(cycle.min_member)
    amounts = {}
    for i, n in enumerate(members):
        rotation = members[i:] + members[:i]
        paid = [ZERO]
        for box in rotation:
            paid.append(paid[-1] + model.term(box))
        amounts[n] = _amount(kinds[i], paid)
    alloc = FnAllocation("drawn", amounts.__getitem__)
    plan = CyclePlan([cycle], name="one")
    outcomes = {}
    _score_cycle(members, alloc, model, outcomes)
    assert sorted(outcomes) == sorted(members)
    for n in members:
        got, want = outcomes[n], run_prisoner(n, amounts[n], plan, model)
        assert got.prisoner == want.prisoner == n
        assert got.opened == want.opened
        assert got.spent == want.spent
        assert got.spent.denominator == want.spent.denominator
        assert type(got.spent) is type(want.spent)
        assert got.success == want.success
        assert got.reason == want.reason


# prices 1, 1/2, 1/3 repeating: every cycle of three or more members ties
TIED_PRICES = CustomModel({i: rat(1, 1 + i % 3) for i in range(1, 491)},
                          ZeroTail(491), name="tied-prices")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_MODELS + [TIED_PRICES]),
       st.one_of(_explicit_cycles(), _range_cycles()),
       st.booleans(),
       st.lists(st.integers(0, 2), min_size=90, max_size=90))
def test_cycle_scoring_returns_the_plain_top_priced_members(model, cycle,
                                                           broke, choices):
    # broke: every pocket is empty, so against positive prices no member
    # pays its first box and the kernel never builds its prefix sums
    members = cycle.rotation_from(cycle.min_member)
    prices = [model.term(m) for m in members]
    total = sum(prices, ZERO)
    amounts = {n: ZERO if broke else [ZERO, price, total][choice]
               for n, price, choice in zip(members, prices, choices)}
    outcomes = {}
    top = _score_cycle(members, FnAllocation("drawn", amounts.__getitem__),
                       model, outcomes)
    assert list(top) == [m for m in members
                         if model.term(m) == max(prices)]
    if broke and min(prices) > ZERO:
        assert not any(o.opened for o in outcomes.values())


def test_cycle_scoring_stops_exactly_at_a_prefix_boundary():
    # boxes 3, 5, 4 cost 1/8, 1/32, 1/16 from prisoner 3
    plan = plan_of((3, 5, 4))
    members = (3, 5, 4)
    amounts = {3: rat(5, 32), 5: rat(3, 32), 4: rat(7, 32) - NANO}
    outcomes = {}
    _score_cycle(members, FnAllocation("edges", amounts.__getitem__), GEO,
                 outcomes)
    assert outcomes[3].opened == (3, 5) and outcomes[3].spent == rat(5, 32)
    assert outcomes[5].opened == (5, 4) and outcomes[5].spent == rat(3, 32)
    assert outcomes[4].opened == (4, 3) and outcomes[4].spent == rat(3, 16)
    for n in members:
        assert outcomes[n] == run_prisoner(n, amounts[n], plan, GEO)


def test_cycle_scoring_rejects_negative_amounts():
    # FnAllocation refuses negative amounts itself, so bypass it
    alloc = SimpleNamespace(amount=lambda n: rat(-1, 2))
    with pytest.raises(DomainError):
        _score_cycle((1, 2), alloc, GEO, {})
    with pytest.raises(DomainError, match="amounts cannot be negative"):
        _walk_open_cycle((1, 2), [2, 1], alloc, GEO, {})


class SignedPrices(PriceModel):
    """Prices (-1)**n / n: the open-box walk sets no sign requirement."""

    name = "signed-prices"

    def term(self, n):
        return rat((-1) ** n, n)


def _open_box_plan(rnd, sizes, gaps, with_range):
    """Explicit cycles of the drawn sizes over a shuffle of their indices,
    gaps indices left as fixed points, and maybe a range cycle after."""
    count = sum(sizes) + gaps
    pool = list(range(1, count + 1))
    rnd.shuffle(pool)
    cycles, i = [], 0
    for size in sizes:
        cycles.append(Cycle(pool[i:i + size]))
        i += size
    if with_range:
        cycles.append(Cycle.of_range(count + 1, count + rnd.randint(64, 70)))
    return CyclePlan(cycles, name="drawn")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_MODELS + [TIED_PRICES, SignedPrices()]),
       st.randoms(), st.lists(st.integers(1, 6), min_size=1, max_size=12),
       st.integers(0, 3), st.booleans(), st.booleans(), st.booleans())
def test_open_box_scoring_matches_the_shared_walk_exactly(
        model, rnd, sizes, gaps, with_range, shuffled, cut):
    plan = _open_box_plan(rnd, sizes, gaps, with_range)
    top = max(c.max_member for c in plan.cycles)
    horizon = top if not cut else rnd.randint(1, top)
    scored = [n for n in range(1, horizon + 1)
              if plan.cycle_containing(n).max_member <= horizon]
    order = list(scored)
    if shuffled:
        rnd.shuffle(order)
    # walk the entry order with one shared open set; each amount sits at or
    # next to a prefix sum of the boxes still closed when its turn comes
    open_boxes, amounts, want = set(), {}, {}
    for n in order:
        paid = [ZERO]
        for box in plan.cycle_containing(n).rotation_from(n):
            if box not in open_boxes:
                paid.append(paid[-1] + model.term(box))
        amounts[n] = max(ZERO, _amount((rnd.randrange(6),
                                        rnd.randrange(200)), paid))
        want[n] = run_prisoner(n, amounts[n], plan, model, open_boxes)
    alloc = FnAllocation("drawn", amounts.__getitem__)
    report = simulate("V1c", model, alloc, plan, horizon,
                      entry_order=order if shuffled else None)
    assert [o.prisoner for o in report.outcomes] == scored
    for got in report.outcomes:
        expected = want[got.prisoner]
        assert got.opened == expected.opened
        assert got.spent == expected.spent
        assert type(got.spent) is type(expected.spent)
        assert got.spent.denominator == expected.spent.denominator
        assert got.success == expected.success
        assert got.reason == expected.reason
        assert got == expected
    assert report.top_priced == tuple(
        tuple(m for m in members
              if model.term(m) == max(model.term(b) for b in members))
        for members in report.cycles)


# ---------------------------------------------------------------------------
# variants and guards

def test_variant_table():
    assert set(VARIANTS) == {"V1a", "V1b", "V1c", "V1d", "V2a", "V2b"}
    assert get_variant("V1c").info == "OpenBoxesPersist"
    assert get_variant("V1d").info == "CycleSetsDisclosed"
    assert get_variant("V2b").prices == "FixedHarmonic"
    assert get_variant("V1a").release == "InfinitelyMany"
    assert get_variant(VARIANTS["V2a"]) is VARIANTS["V2a"]


def test_unknown_variant_is_a_usage_error():
    with pytest.raises(UsageError):
        get_variant("V3")


def test_entry_order_is_only_for_the_open_box_variant():
    alloc = table({1: "1/2"})
    with pytest.raises(UsageError):
        simulate("V1a", GEO, alloc, plan_of((1, 2)), 2, entry_order=[1, 2])


def test_fixed_price_variant_requires_harmonic_prices():
    alloc = table({1: "1/2"})
    with pytest.raises(UsageError):
        simulate("V2a", GEO, alloc, plan_of(), 4)


def test_free_variant_rejects_unbounded_totals():
    from prisoners.strategies import build_v2_strategy
    with pytest.raises(UsageError):
        simulate("V1a", GEO, build_v2_strategy("constant1"), plan_of(), 4)
    with pytest.raises(UsageError):
        simulate("V1b", GEO, table({1: "3/4", 2: "3/4"}), plan_of(), 4)


def test_v1_lets_through_a_bracketed_total_it_cannot_separate_from_one():
    # brackets [1 - w, 1 + w] that never refine: undecided against 1
    straddle = BracketedTotal(lambda w: RatInterval(ONE - w, ONE + w))
    assert compare_certified(straddle.interval(rat(1, 100)), ONE) is \
        Cmp.UNDECIDED
    alloc = FnAllocation("straddle", lambda n: rat(1, 2 ** n),
                         total_cert=straddle)
    report = simulate("V1a", GEO, alloc, plan_of((1, 2)), 2)
    assert [o.prisoner for o in report.outcomes] == [1, 2]
    above = FnAllocation("above", lambda n: rat(1, 2 ** n),
                         total_cert=BracketedTotal(
                             lambda w: RatInterval(2 - w, 2 + w)))
    with pytest.raises(UsageError, match="certified above 1"):
        simulate("V1a", GEO, above, plan_of((1, 2)), 2)


def test_horizon_must_be_positive():
    with pytest.raises(DomainError):
        simulate("V1a", GEO, table({1: "1/2"}), plan_of(), 0)


# ---------------------------------------------------------------------------
# window scoring

def test_baseline_on_a_three_cycle_window():
    base = build_baseline_geometric()
    report = simulate("V1a", GEO, base, plan_of((1,), (2, 3), (4, 5, 6)), 6)
    winners = {o.prisoner for o in report.outcomes if o.success}
    assert winners >= {2, 4}
    assert not next(o for o in report.outcomes if o.prisoner == 1).success
    assert report.verdict == "PatternConfirmed"
    assert report.witnesses == ()


def test_cycles_crossing_the_window_edge_are_not_scored():
    report = simulate("V1a", GEO, table({1: "1/2", 2: "1/4"}),
                      plan_of((1, 2), (3, 4, 5)), 4)
    assert report.not_simulated == (3, 4)
    assert [o.prisoner for o in report.outcomes] == [1, 2]


def test_unlisted_prisoners_are_scored_as_fixed_points():
    report = simulate("V1a", GEO, table({3: "1/8"}), plan_of((1, 2)), 3)
    three = next(o for o in report.outcomes if o.prisoner == 3)
    assert three.success and three.opened == (3,)
    assert (3,) in report.cycles


def test_lazy_plans_are_pulled_just_far_enough():
    def blocks():
        start = 1
        width = 2
        while True:
            yield Cycle.of_range(start, start + width - 1)
            start += width
            width *= 2

    plan = CyclePlan.lazy(blocks(), name="doubling")
    report = simulate("V1a", GEO, table({1: "3/4"}), plan, 10)
    assert len(plan.cycles) <= 8
    assert set(report.not_simulated) == {7, 8, 9, 10}


def test_reports_serialize_deterministically():
    base = build_baseline_geometric()
    plan = plan_of((1,), (2, 3), (4, 5, 6))
    a = simulate("V1a", GEO, base, plan, 6).to_json()
    b = simulate("V1a", GEO, base, plan_of((1,), (2, 3), (4, 5, 6)), 6)
    assert a == b.to_json()
    payload = json.loads(a)
    assert set(payload) == {"variant", "horizon", "outcomes", "verdict",
                            "witnesses"}
    for entry in payload["outcomes"]:
        assert set(entry) == {"prisoner", "spent", "success", "opened"}
        assert re.fullmatch(r"-?\d+/\d+", entry["spent"])


def test_guard_claims_outrank_builder_descriptors():
    invsq = builtin_model("inverse-square")
    base = build_baseline_geometric()
    plan = good_index_adversary(invsq, base)
    horizon = max(c.max_member for c in plan.materialize(5))
    report = simulate("V1a", invsq, base, plan, horizon)
    assert isinstance(report.claim, NoSuccessAfterFirst)
    assert report.verdict == "CounterexampleFound"


def test_no_claim_means_no_verdict():
    report = simulate("V1a", GEO, table({1: "1/2"}), plan_of((1, 2)), 2)
    assert report.verdict == "Inconclusive" and report.witnesses == ()
    assert report.claim is NO_CLAIM


def test_claims_are_frozen_values():
    assert LeastMember(2) == LeastMember(2) != LastMember(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        LeastMember(2).cutoff = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        AnchorFails("unit").adversary = "other"


def _plain_json(report) -> str:
    """The report text as json.dumps writes it from the outcome dicts."""
    return json.dumps({
        "variant": report.variant,
        "horizon": report.horizon,
        "outcomes": [o.to_dict() for o in report.outcomes],
        "verdict": report.verdict,
        "witnesses": list(report.witnesses),
    })


# one spend object shared by several outcomes, as a cycle's successes share
# their whole-cycle spend
SHARED_SPEND = rat(7, 64)
SPENDS = st.one_of(
    st.just(ZERO), st.just(SHARED_SPEND),
    st.builds(rat, st.integers(0, 2 ** 300), st.integers(1, 2 ** 300)))
OPENED = st.one_of(st.just(()), st.just(tuple(range(1, 201))),
                   st.lists(st.integers(1, 10 ** 6), max_size=6).map(tuple))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.builds(PrisonerOutcome, st.integers(1, 10 ** 6), OPENED,
                          SPENDS, st.booleans()), max_size=12),
       st.sampled_from(["PatternConfirmed", "CounterexampleFound",
                        "Inconclusive"]),
       st.lists(st.integers(1, 10 ** 6), max_size=4).map(tuple),
       st.sampled_from(sorted(VARIANTS)), st.integers(1, 10 ** 9))
def test_report_writer_matches_json_dumps_of_the_outcome_dicts(
        outcomes, verdict, witnesses, variant, horizon):
    report = SimulationReport(variant, horizon, tuple(outcomes), 0, verdict,
                              witnesses, (), (), ())
    assert report.to_json() == _plain_json(report)


def _reordered(rnd, members: tuple) -> tuple:
    """The cycle's members as a hand-built report might list them: from
    another start, backwards, or shuffled."""
    kind = rnd.randrange(3)
    if kind == 0:
        i = rnd.randrange(len(members))
        return members[i:] + members[:i]
    if kind == 1:
        return members[::-1]
    return tuple(rnd.sample(members, len(members)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VARIANTS)), st.sampled_from(KERNEL_MODELS),
       st.lists(st.one_of(st.integers(1, 30), st.integers(1, 320)),
                min_size=1, max_size=4),
       st.randoms(use_true_random=False), st.booleans())
def test_report_writer_matches_json_dumps_on_simulated_reports(
        variant, model, sizes, rnd, cut):
    # amounts of nothing, of the whole cycle's price, of more, or of a
    # random share of it, so that walks open nothing, full rotations and
    # partial runs, many of them past the end of the member tuple
    if variant.startswith("V2"):
        model = HARMONIC
    labels = list(range(1, sum(sizes) + 1))
    rnd.shuffle(labels)
    cycles, at = [], 0
    for size in sizes:
        cycles.append(Cycle(labels[at:at + size]))
        at += size
    amounts = {}
    for cycle in cycles:
        total = sum(map(model.term, cycle.members), ZERO)
        for n in cycle.members:
            amounts[n] = [ZERO, total, total + ONE,
                          total * rat(rnd.randrange(1001), 1000)][
                              rnd.randrange(4)]
    horizon = len(labels) if not cut else rnd.randint(1, len(labels))
    report = simulate(variant, model,
                      FnAllocation("drawn", amounts.__getitem__),
                      CyclePlan(cycles, name="drawn"), horizon)
    assert report.to_json() == _plain_json(report)
    if variant != "V1c":
        # what the writer's cut relies on: under closed boxes each walk
        # opens the cyclic run of its cycle from the prisoner's own box
        where = {n: (members, i) for members in report.cycles
                 for i, n in enumerate(members)}
        for o in report.outcomes:
            members, i = where[o.prisoner]
            assert o.opened == (members * 2)[i:i + len(o.opened)]
    hand_built = dataclasses.replace(report, cycles=tuple(
        _reordered(rnd, members) for members in report.cycles))
    assert hand_built.to_json() == _plain_json(hand_built)


def _digit_limit() -> int:
    # interpreters before 3.10.7 have no digit limit and no getter
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_report_writer_renders_spends_past_the_digit_limit():
    limit = _digit_limit()
    num = random.Random(10).getrandbits(20000) | 1 << 19999
    spent = Fraction(num, 1 << 20001)
    report = SimulationReport("V1a", 3, (
        PrisonerOutcome(1, (1, 2), spent, False, "BudgetExhausted"),
        PrisonerOutcome(2, (2,), spent, False, "BudgetExhausted")),
        0, "Inconclusive", (), (), (), ())
    payload = json.loads(report.to_json())
    want = f"{decimal.Decimal(num)}/{decimal.Decimal(1 << 20001)}"
    assert [o["spent"] for o in payload["outcomes"]] == [want, want]
    assert _digit_limit() == limit


# ---------------------------------------------------------------------------
# open boxes

def test_open_boxes_make_the_second_visit_free():
    alloc = table({2: "0", 3: "3/8"})
    report = simulate("V1c", GEO, alloc, plan_of((2, 3)), 3,
                      entry_order=[3, 2, 1])
    by = {o.prisoner: o for o in report.outcomes}
    assert by[3].success and by[3].opened == (3, 2)
    assert by[2].success and by[2].spent == ZERO and by[2].opened == ()


def test_failed_walks_still_leave_boxes_open():
    # 2 affords only its own box; that box is exactly where label 3 sits
    alloc = table({2: "1/4", 3: "0"})
    report = simulate("V1c", GEO, alloc, plan_of((2, 3)), 3)
    by = {o.prisoner: o for o in report.outcomes}
    assert not by[2].success and by[2].opened == (2,)
    assert by[3].success and by[3].spent == ZERO


def test_entry_order_must_cover_exactly_the_scored_prisoners():
    alloc = table({1: "1/2"})
    with pytest.raises(UsageError):
        simulate("V1c", GEO, alloc, plan_of((1, 2)), 2, entry_order=[1, 1])
    with pytest.raises(UsageError):
        simulate("V1c", GEO, alloc, plan_of((1, 2)), 2, entry_order=[1, 2, 3])


@pytest.mark.parametrize("order", [[1.5, 2], ["1", 2], [rat(1), 2]])
def test_entry_orders_of_non_indices_are_usage_errors(order):
    # 1.5 must not be read as prisoner 1
    alloc = table({1: "1/2"})
    with pytest.raises(UsageError, match="entry order"):
        simulate("V1c", GEO, alloc, plan_of((1, 2)), 2, entry_order=order)


def test_shared_boxes_never_hurt():
    alloc, _ = build_bounded_length_strategy(GEO, 3)
    for seed in range(20):
        plan = random_plan(30, 3, seed)
        closed = simulate("V1b", GEO, alloc, plan, 30)
        shared = simulate("V1c", GEO, alloc, random_plan(30, 3, seed), 30)
        closed_winners = {o.prisoner for o in closed.outcomes if o.success}
        shared_winners = {o.prisoner for o in shared.outcomes if o.success}
        assert closed_winners <= shared_winners


# ---------------------------------------------------------------------------
# release evaluation

def demo_report():
    # cycle prices: (1) 1/2, (2 3) 3/8, (4 5 6) 7/64
    alloc = table({2: "3/8", 4: "7/64", 5: "7/64"})
    return simulate("V1a", GEO, alloc, plan_of((1,), (2, 3), (4, 5, 6)), 6)


def test_least_member_scope_under_both_release_rules():
    report = demo_report()
    claim = LeastMember(2)
    assert evaluate_release("V1a", report, claim).verdict == \
        "PatternConfirmed"
    report_b = simulate("V1b", GEO, table({2: "3/8", 4: "7/64", 5: "7/64"}),
                        plan_of((1,), (2, 3), (4, 5, 6)), 6)
    verdict = evaluate_release("V1b", report_b, claim)
    assert verdict.verdict == "CounterexampleFound"
    assert verdict.witnesses == (3, 6)


def test_cycle_members_scope_counts_every_member():
    verdict = evaluate_release("V1a", demo_report(),
                               CycleMembers(4))
    assert verdict.verdict == "CounterexampleFound"
    assert verdict.witnesses == (6,)


def test_last_member_scope_claims_the_largest_label():
    # claimed: 3 and 6; both walk on empty pockets
    verdict = evaluate_release("V1a", demo_report(),
                               LastMember(2))
    assert verdict.verdict == "CounterexampleFound"
    assert verdict.witnesses == (3, 6)


def test_max_price_scope_claims_the_priciest_member():
    verdict = evaluate_release("V1a", demo_report(),
                               MaxPriceMember(2))
    assert verdict.verdict == "PatternConfirmed"


def test_threshold_scope_reads_labels_through_the_relabeling():
    claim = AboveThreshold(3, Relabeling.identity())
    report_b = simulate("V1b", GEO, table({2: "3/8", 4: "7/64", 5: "7/64"}),
                        plan_of((1,), (2, 3), (4, 5, 6)), 6)
    assert evaluate_release("V1b", report_b, claim).verdict == \
        "CounterexampleFound"
    moved = AboveThreshold(3, Relabeling({6: 3}))
    verdict = evaluate_release("V1a", demo_report(), moved)
    assert verdict.witnesses == (3, 6)


def test_scopeless_claims_decide_nothing():
    report = demo_report()
    assert evaluate_release("V1a", report, NO_CLAIM).verdict == \
        "Inconclusive"
    report_b = simulate("V1b", GEO, table({}), plan_of((1,), (2, 3)), 3)
    assert report_b.success_count == 0
    assert evaluate_release("V1b", report_b, NO_CLAIM).verdict == \
        "Inconclusive"


def test_reports_cannot_be_judged_under_another_variant():
    with pytest.raises(UsageError):
        evaluate_release("V2a", demo_report(), NO_CLAIM)


def test_empty_windows_are_inconclusive():
    report = simulate("V1a", GEO, table({1: "1/2"}), plan_of((1, 2)), 1)
    assert report.outcomes == () and report.verdict == "Inconclusive"
    claim = AllMembersFail("unit")
    assert evaluate_release("V1a", report, claim).verdict == "Inconclusive"
    assert json.loads(report.to_json())["outcomes"] == []


def guard_report(alloc_entries, variant="V1a"):
    return simulate(variant, GEO, table(alloc_entries),
                    plan_of((1,), (2, 3), (4, 5, 6)), 6)


def test_no_success_after_first_guard_claim():
    report = guard_report({1: "1/2"})
    claim = NoSuccessAfterFirst("unit")
    verdict = evaluate_release("V1a", report, claim)
    assert verdict.verdict == "CounterexampleFound"
    assert verdict.witnesses == (2, 3, 4, 5, 6)
    funded = guard_report({1: "1/2", 2: "3/8"})
    assert evaluate_release("V1a", funded, claim).verdict == "Inconclusive"


def test_failure_in_every_cycle_skips_free_singletons():
    claim = FailureInEveryCycle("unit")
    verdict = evaluate_release("V1a", guard_report({}), claim)
    assert verdict.verdict == "CounterexampleFound"
    assert verdict.witnesses == (2, 3, 4, 5, 6)
    # the broke singleton 1 does not rescue the claim once (2 3) is fed
    fed = simulate("V1a", GEO, table({2: "3/8", 3: "3/8"}),
                   plan_of((2, 3)), 3)
    assert evaluate_release("V1a", fed, claim).verdict == "Inconclusive"


def test_every_member_fails_guard_claim():
    claim = AllMembersFail("unit")
    verdict = evaluate_release("V1a", guard_report({}), claim)
    assert verdict.verdict == "CounterexampleFound"
    assert verdict.witnesses == (1, 2, 3, 4, 5, 6)
    assert evaluate_release("V1a", guard_report({1: "1/2"}),
                            claim).verdict == "Inconclusive"


def test_anchor_fails_guard_claim():
    claim = AnchorFails("unit")
    verdict = evaluate_release("V1a", guard_report({}), claim)
    assert verdict.witnesses == (1, 2, 4)
    assert evaluate_release("V1a", guard_report({2: "3/8"}),
                            claim).verdict == "Inconclusive"


# ---------------------------------------------------------------------------
# structural invariances

def test_relabeling_both_boxes_and_amounts_changes_nothing():
    """Conjugating the plan while renaming prices and amounts is a no-op."""
    horizon = 10
    for seed in range(25):
        rng = random.Random(seed)
        perm = list(range(1, horizon + 1))
        rng.shuffle(perm)
        delta = Relabeling.from_sequence(perm)
        inverse = [0] * horizon
        for i, v in enumerate(perm, 1):
            inverse[v - 1] = i
        delta_inv = Relabeling.from_sequence(inverse)

        amounts = {n: rat(rng.randrange(0, 9), 128)
                   for n in range(1, horizon + 1)}
        plan = random_plan(horizon, 4, seed)
        before = simulate("V1a", GEO, table(amounts), plan, horizon)

        renamed = {delta(n): v for n, v in amounts.items()}
        after = simulate("V1a", PermutedModel(GEO, delta_inv),
                         table(renamed), plan.conjugate(delta),
                         horizon)

        spent_before = {o.prisoner: o.spent for o in before.outcomes}
        spent_after = {o.prisoner: o.spent for o in after.outcomes}
        for n, out in ((o.prisoner, o) for o in before.outcomes):
            assert spent_after[delta(n)] == spent_before[n]
            assert next(o for o in after.outcomes
                        if o.prisoner == delta(n)).success == out.success


def test_scaling_prices_and_amounts_changes_nothing():
    factor = rat(1, 3)
    scaled_model = ScaledModel(GEO, factor)
    for seed in range(25):
        rng = random.Random(("scale", seed).__repr__())
        amounts = {n: rat(rng.randrange(0, 9), 128) for n in range(1, 11)}
        scaled_amounts = {n: v * factor for n, v in amounts.items()}
        plan = random_plan(10, 4, seed)
        base = simulate("V1a", GEO, table(amounts), plan, 10)
        scaled = simulate("V1a", scaled_model, table(scaled_amounts),
                          random_plan(10, 4, seed), 10)
        for lhs, rhs in zip(base.outcomes, scaled.outcomes):
            assert lhs.success == rhs.success
            assert rhs.spent == lhs.spent * factor
            assert lhs.opened == rhs.opened


# ---------------------------------------------------------------------------
# the registry

# SHA-256 of the `prisoners verify all` stdout, recorded from the code
# before the registry left the engine module
VERIFY_ALL_DIGEST = (
    "f7eb2edb55b6fa92443c257a07f129067a3e62549fdddef407725b98f99e0663")


def test_every_registry_key_verifies(verify_all_run):
    # the reports of the one shared `verify all` run, each made by
    # verify_theorem(key) at the default seed and parameters
    assert [key for key, _ in verify_all_run.reports] == list(THEOREM_KEYS)
    lines = []
    for key, report in verify_all_run.reports:
        assert report.passed, (key, report.witnesses)
        assert report.checks > 0 and report.key == key
        # the line cli verify prints for a passing check
        lines.append(f"PASS {key}: {report.details} "
                     f"[checks={report.checks}]\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        VERIFY_ALL_DIGEST)


def test_registry_accepts_parameter_overrides():
    report = verify_theorem("identity-minimality", params={"m": 5})
    assert report.passed and report.checks == 120
    small = verify_theorem("bounded-length-v1a", params={"plans": 20})
    assert small.passed and small.checks == 20


def test_registry_is_deterministic():
    lhs = verify_theorem("tail-sum-strategy", seed=3)
    rhs = verify_theorem("tail-sum-strategy", seed=3)
    assert lhs == rhs


def test_unknown_registry_key():
    with pytest.raises(DomainError):
        verify_theorem("perpetual-motion")
    assert len(THEOREM_KEYS) == 18


@pytest.mark.parametrize("key, params", [
    ("tail-sum-strategy", {"plans": -5}),
    ("bounded-length-v1a", {"plans": 0}),
    ("two-cycle-v1b", {"pairs": 0}),
    ("identity-minimality", {"m": 0}),
    ("open-boxes-v1c", {"k": 0}),
    ("bounded-diameter-v1b", {"d": 0}),
    ("good-index-adversary", {"cycles": 0}),
    ("v2b-no-strategy", {"blocks": 0}),
    ("tail-sum-strategy", {"max_len": 0}),
    ("v1d-bounded", {"horizon": 0}),
])
def test_registry_counts_below_one_are_domain_errors(key, params):
    # a check that ran no plan would otherwise report a vacuous pass
    with pytest.raises(DomainError, match="at least 1"):
        verify_theorem(key, params=params)


@pytest.mark.parametrize("name", [
    "scaled:abc", "scaled:1/0", "shifted-harmonic:x", "shifted-harmonic:",
    "constant1:3", "flat",
])
def test_registry_rejects_unparsable_allocation_names(name):
    with pytest.raises(DomainError, match="fixed-price allocation"):
        verify_theorem("v2b-no-strategy", params={"allocs": (name,)})


def test_registry_passes_on_the_builders_own_domain_errors():
    with pytest.raises(DomainError, match="k >= 1"):
        verify_theorem("v2b-no-strategy",
                       params={"allocs": ("shifted-harmonic:-3",)})


def test_registry_keeps_the_log_shift_domain():
    # K is the log-shift builder's target, not a count: K = 0 is allowed
    defaults = {"plans": 30, "K": 2}
    assert registry._merge(defaults, {"K": 0}) == {"plans": 30, "K": 0}


def test_a_check_that_checked_nothing_has_not_passed():
    assert verify_theorem("scaled-gap", params={"cases": ()}).checks == 0
    assert not verify_theorem("scaled-gap", params={"cases": ()}).passed
    assert not verify_theorem("v2b-no-strategy",
                              params={"allocs": ()}).passed
    # a window with no cycle past the cutoff claims nobody: Inconclusive
    for key in ("tail-sum-strategy", "rearranged-strategy"):
        report = verify_theorem(key, params={"horizon": 2, "plans": 3})
        assert not report.passed
        assert report.witnesses == ("plan 0: Inconclusive",
                                    "plan 1: Inconclusive",
                                    "plan 2: Inconclusive")


# ---------------------------------------------------------------------------
# the analyzer keys can fail
#
# Each fault is wrong by a margin the check sees at its defaults, so a PASS
# line from these keys is evidence.

@pytest.fixture
def rising_prices(monkeypatch):
    """The first six inverse-square prices rise: 1/64, 1/32, ..., 1/2."""
    entries = {i: rat(1, 2 ** (7 - i)) for i in range(1, 7)}
    monkeypatch.setattr(registry, "INVSQ",
                        CustomModel(entries, ZeroTail(7), name="rising"))


@pytest.fixture
def unsorted_descending(monkeypatch):
    """The descending rearrangement leaves every index in place."""
    monkeypatch.setattr(registry, "descending_rearrangement",
                        lambda model, horizon: Relabeling.identity())


def test_identity_minimality_fails_on_rising_prices(rising_prices):
    report = verify_theorem("identity-minimality")
    assert report.passed is False
    # the reversal 6 5 4 3 2 1 puts price 1/2^n at weight n: sum 15/8
    assert report.witnesses == ("(1 6)(2 5)(3 4)",)
    assert report.details == "identity wins all 720 arrangements at 15/8"


def test_descending_reduction_fails_on_an_unsorted_rearrangement(
        unsorted_descending):
    report = verify_theorem("descending-reduction")
    assert report.passed is False
    shuffled = registry._shuffled_geometric(1)
    expected = tuple(f"not sorted at {n}" for n in range(1, 40)
                     if shuffled.term(n) < shuffled.term(n + 1))
    assert expected and report.witnesses == expected


def test_zero_omission_fails_on_a_lifted_compressed_price(
        lifted_compressed_price):
    report = verify_theorem("zero-omission")
    assert report.passed is False
    # index 4 holds the second positive price, 1/4, now read as 7/12
    assert report.witnesses[0] == str(
        {"kind": "alpha", "index": 4, "position": 2})
    assert any("'kind': 'doubling'" in w for w in report.witnesses)
    assert report.checks == 120


@pytest.mark.parametrize("key, fault", [
    ("identity-minimality", "rising_prices"),
    ("descending-reduction", "unsorted_descending"),
    ("zero-omission", "lifted_compressed_price"),
])
def test_verify_prints_fail_and_exits_one_for_an_analyzer_fault(
        request, capsys, key, fault):
    request.getfixturevalue(fault)
    assert main(["verify", key]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {key}: ") and out.count("\n") == 1
    assert " witnesses=[" in out


# ---------------------------------------------------------------------------
# the builder-claim keys can fail
#
# Each fault halves the amounts a builder hands out while its descriptor
# keeps the claim, so the judge, not the builder, has to see the shortfall.

def _halved(alloc, cut=1):
    """alloc with every amount from index cut on halved, same descriptor."""
    return FnAllocation(
        f"{alloc.name}/2",
        lambda n: alloc.amount(n) / 2 if n >= cut else alloc.amount(n),
        descriptor=alloc.descriptor)


def _halve_pair(monkeypatch, name):
    build = getattr(registry, name)

    def faulty(*args, **kwargs):
        alloc, m = build(*args, **kwargs)
        return _halved(alloc, m), m
    monkeypatch.setattr(registry, name, faulty)


def _window(plan, horizon):
    return plan.window(horizon)[0]


def test_tail_sum_strategy_fails_on_halved_tail_amounts(monkeypatch):
    _halve_pair(monkeypatch, "build_tail_sum_strategy")
    report = verify_theorem("tail-sum-strategy")
    assert report.passed is False
    # a least member n past the cutoff 3 now holds tail(n) / 2 = 2^-n, its
    # own price: it pays for a singleton and fails every longer cycle
    late = tuple(sorted(min(c) for c in _window(random_plan(48, 6, 0), 48)
                        if len(c) > 1 and min(c) >= 3))
    assert late and report.witnesses[:len(late)] == late


def test_verify_prints_fail_for_halved_tail_amounts(monkeypatch, capsys):
    _halve_pair(monkeypatch, "build_tail_sum_strategy")
    assert main(["verify", "tail-sum-strategy"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL tail-sum-strategy: ") and out.count("\n") == 1
    assert " witnesses=[3, 6, " in out


def test_bounded_length_fails_on_halved_amounts(monkeypatch):
    _halve_pair(monkeypatch, "build_bounded_length_strategy")
    report = verify_theorem("bounded-length-v1a")
    assert report.passed is False
    # the top member n of a late cycle holds 3 * 2^-n / 2: enough for n and
    # any two later members but n + 1, whose price alone is half of n's
    expected = tuple(i for i in range(200) if any(
        len(c) == 3 and min(c) >= 3 and min(c) + 1 in c
        for c in _window(random_plan(40, 3, i), 40)))
    assert expected and report.witnesses == expected


def test_bounded_diameter_fails_on_halved_amounts(monkeypatch):
    _halve_pair(monkeypatch, "build_bounded_diameter_strategy")
    report = verify_theorem("bounded-diameter-v1b")
    assert report.passed is False
    # under V1b anyone past the threshold 5 who fails is a counterexample;
    # run_prisoner, not the judge, decides who fails
    alloc, _ = build_bounded_diameter_strategy(GEO, 2)
    expected = []
    for i in range(10):
        plan = random_bounded_diameter_plan(40, 2, i)
        if any(not run_prisoner(n, alloc.amount(n) / 2, plan, GEO).success
               for c in _window(plan, 40) for n in c if n > 5):
            expected.append(i)
    assert expected and report.witnesses[:len(expected)] == tuple(expected)


def test_v1d_bounded_fails_on_halved_cycle_prices(monkeypatch):
    build = registry.build_cycle_informed_strategy
    monkeypatch.setattr(registry, "build_cycle_informed_strategy",
                        lambda *args: _halved(build(*args)))
    report = verify_theorem("v1d-bounded")
    assert report.passed is False
    # each member of a cycle past the cutoff 3 now holds half its price
    expected = tuple(i for i in range(50) if any(
        min(c) >= 3 for c in _window(random_plan(40, 3, i), 40)))
    assert expected and report.witnesses == expected


def test_v2a_strategies_fail_on_halved_prefix_sums(monkeypatch):
    build = registry.build_v2_strategy

    def faulty(kind, **params):
        alloc = build(kind, **params)
        return _halved(alloc) if kind == "harmonic-prefix" else alloc
    monkeypatch.setattr(registry, "build_v2_strategy", faulty)
    report = verify_theorem("v2a-strategies")
    assert report.passed is False
    # the last member n of each cycle now holds H_n / 2
    expected = tuple(
        f"v2-harmonic-prefix/2: plan {i}" for i in range(30) if any(
            sum(Fraction(1, j) for j in c)
            > sum(Fraction(1, j) for j in range(1, max(c) + 1)) / 2
            for c in _window(random_plan(40, 4, i), 40)))
    assert expected and report.witnesses == expected


def test_scaled_gap_fails_on_gaps_one_index_late(monkeypatch):
    gap = registry.scaled_harmonic_gap
    monkeypatch.setattr(registry, "scaled_harmonic_gap",
                        lambda k, c: gap(k, c) + 1)
    report = verify_theorem("scaled-gap")
    assert report.passed is False
    assert report.witnesses == ("gap(2,1/2) = 5", "gap(1,1/2) = 2",
                                "gap(1,99/100) = 2", "gap(5,1/2) = 37")


def test_v2b_no_strategy_fails_on_blocks_ending_one_index_early(
        monkeypatch):
    least_end = adversaries._least_block_end

    def early(anchor, target_fn, end_cap):
        found = least_end(anchor, target_fn, end_cap)
        if found is None or found[0] == anchor:
            return found
        return found[0] - 1, HARMONIC.range_sum(anchor, found[0] - 1)
    monkeypatch.setattr(adversaries, "_least_block_end", early)
    report = verify_theorem("v2b-no-strategy")
    assert report.passed is False
    assert report.witnesses == ("constant1: Inconclusive",
                                "harmonic-prefix: Inconclusive")
    # the shortened blocks no longer outprice their anchors
    alloc = build_v2_strategy("constant1")
    plan = adversaries.v2b_block_adversary(alloc)
    window = simulate("V2b", HARMONIC, alloc, plan, 520)
    won = {o.prisoner for o in window.outcomes if o.success}
    assert won & {min(c) for c in window.cycles if len(c) > 1}


# ---------------------------------------------------------------------------
# the simulation core's imports

SRC = Path(__file__).resolve().parent.parent / "src" / "prisoners"
# the only names the core takes from each sibling module; None means any
ENGINE_IMPORTS = {
    "errors": None, "numeric": None, "permutations": None,
    "sequences": None,
}


def test_engine_imports_no_registry_analyzer_or_builder_code():
    tree = ast.parse((SRC / "engine.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            assert not any(n.startswith("prisoners") for n in names), names
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("prisoners")):
            module = (node.module or "").rpartition(".")[2]
            assert module in ENGINE_IMPORTS, module
            allowed = ENGINE_IMPORTS[module]
            names = {alias.name for alias in node.names}
            assert allowed is None or names <= allowed, (module, names)


def test_no_module_raises_the_int_digit_limit():
    # the limit guards the whole interpreter, so the package reads it only
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            assert name != "set_int_max_str_digits", path.name


def test_no_module_names_another_rational_backend():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "gmpy2" not in text, path.name
        assert "PRISONERS_RATIONAL_BACKEND" not in text, path.name


# names whose duplicates the shared harmonic table, least_index, table
# models, declared allocation shapes and numeric.lcm_units replaced, the
# helpers that asked which tail rule a model held, and the scope and kind
# strings (with their judges) that typed claim objects replaced, and the
# harmonic log helpers that only tests called
RETIRED_NAMES = {"PrefixSums", "AdversaryState", "_H", "_SHARED_HARMONIC",
                 "_hsum", "_validate_tail_rule", "_tails_exact",
                 "_table_sum_from", "cycle_no", "_tail_rule", "max_term_in",
                 "zero_indices_before_tail", "_scaled", "_lcm_units",
                 "_dump_table_text", "_scored_arrangements",
                 "_zero_free_trace", "success_pattern", "_pattern_verdict",
                 "_guard_verdict", "relabeling_from_pairs", "AdversaryClaim",
                 "NO_SUCCESS_AFTER_FIRST", "FAILURE_IN_EVERY_CYCLE",
                 "ALL_MEMBERS_FAIL", "ANCHOR_FAILS", "harmonic_upper_ln",
                 "harmonic_range_lower_ln"}
# a tail rule answers for its own sums and says whether its prices stay
# positive, the built-in summable models are tables with such a rule, and a
# model is a table model when it has a rule, so no module asks for these
RULE_CLASSES = {"GeometricTail", "InversePowerTail", "GeometricModel",
                "InverseSquareModel", "ZeroTail", "CustomModel"}
# the functions allowed to ask whether a value is a bracket
BRACKET_TESTS = {("strategies.py", "_total_cert_from_tail")}


def _isinstance_classes(node, function=None):
    """(enclosing function, class names) for each isinstance call."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance" and len(child.args) == 2):
            kinds = child.args[1]
            elts = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            yield function, {e.id for e in elts if isinstance(e, ast.Name)}
        inner = (child.name if isinstance(child, ast.FunctionDef)
                 else function)
        yield from _isinstance_classes(child, inner)


def test_src_builds_one_harmonic_model_and_no_retired_helpers():
    constructions = []
    bracket_tests = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "HarmonicModel"):
                constructions.append(path.name)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in RETIRED_NAMES, (path.name, node.name)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in RETIRED_NAMES, (path.name, node.id)
        for function, classes in _isinstance_classes(tree):
            assert not classes & RULE_CLASSES, (path.name, function)
            if "RatInterval" in classes and path.name != "numeric.py":
                bracket_tests.add((path.name, function))
    assert constructions == ["sequences.py"]
    assert bracket_tests == BRACKET_TESTS


def _scoped(node, scope=()):
    """(dotted enclosing class and function names, node) for every node."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope), child
        inner = (scope + (child.name,) if isinstance(
            child, (ast.ClassDef, ast.FunctionDef)) else scope)
        yield from _scoped(child, inner)


def test_only_the_emitter_and_the_stop_note_write_guard_logs():
    appends, bound_stores = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "witness_log"):
                appends.add((path.name, scope))
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, (ast.AugAssign, ast.AnnAssign)) else [])
            if any(isinstance(t, ast.Attribute) and t.attr == "covered_bound"
                   for t in targets):
                bound_stores.add((path.name, scope))
    assert appends == {("adversaries.py", "_logged"),
                       ("adversaries.py", "_stop")}
    assert bound_stores == {("adversaries.py", "_stop"),
                            ("permutations.py", "CyclePlan.__init__")}
