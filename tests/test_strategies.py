"""Builder outputs against hand-computed and independently summed values."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prisoners.engine import (
    NO_CLAIM, AboveThreshold, LastMember, LeastMember, MaxPriceMember,
    simulate,
)
from prisoners.errors import (
    CapabilityError, DomainError, PlanViolationError,
)
from prisoners.numeric import LN2_HI, ONE, ZERO, rat
from prisoners.permutations import (
    Cycle, CyclePlan, random_bounded_diameter_plan, random_plan,
)
from prisoners.sequences import (
    AffineBound, CustomModel, ExactTotal, FnAllocation, GeometricTail,
    NonDecreasing, NonIncreasingBeyond, Relabeling, ScaledModel, ZeroBeyond,
    ZeroTail, builtin_model,
)
from prisoners.strategies import (
    HarmonicAffine, StrategyDescriptor, build_baseline_geometric,
    build_bounded_diameter_strategy, build_bounded_length_strategy,
    build_cycle_informed_strategy, build_tail_sum_strategy,
    build_v2_strategy,
)

GEO = builtin_model("geometric", ratio=rat(1, 2))


def test_baseline_amounts_and_total():
    alloc = build_baseline_geometric()
    assert alloc.amount(1) == ZERO
    assert alloc.amount(2) == rat(1, 2)
    assert alloc.amount(4) == rat(1, 8)
    assert alloc.total_cert == ExactTotal(ONE)
    assert alloc.descriptor.claim == LeastMember(2)
    # finite prefixes stay strictly under the declared total
    running = ZERO
    for n in range(1, 60):
        running += alloc.amount(n)
        assert running < ONE


def test_tail_sum_geometric_matches_walkthrough():
    alloc, m = build_tail_sum_strategy(GEO, total=ONE)
    assert m == 3
    assert alloc.amount(1) == rat(1, 2)
    assert alloc.amount(2) == ZERO
    assert alloc.amount(3) == rat(1, 4)
    assert alloc.amount(4) == rat(1, 8)
    assert alloc.total_cert == ExactTotal(ONE)
    assert alloc.tail_structure == NonIncreasingBeyond(3, positive=True)
    assert alloc.descriptor.claim == LeastMember(3)


def test_tail_sum_smaller_budget_pushes_cutoff():
    alloc, m = build_tail_sum_strategy(GEO, total=rat(1, 4))
    assert m == 5
    # second tail at 5 is 1/8, slack is 1/4 - 1/8
    assert alloc.amount(1) == rat(1, 8)
    assert alloc.amount(5) == rat(1, 16)


def test_tail_sum_finite_support():
    model = CustomModel({1: rat(1, 2), 2: rat(1, 4), 3: rat(1, 4)},
                        ZeroTail(4), name="finite")
    alloc, m = build_tail_sum_strategy(model, total=ONE)
    assert m == 2
    assert alloc.amount(1) == rat(1, 4)
    assert alloc.amount(2) == rat(1, 2)
    assert alloc.amount(3) == rat(1, 4)
    assert alloc.amount(9) == ZERO
    assert alloc.tail_structure == ZeroBeyond(3)
    total = sum((alloc.amount(n) for n in range(1, 10)), ZERO)
    assert total == ONE


def test_tail_sum_rearranged_prefix():
    delta = Relabeling.swap(1, 2)
    alloc, m = build_tail_sum_strategy(GEO, delta=delta, total=ONE)
    # rearranged prices (1/4, 1/2, 1/8, ...): tails still halve from 3 on
    assert m == 3
    assert alloc.amount(1) == rat(1, 2)
    assert alloc.amount(3) == rat(1, 4)
    assert alloc.descriptor.params["relabeling"] == [[1, 2], [2, 1]]


def test_tail_sum_needs_exact_tails():
    with pytest.raises(CapabilityError):
        build_tail_sum_strategy(builtin_model("inverse-square"))
    with pytest.raises(CapabilityError):
        build_tail_sum_strategy(builtin_model("harmonic"))


# tail and second_tail of a scaled geometric model are exact rationals
SCALED_GEO = ScaledModel(GEO, rat(3, 2))


def test_scaled_geometric_tail_sum_confirms_on_random_plans():
    alloc, m = build_tail_sum_strategy(SCALED_GEO)
    assert m == 3
    assert alloc.amount(1) == rat(1, 4)
    assert alloc.amount(4) == SCALED_GEO.tail(4) == rat(3, 16)
    for seed in range(30):
        report = simulate("V1a", SCALED_GEO, alloc,
                          random_plan(300, 12, seed), 300)
        assert report.verdict == "PatternConfirmed", seed


def test_scaled_geometric_bounded_diameter_confirms_on_banded_plans():
    alloc, m = build_bounded_diameter_strategy(SCALED_GEO, 2)
    assert alloc.total_cert == ExactTotal(SCALED_GEO.second_tail(m + 1))
    for seed in range(30):
        report = simulate("V1b", SCALED_GEO, alloc,
                          random_bounded_diameter_plan(300, 2, seed), 300)
        assert report.verdict == "PatternConfirmed", seed


def test_scaled_zero_tail_prices_keep_their_zero_structure():
    model = ScaledModel(CustomModel({1: rat(1, 2), 3: rat(1, 4)},
                                    ZeroTail(5)), rat(2))
    assert model.last_positive() == 3
    alloc, m = build_tail_sum_strategy(model)
    assert (m, alloc.tail_structure) == (3, ZeroBeyond(3))
    alloc, m = build_bounded_length_strategy(model, 2)
    assert (m, alloc.tail_structure) == (4, ZeroBeyond(3))


def test_bounded_length_geometric():
    alloc, m = build_bounded_length_strategy(GEO, k=2, total=ONE)
    assert m == 3
    assert alloc.amount(2) == ZERO
    assert alloc.amount(3) == rat(1, 4)
    assert alloc.amount(5) == rat(1, 16)
    assert alloc.total_cert == ExactTotal(rat(1, 2))
    assert alloc.max_in_range(1, 10) == rat(1, 4)
    assert alloc.max_in_range(4, 9) == rat(1, 8)
    assert alloc.descriptor.claim == MaxPriceMember(3)


def test_bounded_length_unit_bound_funds_prices():
    alloc, m = build_bounded_length_strategy(GEO, k=1, total=ONE)
    assert m == 2
    for n in range(2, 12):
        assert alloc.amount(n) == GEO.term(n)


def test_bounded_length_inverse_square_certified():
    model = builtin_model("inverse-square")
    alloc, m = build_bounded_length_strategy(model, k=3, total=ONE)
    assert m == 4
    assert alloc.amount(4) == rat(3, 16)
    iv = alloc.total_cert.interval(rat(1, 10**6))
    assert iv.width <= rat(1, 10**6)
    partial = sum((rat(3) / (n * n) for n in range(4, 2001)), ZERO)
    assert iv.hi > partial
    assert iv.lo < partial + rat(3, 1999)


def test_bounded_length_rejects_divergent_prices():
    with pytest.raises(CapabilityError):
        build_bounded_length_strategy(builtin_model("harmonic"), k=2)


def test_bounded_diameter_geometric_walkthrough():
    alloc, m = build_bounded_diameter_strategy(GEO, d=2, total=ONE)
    assert m == 3
    for n in range(1, 6):
        assert alloc.amount(n) == ZERO
    # amount(5 + j) = tail(3 + j) = 2**(-2 - j)
    assert alloc.amount(6) == rat(1, 8)
    assert alloc.amount(7) == rat(1, 16)
    assert alloc.amount(9) == rat(1, 64)
    assert alloc.total_cert == ExactTotal(rat(1, 4))
    claim = alloc.descriptor.claim
    assert isinstance(claim, AboveThreshold) and claim.threshold == 5
    assert claim.delta.is_identity


def test_bounded_diameter_smaller_budget():
    alloc, m = build_bounded_diameter_strategy(GEO, d=2, total=rat(1, 2))
    assert m == 4
    assert alloc.amount(7) == rat(1, 16)


def test_bounded_diameter_relabeled_matches_base_beyond_support():
    delta = Relabeling.swap(1, 2)
    alloc, m = build_bounded_diameter_strategy(GEO, d=2, delta=delta)
    base, m2 = build_bounded_diameter_strategy(GEO, d=2)
    assert (m, m2) == (3, 3)
    assert alloc.descriptor.claim == AboveThreshold(5, delta)
    for n in range(1, 12):
        assert alloc.amount(n) == base.amount(n)


def test_cycle_informed_prices_disclosed_plan():
    plan = CyclePlan([Cycle((4, 6)), Cycle((1, 2))], name="disclosed")
    alloc = build_cycle_informed_strategy(GEO, plan, k=2, total=ONE)
    assert alloc.amount(4) == rat(5, 64)
    assert alloc.amount(6) == rat(5, 64)
    assert alloc.amount(1) == ZERO
    assert alloc.amount(2) == ZERO
    assert alloc.amount(3) == rat(1, 8)
    assert alloc.amount(5) == rat(1, 32)
    assert alloc.total_cert == ExactTotal(rat(21, 64))
    assert alloc.descriptor.m == 3


def _fraction_informed_shift(model, plan, m: int) -> Fraction:
    """charged - listed of the informed total, in plain Fraction adds."""
    charged = listed = Fraction(0)
    for c in plan.cycles:
        if c.min_member >= m:
            price = Fraction(0)
            for x in c.members:
                price += model.term(x)
            charged += c.length * price
        for x in c.members:
            if x >= m:
                listed += model.term(x)
    return charged - listed


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([GEO, builtin_model("inverse-square")]),
       st.integers(1, 80), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_cycle_informed_total_matches_a_fraction_fold(model, horizon, k,
                                                      seed):
    plan = random_plan(horizon, k, seed)
    alloc = build_cycle_informed_strategy(model, plan, k)
    m = alloc.descriptor.m
    shift = _fraction_informed_shift(model, plan, m)
    tail = model.tail(m)
    if model is GEO:
        assert alloc.total_cert == ExactTotal(tail + shift)
    else:
        width = rat(1, 10 ** 6)
        got = alloc.total_cert.interval(width)
        while tail.width > width and tail.refinable:
            tail = tail.refine()
        assert (got.lo, got.hi) == (tail.lo + shift, tail.hi + shift)
    for c in plan.cycles:
        want = ZERO
        if c.min_member >= m:
            for x in c.members:
                want += model.term(x)
        for x in c.members:
            assert alloc.amount(x) == want


def test_cycle_informed_rejects_long_cycles():
    plan = CyclePlan([Cycle((4, 6, 8))])
    with pytest.raises(PlanViolationError):
        build_cycle_informed_strategy(GEO, plan, k=2)


def test_v2_constant_and_harmonic_prefix():
    ones = build_v2_strategy("constant1")
    assert ones.amount(1) == ONE and ones.amount(999) == ONE
    assert ones.amount_upper_pow2(40) == ONE
    assert ones.descriptor.claim is NO_CLAIM

    pref = build_v2_strategy("harmonic-prefix")
    assert pref.amount(3) == rat(11, 6)
    assert pref.max_in_range(2, 6) == pref.amount(6)
    assert pref.amount(1024) <= pref.amount_upper_pow2(10)
    assert pref.descriptor.claim == LastMember(1)


def test_v2_amount_bounds_are_typed_affine_bounds():
    hp = build_v2_strategy("harmonic-prefix").amount_upper_pow2
    assert hp == AffineBound(ONE, LN2_HI)
    # a large shift makes the intercept negative; the bound clamps at zero
    shifted = build_v2_strategy("shifted-harmonic", k=40).amount_upper_pow2
    assert shifted.intercept < ZERO and shifted(2) == ZERO
    assert shifted(40) == shifted.intercept + 40 * LN2_HI
    # the fixed-price form builds its own bound; other plans carry none
    ones = build_v2_strategy("constant1")
    assert isinstance(ones, HarmonicAffine)
    assert ones.amount_upper_pow2 == AffineBound(ONE, ZERO)
    assert FnAllocation("ones", lambda n: ONE).amount_upper_pow2 is None


# the kinds test_golden pins: every fixed-price family, and a log shift
# whose cutoff 1318815733 is past the exact prefix floor
V2_KINDS = [
    ("constant1", {}), ("harmonic-prefix", {}),
    ("shifted-harmonic", {"k": 3}), ("shifted-harmonic", {"k": 40}),
    ("log-shift", {"K": 1}), ("log-shift", {"K": 2}),
    ("log-shift", {"K": rat(7, 2)}), ("log-shift", {"K": rat(20)}),
    ("scaled", {"c": 0}), ("scaled", {"c": rat(1, 3)}),
    ("scaled", {"c": rat(1, 2)}), ("scaled", {"c": rat(9, 10)}),
    ("scaled", {"c": rat(99, 100)}),
]


@pytest.mark.parametrize("kind, params", V2_KINDS, ids=[
    f"{kind}{''.join(f'-{v}' for v in params.values())}"
    for kind, params in V2_KINDS])
def test_v2_derived_facts_agree_with_the_amounts(kind, params):
    alloc = build_v2_strategy(kind, **params)
    c, start, e = alloc.c, alloc.start, alloc.e
    # the amounts against plain sums of the form
    amounts, harmonic = [], Fraction(0)
    for n in range(1, 601):
        harmonic += Fraction(1, n) if n >= start else 0
        amounts.append(c * harmonic + e if n >= start else ZERO)
    assert [alloc.amount(n) for n in range(1, 601)] == amounts
    # the shape against the amounts on [1, 600]
    pairs = list(zip(amounts, amounts[1:]))
    if alloc.tail_structure == NonDecreasing():
        assert all(a <= b for a, b in pairs)
    else:
        assert alloc.tail_structure == NonIncreasingBeyond(start, True)
        assert all(a >= b > ZERO for a, b in pairs[start - 1:])
    # the bound at E against the amount at 2^E, across the exact prefix
    # table's end at 5000
    for E in range(14):
        assert alloc.amount(2 ** E) <= alloc.amount_upper_pow2(E), E
    # amounts that never fall from a positive one diverge; none is zero
    positive = alloc.amount(max(start, 600)) > ZERO
    assert positive == (c > ZERO or e > ZERO)
    if positive:
        assert alloc.total_cert.kind == "divergent"
    else:
        assert alloc.total_cert == ExactTotal(ZERO) and not any(amounts)


def test_v2_shifted_harmonic():
    alloc = build_v2_strategy("shifted-harmonic", k=3)
    assert alloc.amount(2) == ZERO
    assert alloc.amount(5) == rat(47, 60)
    assert alloc.max_in_range(1, 2) == ZERO
    assert alloc.amount(512) <= alloc.amount_upper_pow2(9)
    assert alloc.descriptor.claim == LastMember(3)


def test_v2_scaled():
    alloc = build_v2_strategy("scaled", c=rat(1, 2))
    assert alloc.amount(4) == rat(25, 24)
    assert alloc.amount(256) <= alloc.amount_upper_pow2(8)
    assert alloc.descriptor.claim is NO_CLAIM
    with pytest.raises(DomainError):
        build_v2_strategy("scaled", c=ONE)
    with pytest.raises(DomainError):
        build_v2_strategy("scaled", c=rat(3, 2))


# builders whose range maxima come from their declared shape alone
SHAPED_PLANS = {
    "constant1": lambda: build_v2_strategy("constant1"),
    "harmonic-prefix": lambda: build_v2_strategy("harmonic-prefix"),
    "shifted-harmonic[3]": lambda: build_v2_strategy("shifted-harmonic", k=3),
    "log-shift[1]": lambda: build_v2_strategy("log-shift", K=ONE),
    "scaled[1/2]": lambda: build_v2_strategy("scaled", c=rat(1, 2)),
    "scaled[0]": lambda: build_v2_strategy("scaled", c=ZERO),
    "bounded-length geometric":
        lambda: build_bounded_length_strategy(GEO, 2)[0],
    "bounded-length inverse-square":
        lambda: build_bounded_length_strategy(
            builtin_model("inverse-square"), 2)[0],
    "bounded-length zero-tail": lambda: build_bounded_length_strategy(
        CustomModel({1: rat(1, 4), 3: rat(1, 2), 4: rat(1, 8)}, ZeroTail(6)),
        2)[0],
    "bounded-length scaled":
        lambda: build_bounded_length_strategy(ScaledModel(GEO, rat(1, 3)),
                                              2)[0],
}


@pytest.mark.parametrize("build", SHAPED_PLANS.values(), ids=SHAPED_PLANS)
def test_range_maxima_from_the_declared_shape_match_a_scan(build):
    alloc = build()
    amounts = [alloc.amount(n) for n in range(1, 25)]
    if alloc.tail_structure == NonDecreasing():
        assert amounts == sorted(amounts)
    for a in range(1, 25):
        for b in range(a, 25):
            assert alloc.max_in_range(a, b) == max(amounts[a - 1:b])


def test_allocations_take_no_range_maximum_function():
    with pytest.raises(TypeError):
        FnAllocation("flat", lambda n: ONE,
                     max_in_range_fn=lambda a, b: ONE)


def test_v2_log_shift_small_constant_is_minimal():
    alloc = build_v2_strategy("log-shift", K=ONE)
    assert alloc.descriptor.params["k"] == 3
    assert alloc.descriptor.params["minimal"] is True
    shifted = build_v2_strategy("shifted-harmonic", k=3)
    for n in (1, 3, 7, 20):
        assert alloc.amount(n) == shifted.amount(n)


def test_v2_log_shift_large_constant_is_conservative():
    from prisoners.numeric import ln_bounds
    alloc = build_v2_strategy("log-shift", K=rat(20))
    k = alloc.descriptor.params["k"]
    assert alloc.descriptor.params["minimal"] is False
    assert k > 10**8
    assert ln_bounds(k + 2)[0] >= rat(21)
    assert ln_bounds(k + 1)[0] < rat(21)
    assert alloc.amount(100) == ZERO


def test_descriptor_json_names_the_build_but_not_the_claim():
    alloc, m = build_bounded_length_strategy(GEO, k=2, total=ONE)
    assert json.loads(alloc.descriptor.to_json()) == {
        "builder": "bounded-length", "m": m,
        "params": {"model": GEO.name, "k": 2, "total": "1/1"}}
    assert alloc.descriptor.claim == MaxPriceMember(m)
    assert StrategyDescriptor("bounded-length").claim is NO_CLAIM


@given(st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_tail_sum_prefix_never_exceeds_declared_total(n):
    alloc, _ = build_tail_sum_strategy(GEO, total=ONE)
    running = sum((alloc.amount(i) for i in range(1, n + 1)), ZERO)
    assert running <= ONE


@given(st.integers(1, 10), st.integers(2, 9))
@settings(max_examples=20, deadline=None)
def test_bounded_length_budget_scaling_keeps_shape(k, denom):
    total = rat(1, denom)
    alloc, m = build_bounded_length_strategy(GEO, k=k, total=total)
    # cutoff is minimal: one step earlier fails the certified bound
    assert k * GEO.tail(m) < total
    if m > 1:
        assert not k * GEO.tail(m - 1) < total
    assert alloc.amount(m) == k * GEO.term(m)
