"""Price models, allocations, and relabelings."""
from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prisoners.errors import (
    CapabilityError, DomainError, EmptyRangeError, PlanViolationError,
)
from prisoners.numeric import (
    Cmp, ONE, Rat, RatInterval, ZERO, compare_certified, power_tail_bounds,
    rat,
)
from prisoners.permutations import Cycle
from prisoners.sequences import (
    BlackBoxModel, BracketedTotal, CustomModel, DivergentTotal, ExactTotal,
    GeometricModel, GeometricTail, HarmonicModel, InversePowerTail,
    InverseSquareModel, NonIncreasingBeyond, PermutedModel, PriceModel,
    Relabeling, ScaledModel, TableAllocation, UnknownTotal, WeightedCert,
    ZeroBeyond, ZeroTail, builtin_model, descending_rearrangement,
    dump_allocation, dump_model, load_allocation, load_model, omit_zeros,
    quasi_descending_rearrangement, weighted_partial_sum,
)


def geom(ratio="1/2") -> GeometricModel:
    return GeometricModel(rat(ratio))


# ---------------------------------------------------------------------------
# built-in models

def test_geometric_terms_and_tails():
    m = geom()
    assert m.term(1) == rat(1, 2)
    assert m.term(5) == rat(1, 32)
    assert m.tail(1) == ONE
    assert m.tail(3) == rat(1, 4)
    # second tail: sum of tails from 2 on = r**2/(1-r)**2 = 1
    assert m.second_tail(2) == ONE
    assert m.second_tail(2) == m.tail(2) + m.second_tail(3)
    cert = m.total_cert
    assert isinstance(cert, ExactTotal) and cert.value == ONE
    assert m.weighted_cert is WeightedCert.CONVERGES_SOME
    assert m.nonincreasing_from == 1


def test_inverse_square_certificates():
    m = InverseSquareModel()
    assert m.term(7) == rat(1, 49)
    t = m.tail(3)
    assert isinstance(t, RatInterval)
    # oracle bracket computed independently
    outer = power_tail_bounds(2, 3, rat(1, 1000))
    assert compare_certified(t, outer.lo) is Cmp.GREATER or t.lo <= outer.lo
    assert t.lo <= outer.hi and outer.lo <= t.hi
    assert isinstance(m.total_cert, BracketedTotal)
    total = m.total_cert.interval(rat(1, 10 ** 8))
    # pi**2/6 = 1.644934066848...
    assert total.lo > rat(1644934, 10 ** 6)
    assert total.hi < rat(1644935, 10 ** 6)
    assert m.weighted_cert is WeightedCert.DIVERGES_ALL
    with pytest.raises(CapabilityError):
        m.second_tail(2)


def test_harmonic_model():
    m = HarmonicModel()
    assert m.term(4) == rat(1, 4)
    assert isinstance(m.total_cert, DivergentTotal)
    assert m.weighted_cert is WeightedCert.DIVERGES_ALL
    assert m.prefix_sum(7) == rat(363, 140)
    assert m.range_sum(3, 7) == rat(153, 140)
    with pytest.raises(CapabilityError):
        m.tail(5)


def test_builtin_model_factory():
    assert builtin_model("geometric", ratio=rat(1, 3)).term(2) == rat(1, 9)
    assert builtin_model("inverse-square").term(3) == rat(1, 9)
    assert builtin_model("harmonic").term(9) == rat(1, 9)
    with pytest.raises(DomainError):
        builtin_model("nope")


# ---------------------------------------------------------------------------
# custom models

def example_custom() -> CustomModel:
    # prices 1/2, 0, 1/4 then the geometric values 1/16, 1/32, ... from 4
    return CustomModel({1: rat(1, 2), 3: rat(1, 4)},
                       GeometricTail(rat(1, 2), 4), name="mixed")


def test_custom_terms_tails_totals():
    m = example_custom()
    assert [m.term(i) for i in range(1, 6)] == [
        rat(1, 2), ZERO, rat(1, 4), rat(1, 16), rat(1, 32)]
    assert m.tail(2) == rat(3, 8)
    assert m.tail(4) == rat(1, 8)
    cert = m.total_cert
    assert isinstance(cert, ExactTotal) and cert.value == rat(7, 8)
    assert m.weighted_cert is WeightedCert.CONVERGES_SOME
    assert m.nonincreasing_from == 4
    # tail recurrence across the table/tail boundary
    for n in range(1, 8):
        assert m.tail(n) == m.term(n) + m.tail(n + 1)
    assert m.range_sum(2, 5) == ZERO + rat(1, 4) + rat(1, 16) + rat(1, 32)


def test_custom_second_tail_recurrence():
    m = example_custom()
    for n in range(1, 9):
        assert m.second_tail(n) == m.tail(n) + m.second_tail(n + 1)


def test_custom_zero_tail_model():
    m = CustomModel({1: rat(1, 8), 3: rat(1, 2)}, ZeroTail(4))
    assert m.term(9) == ZERO
    assert m.tail(2) == rat(1, 2)
    cert = m.total_cert
    assert isinstance(cert, ExactTotal) and cert.value == rat(5, 8)
    assert [i for i in range(1, 4) if m.term(i) == ZERO] == [2]
    assert list(m.positive_indices()) == [1, 3]


def test_custom_inverse_power_tail_certs():
    slow = CustomModel({1: rat(1, 3)}, InversePowerTail(2, 2))
    assert slow.weighted_cert is WeightedCert.DIVERGES_ALL
    assert isinstance(slow.total_cert, BracketedTotal)
    fast = CustomModel({1: rat(1, 3)}, InversePowerTail(3, 2))
    assert fast.weighted_cert is WeightedCert.CONVERGES_SOME
    t = fast.tail(1)
    assert isinstance(t, RatInterval)
    # oracle: 1/3 plus tail of 1/n**3 from 2
    inner = power_tail_bounds(3, 2, rat(1, 10 ** 9))
    assert t.lo <= rat(1, 3) + inner.lo
    assert t.hi >= rat(1, 3) + inner.hi


def test_custom_second_tail_inverse_power_bracket():
    m = CustomModel({}, InversePowerTail(3, 1))
    iv = m.second_tail(2)
    assert isinstance(iv, RatInterval)
    # oracle: sum over k >= 2 of (k - 1)/k**3 = tail2(2) - tail3(2)
    t2 = power_tail_bounds(2, 2, rat(1, 10 ** 8))
    t3 = power_tail_bounds(3, 2, rat(1, 10 ** 8))
    tight_lo = t2.lo - t3.hi
    tight_hi = t2.hi - t3.lo
    assert iv.lo <= tight_lo and tight_hi <= iv.hi
    ref = iv.refine()
    assert ref.width < iv.width
    with pytest.raises(CapabilityError):
        CustomModel({}, InversePowerTail(2, 1)).second_tail(3)


def test_custom_declared_certificates():
    entries = {1: rat(1, 2)}
    rule = GeometricTail(rat(1, 2), 2)
    ok = CustomModel(entries, rule, total_cert=ExactTotal(rat(1)))
    assert isinstance(ok.total_cert, ExactTotal)
    weak = CustomModel(entries, rule, total_cert=UnknownTotal(),
                       weighted_cert=WeightedCert.UNKNOWN)
    assert isinstance(weak.total_cert, UnknownTotal)
    assert weak.weighted_cert is WeightedCert.UNKNOWN
    with pytest.raises(DomainError):
        CustomModel(entries, rule, total_cert=ExactTotal(rat(2)))
    with pytest.raises(DomainError):
        CustomModel(entries, rule,
                    weighted_cert=WeightedCert.DIVERGES_ALL)


def test_custom_validation_errors():
    with pytest.raises(DomainError):
        CustomModel({5: rat(1, 2)}, ZeroTail(4))
    with pytest.raises(DomainError):
        CustomModel({1: rat(-1, 2)}, ZeroTail(4))
    with pytest.raises(DomainError):
        CustomModel({}, GeometricTail(rat(3, 2), 2))
    with pytest.raises(DomainError):
        CustomModel({}, InversePowerTail(1, 2))


def test_blackbox_has_no_certificates():
    bb = BlackBoxModel(lambda n: rat(1, n + 1), name="opaque")
    assert bb.term(3) == rat(1, 4)
    assert isinstance(bb.total_cert, UnknownTotal)
    assert bb.weighted_cert is WeightedCert.UNKNOWN
    with pytest.raises(CapabilityError):
        bb.tail(2)


def test_scaled_model():
    m = ScaledModel(geom(), rat(1, 3))
    assert m.term(2) == rat(1, 12)
    cert = m.total_cert
    assert isinstance(cert, ExactTotal) and cert.value == rat(1, 3)
    assert m.weighted_cert is WeightedCert.CONVERGES_SOME
    assert m.tail(2) == rat(1, 6)
    sq = ScaledModel(InverseSquareModel(), rat(2))
    iv = sq.total_cert.interval(rat(1, 10 ** 8))
    assert iv.width <= rat(1, 10 ** 8)
    assert iv.lo > rat(3289868, 10 ** 6)
    assert iv.hi < rat(3289869, 10 ** 6)
    with pytest.raises(DomainError):
        ScaledModel(geom(), ZERO)


def test_permuted_model():
    delta = Relabeling.swap(1, 3)
    m = PermutedModel(geom(), delta)
    assert m.term(1) == rat(1, 8)
    assert m.term(3) == rat(1, 2)
    assert m.term(5) == rat(1, 32)
    assert isinstance(m.total_cert, ExactTotal)
    assert m.weighted_cert is WeightedCert.CONVERGES_SOME


# ---------------------------------------------------------------------------
# integer cycle prices

# 1/2 and 3/4 take the power-of-two branch of the geometric override, 2/3
# and 5/7 the general one; 3/4 and 2/3 have p != 1
UNIT_MODELS = [
    geom("1/2"), geom("2/3"), geom("3/4"), geom("5/7"), InverseSquareModel(),
    builtin_model("harmonic"), ScaledModel(geom("3/4"), rat(2, 5)),
    ScaledModel(builtin_model("harmonic"), rat(7, 3)),
    PermutedModel(geom("2/3"), Relabeling.swap(2, 9)),
    CustomModel({2: rat(1, 3), 5: rat(1, 6), 7: rat(2, 7)}, ZeroTail(10)),
    CustomModel({1: rat(1, 4)}, GeometricTail(rat(1, 3), 4)),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(UNIT_MODELS),
       st.lists(st.integers(1, 300), min_size=1, max_size=9, unique=True))
def test_cycle_units_equal_the_terms_exactly(model, members):
    units, scale = model.cycle_units(members)
    assert type(scale) is int and scale > 0
    assert len(units) == len(members)
    for n, unit in zip(members, units):
        assert type(unit) is int
        assert Fraction(unit, scale) == model.term(n)
    plain = Fraction(0)
    for n in members:
        plain += model.term(n)
    assert Cycle(members).price(model) == plain


@pytest.mark.parametrize("model", UNIT_MODELS + [
    BlackBoxModel(lambda n: rat(1, n * n), name="opaque")])
def test_range_sum_keeps_one_contract_on_every_model(model):
    for a, b in ((1, 1), (1, 9), (4, 12), (9, 11)):
        assert model.range_sum(a, b) == sum(
            (model.term(i) for i in range(a, b + 1)), ZERO)
    for a, b in ((5, 3), (2, 1)):
        with pytest.raises(EmptyRangeError):
            model.range_sum(a, b)
    for a, b in ((0, 3), (-2, 4), (1.0, 3), (1, 2.5)):
        with pytest.raises(DomainError):
            model.range_sum(a, b)


RATIOS = st.tuples(st.integers(1, 40), st.integers(2, 41)).filter(
    lambda pq: pq[0] < pq[1]).map(lambda pq: rat(*pq))
RULES = st.one_of(
    st.builds(GeometricTail, RATIOS, st.integers(1, 12)),
    st.builds(InversePowerTail, st.integers(2, 4), st.integers(1, 12)),
    st.builds(ZeroTail, st.integers(1, 12)))


@settings(max_examples=150, deadline=None)
@given(RULES, st.data())
def test_table_cycle_units_match_the_lcm_default(rule, data):
    # the rule's hook serves cycles past the table, the default the rest
    table = data.draw(st.dictionaries(
        st.integers(1, max(1, rule.start - 1)),
        st.integers(0, 9).map(lambda k: rat(k, 7)),
        max_size=rule.start - 1))
    model = CustomModel(table, rule)
    low = data.draw(st.sampled_from([1, rule.start]))
    members = data.draw(st.lists(st.integers(low, low + 60), min_size=1,
                                 max_size=9, unique=True))
    assert model.cycle_units(members) == PriceModel.cycle_units(model,
                                                                members)


@settings(max_examples=80, deadline=None)
@given(RATIOS, st.integers(1, 80), st.integers(0, 40),
       st.lists(st.integers(1, 120), min_size=1, max_size=9, unique=True))
def test_geometric_model_is_its_rule_on_an_empty_table(ratio, n, span,
                                                       members):
    built, table = GeometricModel(ratio), CustomModel(
        {}, GeometricTail(ratio, 1))
    assert (built.name, built.kind, built.ratio) == (
        f"geometric:{ratio.numerator}/{ratio.denominator}", "geometric",
        ratio)
    for ask in ("term", "tail", "second_tail"):
        assert getattr(built, ask)(n) == getattr(table, ask)(n)
    assert built.range_sum(n, n + span) == table.range_sum(n, n + span)
    assert built.cycle_units(members) == table.cycle_units(members)
    assert built.term(n) == ratio ** n


@pytest.mark.parametrize("model", [
    InverseSquareModel(), CustomModel({}, InversePowerTail(2, 1))])
def test_inverse_square_range_sums_are_capped(model):
    # the built-in model gives its rule's message
    with pytest.raises(CapabilityError,
                       match="^inverse-power range too large$"):
        model.range_sum(1, 2_000_002)


@pytest.mark.parametrize("model", [geom("1/2"), geom("2/3"),
                                   builtin_model("harmonic")])
def test_cycle_units_reject_indices_below_one(model):
    with pytest.raises(DomainError):
        model.cycle_units((3, 0))


# ---------------------------------------------------------------------------
# text format

def test_model_text_roundtrip():
    text = """
    # prices
    1 1/2
    3 1/4
    tail geometric 1/2 from 4
    """
    m = load_model(text)
    assert m.term(3) == rat(1, 4)
    assert m.term(5) == rat(1, 32)
    again = load_model(dump_model(m))
    for n in range(1, 10):
        assert again.term(n) == m.term(n)


def test_allocation_text_roundtrip():
    text = "1 1/2\n3 1/8\ntail zero from 4\n"
    alloc = load_allocation(text)
    assert alloc.amount(1) == rat(1, 2)
    assert alloc.amount(2) == ZERO
    assert alloc.amount(9) == ZERO
    assert isinstance(alloc.tail_structure, ZeroBeyond)
    again = load_allocation(dump_allocation(alloc))
    for n in range(1, 10):
        assert again.amount(n) == alloc.amount(n)


def test_bad_text_rejected():
    with pytest.raises(DomainError):
        load_model("1 1/2\n")  # missing tail line
    with pytest.raises(DomainError):
        load_model("1 1/2\n1 1/4\ntail zero from 2\n")
    with pytest.raises(DomainError):
        load_model("tail bogus 1/2 from 3\n")
    with pytest.raises(DomainError):
        load_allocation("tail inverse-power 2 from 1\n")
    with pytest.raises(DomainError, match="bad table line"):
        load_model("tail zero from 3 junk\n")
    with pytest.raises(DomainError, match="bad table line"):
        load_allocation("1 1/2\ntail geometric 1/2 from 3 4 5\n")


@pytest.mark.parametrize("build", [CustomModel, TableAllocation],
                         ids=["model", "allocation"])
def test_models_and_allocations_share_the_table_messages(build):
    with pytest.raises(DomainError, match="table values must be nonnegative"):
        build({1: rat(-1, 2)}, ZeroTail(3))
    with pytest.raises(DomainError, match="table entry at 3 collides with "
                                          "tail rule from 3"):
        build({1: rat(1, 2), 3: rat(1, 4)}, GeometricTail(rat(1, 2), 3))


def test_a_far_zero_tail_dumps_to_one_line():
    text = "tail zero from 200000\n"
    assert dump_model(load_model(text)) == text
    assert dump_allocation(load_allocation(text)) == text


_EXACT_RULES = st.one_of(
    st.builds(ZeroTail, st.integers(1, 12)),
    st.builds(GeometricTail, st.sampled_from([rat(1, 2), rat(2, 3), rat(1, 7)]),
              st.integers(1, 12)))


@settings(max_examples=60)
@given(_EXACT_RULES, st.lists(st.integers(0, 5), max_size=11),
       st.integers(1, 9), st.booleans())
def test_dump_and_load_keep_every_value_and_the_total(rule, raw, den,
                                                      as_allocation):
    # zero entries are kept in the table handed over, and dropped from dumps
    entries = {i: rat(v, den) for i, v in enumerate(raw, start=1)
               if i < rule.start}
    if as_allocation:
        before = TableAllocation(entries, rule)
        text = dump_allocation(before)
        after = load_allocation(text)
        values = before.amount, after.amount
    else:
        before = CustomModel(entries, rule)
        text = dump_model(before)
        after = load_model(text)
        values = before.term, after.term
    assert [values[0](n) for n in range(1, 31)] == [
        values[1](n) for n in range(1, 31)]
    assert before.total_cert == after.total_cert
    assert not any(line.endswith(" 0/1") for line in text.splitlines())


# ---------------------------------------------------------------------------
# allocations

def test_a_table_allocation_answers_from_its_table_model():
    alloc = TableAllocation([rat(1, 2), ZERO, rat(1, 8)], ZeroTail(4),
                            name="front")
    assert type(alloc.model) is CustomModel and alloc.model.name == "front"
    assert [alloc.amount(n) for n in range(1, 6)] == [
        alloc.model.term(n) for n in range(1, 6)]
    assert alloc.total_cert == alloc.model.total_cert == ExactTotal(rat(5, 8))
    assert dump_allocation(alloc) == dump_model(alloc.model)
    own = {name for name in vars(TableAllocation)
           if not name.startswith("__") or name == "__init__"}
    assert own == {"__init__", "amount", "total_cert", "tail_structure"}


def test_table_allocation_totals_and_structure():
    alloc = TableAllocation({1: rat(1, 2), 2: ZERO, 3: rat(1, 8)},
                            GeometricTail(rat(1, 2), 4))
    cert = alloc.total_cert
    assert isinstance(cert, ExactTotal)
    assert cert.value == rat(1, 2) + rat(1, 8) + rat(1, 8)
    s = alloc.tail_structure
    assert isinstance(s, NonIncreasingBeyond) and s.positive and s.index == 4
    # brute-force oracle for range maxima
    for a, b in ((1, 3), (2, 9), (4, 12), (7, 7)):
        assert alloc.max_in_range(a, b) == max(
            alloc.amount(i) for i in range(a, b + 1))


# ---------------------------------------------------------------------------
# relabelings

def test_relabeling_identity_and_swap():
    ident = Relabeling.identity()
    assert [ident(n) for n in range(1, 6)] == [1, 2, 3, 4, 5]
    sw = Relabeling.swap(2, 5)
    assert [sw(n) for n in range(1, 7)] == [1, 5, 3, 4, 2, 6]
    assert sw.inverse(5) == 2
    assert sw.inverse(6) == 6


def test_relabeling_fill_semantics():
    # placements put values 3 and 1 first; the fill supplies 2 at position 3
    delta = Relabeling({1: 3, 2: 1})
    assert delta.prefix(4) == [3, 1, 2, 4]
    assert delta.inverse(2) == 3
    assert delta.inverse(3) == 1


def test_relabeling_sparse_fill():
    delta = Relabeling({4: 100, 10: 2})
    seen = delta.prefix(12)
    assert seen[3] == 100 and seen[9] == 2
    assert len(set(seen)) == 12
    # fill skips the placed values
    assert seen[:3] == [1, 3, 4]


def test_relabeling_rejects_duplicates():
    with pytest.raises(PlanViolationError):
        Relabeling({1: 2, 3: 2})
    with pytest.raises(PlanViolationError):
        Relabeling({0: 1})


@settings(max_examples=60)
@given(st.dictionaries(st.integers(1, 40), st.integers(1, 40), max_size=12))
def test_relabeling_is_bijective_on_prefix(raw):
    values = list(dict.fromkeys(raw.values()))
    placements = dict(zip(sorted(raw.keys())[:len(values)], values))
    delta = Relabeling(placements)
    image = delta.prefix(60)
    assert len(set(image)) == 60
    for n in range(1, 61):
        assert delta.inverse(delta(n)) == n


# ---------------------------------------------------------------------------
# rearrangements

def test_descending_identity_for_builtins():
    for m in (geom(), InverseSquareModel(), HarmonicModel()):
        assert descending_rearrangement(m, 50).is_identity
        assert quasi_descending_rearrangement(m, 50).is_identity


def test_descending_zero_tail_example():
    # prices 1/8, 0, 1/2 then zeros: read order 3, 1, 2
    m = CustomModel({1: rat(1, 8), 3: rat(1, 2)}, ZeroTail(4))
    delta = descending_rearrangement(m, 10)
    assert delta.prefix(4) == [3, 1, 2, 4]
    values = [m.term(delta(n)) for n in range(1, 11)]
    assert all(values[i] >= values[i + 1] for i in range(9))


def test_descending_merges_table_with_tail():
    m = CustomModel({1: rat(1, 16), 2: rat(1, 3)},
                    GeometricTail(rat(1, 2), 3))
    delta = descending_rearrangement(m, 5)
    # values: 1/3 at 2, 1/8 at 3, then the tie 1/16 at 1 and 4
    assert delta.prefix(5) == [2, 3, 1, 4, 5]
    values = [m.term(delta(n)) for n in range(1, 6)]
    assert all(values[i] >= values[i + 1] for i in range(4))


@settings(max_examples=40)
@given(st.lists(st.integers(0, 12), min_size=0, max_size=8),
       st.integers(2, 4))
def test_descending_scan_is_nonincreasing(raw, den):
    entries = {i + 1: rat(v, 13) for i, v in enumerate(raw) if v}
    start = len(raw) + 1
    m = CustomModel(entries, GeometricTail(rat(1, den), start))
    if any(m.term(i) == ZERO for i in range(1, start)):
        with pytest.raises(CapabilityError):
            descending_rearrangement(m, 30)
        delta = quasi_descending_rearrangement(m, 30)
    else:
        delta = descending_rearrangement(m, 30)
    values = [m.term(delta(n)) for n in range(1, 31)]
    positives = [v for v in values if v > ZERO]
    assert all(positives[i] >= positives[i + 1]
               for i in range(len(positives) - 1))
    assert len(set(delta.prefix(30))) == 30


@pytest.mark.parametrize("text", [
    "tail zero from 2000000\n",
    "1 1/2\ntail geometric 1/2 from 3000000\n",
], ids=["zero", "geometric"])
def test_a_far_tail_start_lists_no_zero_prices(text):
    # listing the zeros ahead of the rule took 77 MiB for the zero tail
    tracemalloc.start()
    try:
        model = load_model(text)
        try:
            ordering = descending_rearrangement(model, 8)
        except CapabilityError as exc:
            ordering = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert model.term(1999999) == ZERO
    if model.rule.term(model.rule.start) > ZERO:
        assert "zeros before an infinite positive tail" in str(ordering)
    else:
        assert ordering.prefix(8) == list(range(1, 9))


def test_quasi_descending_pushes_zeros_out():
    m = CustomModel({2: rat(1, 3)}, GeometricTail(rat(1, 2), 3))
    assert [i for i in range(1, 3) if m.term(i) == ZERO] == [1]
    with pytest.raises(CapabilityError):
        descending_rearrangement(m, 8)
    delta = quasi_descending_rearrangement(m, 8)
    head = [m.term(delta(n)) for n in range(1, 9)]
    assert all(head[i] >= head[i + 1] for i in range(7))
    assert delta(9) == 1  # the zero index lands right after the horizon


def test_blackbox_has_no_descending():
    with pytest.raises(CapabilityError):
        descending_rearrangement(BlackBoxModel(lambda n: rat(1, n)), 10)


# ---------------------------------------------------------------------------
# omit_zeros

def test_omit_zeros_compresses():
    m = CustomModel({1: rat(1, 2), 3: rat(1, 4)},
                    GeometricTail(rat(1, 2), 4))
    q, alpha = omit_zeros(m, 10)
    assert alpha == {1: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 7, 9: 8, 10: 9}
    assert q.term(1) == rat(1, 2)
    assert q.term(2) == rat(1, 4)
    assert q.term(3) == rat(1, 16)
    assert q.weighted_cert is m.weighted_cert
    assert isinstance(q.total_cert, ExactTotal)


def test_omit_zeros_zero_tail():
    m = CustomModel({2: rat(1, 2), 4: rat(1, 8)}, ZeroTail(5))
    q, alpha = omit_zeros(m, 20)
    assert alpha == {2: 1, 4: 2}
    assert q.term(1) == rat(1, 2)
    assert q.term(2) == rat(1, 8)
    assert q.term(3) == ZERO


def test_omit_zeros_identity_without_zeros():
    m = geom()
    q, alpha = omit_zeros(m, 15)
    assert alpha == {i: i for i in range(1, 16)}
    for n in range(1, 16):
        assert q.term(n) == m.term(n)


# ---------------------------------------------------------------------------
# weighted partial sums

def test_weighted_partial_sum_frozen_example():
    m = InverseSquareModel()
    ident = Relabeling.identity()
    # oracle: 1*1 + 2*(1/4) = 3/2 ; swapped: 1*(1/4) + 2*1 = 9/4
    assert weighted_partial_sum(m, ident, 2) == rat(3, 2)
    assert weighted_partial_sum(m, Relabeling.swap(1, 2), 2) == rat(9, 4)
    assert weighted_partial_sum(m, ident, 0) == ZERO


@settings(max_examples=30)
@given(st.permutations(list(range(1, 8))))
def test_weighted_partial_sum_matches_oracle(perm):
    m = geom()
    delta = Relabeling.from_sequence(perm)
    total = Fraction(0)
    for n, v in enumerate(perm, start=1):
        t = m.term(v)
        total += n * Fraction(t.numerator, t.denominator)
    got = weighted_partial_sum(m, delta, len(perm))
    assert Fraction(got.numerator, got.denominator) == total
