"""Rearrangement oracles against exhaustively derived frozen values."""
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from prisoners import analyzer
from prisoners.analyzer import (
    DominanceReport, ExistenceVerdict, ZeroOmissionTrace, analysis_tsv,
    brute_force_min, check_zero_omission, cycle_notation, decide_existence,
    descending_partial_dominance,
)
from prisoners.errors import CapabilityError, DomainError
from prisoners.numeric import ZERO, lcm_units, rat, rat_str
from prisoners.sequences import (
    BlackBoxModel, CustomModel, GeometricTail, OmittedZerosModel, Relabeling,
    WeightedCert, ZeroTail, builtin_model, omit_zeros, weighted_partial_sum,
)

GEO = builtin_model("geometric", ratio=rat(1, 2))
INV = builtin_model("inverse-square")


def increasing_prefix_model():
    entries = {1: rat(1, 16), 2: rat(1, 8), 3: rat(1, 4), 4: rat(1, 2)}
    return CustomModel(entries, ZeroTail(5), name="rising")


def alternating_zero_model():
    entries = {2 * k: rat(1, 2 ** k) for k in range(1, 7)}
    return CustomModel(entries, ZeroTail(13), name="alternating")


# ---------------------------------------------------------------------------
# brute-force minimum

def test_brute_force_min_inverse_square_identity():
    value, delta = brute_force_min(INV, 4)
    assert value == rat(25, 12)
    assert delta.is_identity


def test_brute_force_min_single_index():
    value, delta = brute_force_min(GEO, 1)
    assert value == GEO.term(1) == rat(1, 2)
    assert delta.is_identity


def test_brute_force_min_increasing_prefix_reverses():
    value, delta = brute_force_min(increasing_prefix_model(), 4)
    assert delta.prefix(4) == [4, 3, 2, 1]
    assert value == rat(13, 8)


def test_brute_force_min_ties_prefer_lexicographic():
    entries = {1: rat(1, 4), 2: rat(1, 4), 3: rat(1, 4), 4: rat(1, 4)}
    flat = CustomModel(entries, ZeroTail(5), name="flat")
    value, delta = brute_force_min(flat, 4)
    assert value == rat(5, 2)
    assert delta.is_identity


def test_brute_force_min_rejects_factorial_blowup():
    with pytest.raises(DomainError) as exc:
        brute_force_min(GEO, 10)
    assert str(exc.value) == ("exhaustive scans are capped at 9 (asked for "
                              "10, which means 10! permutations)")
    with pytest.raises(DomainError):
        brute_force_min(GEO, 0)


@given(st.permutations(list(range(1, 6))))
@settings(max_examples=40, deadline=None)
def test_brute_force_min_bounds_every_arrangement(perm):
    value, _ = brute_force_min(INV, 5)
    rival = weighted_partial_sum(INV, Relabeling.from_sequence(perm), 5)
    assert value <= rival


# ---------------------------------------------------------------------------
# existence decision

def test_existence_geometric_exists():
    verdict = decide_existence(GEO)
    assert verdict.value == "Exists"
    assert verdict.justification == "converges-under-some-rearrangement"
    assert verdict.diagnostics is None


def test_existence_inverse_square_not_exists():
    assert decide_existence(INV).value == "NotExists"
    assert decide_existence(builtin_model("harmonic")).value == "NotExists"


def test_existence_black_box_unknown():
    opaque = BlackBoxModel(lambda n: rat(1, n + 1), name="opaque")
    verdict = decide_existence(opaque)
    assert verdict.value == "Unknown"
    assert verdict.diagnostics["ordering"] is None
    assert "opaque" in verdict.diagnostics["note"]


def test_existence_declared_unknown_gets_partial_sums():
    model = CustomModel({1: rat(1, 2)}, GeometricTail(rat(1, 2), 2),
                        name="hedged", weighted_cert=WeightedCert.UNKNOWN)
    verdict = decide_existence(model)
    assert verdict.value == "Unknown"
    assert verdict.diagnostics["ordering"] == "descending"
    # sum of n/2**n for n = 1..8
    assert verdict.diagnostics["partial_sums"][0] == [8, "251/128"]


def test_existence_verdict_rejects_unknown_labels():
    with pytest.raises(DomainError):
        ExistenceVerdict("Maybe", "no such thing")


# ---------------------------------------------------------------------------
# zero omission

def test_zero_omission_zero_free_is_trivial():
    trace = check_zero_omission(GEO, 4)
    assert isinstance(trace, ZeroOmissionTrace)
    assert trace.passed
    assert trace.mode == "zero-free"
    assert trace.permutations == 24
    assert all(trace.alpha[i] == i for i in range(1, 5))


def test_zero_omission_alternating_alpha_map():
    trace = check_zero_omission(alternating_zero_model(), 4)
    assert trace.passed
    assert trace.mode == "even-embedding"
    assert trace.alpha == {2: 1, 4: 2, 6: 3, 8: 4, 10: 5, 12: 6}


def test_zero_omission_doubling_identity_directly():
    model = alternating_zero_model()
    compressed, alpha = omit_zeros(model, 64)
    identity = Relabeling.identity()
    q_sum = weighted_partial_sum(compressed, identity, 4)
    assert q_sum == rat(13, 8)
    # embed q at even positions, zeros at odd ones, and sum through 8
    placements = {2 * k: 2 * k for k in range(1, 5)}
    for j in range(1, 5):
        placements[2 * j - 1] = 2 * j - 1
    sigma = Relabeling(placements)
    assert weighted_partial_sum(model, sigma, 8) == 2 * q_sum


def test_zero_omission_all_720_permutations():
    trace = check_zero_omission(alternating_zero_model(), 6)
    assert trace.passed
    assert trace.permutations == 720
    assert trace.failures == []


def test_zero_omission_needs_enough_positives():
    sparse = CustomModel({2: rat(1, 2), 4: rat(1, 4)}, ZeroTail(5),
                         name="sparse")
    with pytest.raises(CapabilityError):
        check_zero_omission(sparse, 3)


def test_zero_omission_needs_enough_zeros():
    entries = {1: rat(1, 2), 3: rat(1, 4), 4: rat(1, 8)}
    lone_zero = CustomModel(entries, GeometricTail(rat(1, 2), 5),
                            name="lone-zero")
    with pytest.raises(CapabilityError):
        check_zero_omission(lone_zero, 2)


def test_zero_omission_respects_cap():
    with pytest.raises(DomainError) as exc:
        check_zero_omission(GEO, 10)
    assert str(exc.value) == ("exhaustive scans are capped at 9 (asked for "
                              "10, which means 10! permutations)")


# ---------------------------------------------------------------------------
# descending dominance

def test_dominance_inverse_square_exhaustive():
    report = descending_partial_dominance(INV, m=5)
    assert report.passed
    assert report.mode == "exhaustive"
    assert report.checked == math.factorial(5)
    assert report.sigma == (1, 2, 3, 4, 5)
    assert report.minimum == rat(137, 60)


def test_dominance_sigma_reverses_increasing_prefix():
    report = descending_partial_dominance(increasing_prefix_model(), m=4)
    assert report.passed
    assert report.sigma == (4, 3, 2, 1)
    assert report.minimum == brute_force_min(increasing_prefix_model(), 4)[0]


def test_dominance_ties_break_toward_lower_index():
    entries = {1: rat(1, 3), 2: rat(1, 3), 3: rat(1, 3)}
    flat = CustomModel(entries, ZeroTail(4), name="flat3")
    report = descending_partial_dominance(flat, m=3)
    assert report.sigma == (1, 2, 3)


def test_dominance_sampled_arm_is_deterministic():
    entries = {
        1: rat(3, 7), 2: rat(1, 9), 3: rat(2, 5), 4: rat(5, 11),
        5: rat(1, 13), 6: rat(4, 9), 7: rat(1, 2), 8: rat(2, 17),
        9: rat(3, 19), 10: rat(1, 23), 11: rat(5, 29), 12: rat(1, 31),
    }
    jagged = CustomModel(entries, GeometricTail(rat(1, 2), 13),
                         name="jagged")
    report = descending_partial_dominance(jagged, trials=1000, m=12, seed=7)
    assert report.passed
    assert report.mode == "sampled"
    assert report.checked == 1000
    again = descending_partial_dominance(jagged, trials=1000, m=12, seed=7)
    assert again.minimum == report.minimum
    assert again.sigma == report.sigma


def test_dominance_zero_term_violates_hypothesis():
    gappy = CustomModel({1: rat(1, 2), 3: rat(1, 4)}, ZeroTail(4),
                        name="gappy")
    with pytest.raises(DomainError):
        descending_partial_dominance(gappy, m=3)


@given(st.permutations(list(range(1, 7))))
@settings(max_examples=40, deadline=None)
def test_dominance_minimum_bounds_random_rivals(perm):
    report = descending_partial_dominance(INV, m=6)
    rival = weighted_partial_sum(INV, Relabeling.from_sequence(perm), 6)
    assert report.minimum <= rival


@given(st.permutations(list(range(1, 7))))
@settings(max_examples=60, deadline=None)
def test_inverse_transform_identity(perm):
    delta = Relabeling.from_sequence(perm)
    for model in (GEO, INV):
        forward = weighted_partial_sum(model, delta, 6)
        pulled = ZERO
        for n in range(1, 7):
            pulled += delta.inverse(n) * model.term(n)
        assert forward == pulled


# ---------------------------------------------------------------------------
# report format

def test_cycle_notation_identity():
    assert cycle_notation(Relabeling.identity()) == "()"
    assert cycle_notation(Relabeling.from_sequence([1, 2, 3])) == "()"


def test_cycle_notation_orders_and_rotates():
    assert cycle_notation(Relabeling.from_sequence([2, 1, 3])) == "(1 2)"
    assert cycle_notation(
        Relabeling.from_sequence([2, 3, 1, 5, 4])) == "(1 2 3)(4 5)"


def test_cycle_notation_reaches_fill_region():
    # {3: 1} forces 1 -> 2 -> 3 around the placed point
    assert cycle_notation(Relabeling({3: 1})) == "(1 2 3)"


def test_analysis_tsv_lines():
    rows = [
        (Relabeling.identity(), rat(5, 2)),
        (Relabeling.from_sequence([2, 1]), rat(3)),
    ]
    assert analysis_tsv(rows) == "()\t5/2\n(1 2)\t3/1\n"
    assert analysis_tsv([]) == ""


def test_tsv_row_for_brute_force_result():
    value, delta = brute_force_min(increasing_prefix_model(), 4)
    line = analysis_tsv([(delta, value)])
    assert line == "(1 4)(2 3)\t13/8\n"
    assert rat_str(value) == "13/8"


# ---------------------------------------------------------------------------
# integer scans against plain rational references
#
# Each reference walks the arrangements with Fraction sums through
# weighted_partial_sum and Relabeling, the way the scans did before they
# summed integers over a common denominator.

GEO_TWO_THIRDS = builtin_model("geometric", ratio=rat(2, 3))
# ties at 1/4 and 1/8, zeros at 3, 6, 8 and from 10 on
TIED_ZEROS = CustomModel(
    {1: rat(1, 4), 2: rat(1, 4), 4: rat(1, 8), 5: rat(1, 4), 7: rat(1, 8),
     9: rat(1, 8)}, ZeroTail(10), name="tied-zeros")
# pairwise coprime denominators: their LCM has 391 bits
WIDE_LCM = CustomModel(
    {1: rat(1, 2 ** 31 - 1), 2: rat(3, 10 ** 9 + 7), 3: rat(2, 3 ** 20),
     4: rat(5, 10 ** 9 + 9), 5: rat(1, 7 ** 11), 6: rat(7, 2 ** 61 - 1),
     7: rat(1, 5 ** 13), 8: rat(4, 11 ** 9), 9: rat(1, 13 ** 8),
     10: rat(2, 17 ** 7), 11: rat(1, 19 ** 7), 12: rat(3, 23 ** 6)},
    GeometricTail(rat(1, 2), 13), name="wide-lcm")
ORACLE_MODELS = [INV, GEO_TWO_THIRDS, TIED_ZEROS, WIDE_LCM]
oracle_models = st.sampled_from(ORACLE_MODELS)


def reference_min(model, m):
    best = None
    for perm in itertools.permutations(range(1, m + 1)):
        value = weighted_partial_sum(model, Relabeling.from_sequence(perm), m)
        if best is None or value < best[0]:
            best = (value, list(perm))
    return best


def reference_dominance(model, m, trials, seed):
    terms = {i: model.term(i) for i in range(1, m + 1)}
    sigma = sorted(range(1, m + 1), key=lambda i: (-terms[i], i))
    minimum = weighted_partial_sum(model, Relabeling.from_sequence(sigma), m)
    if m <= 9:
        rivals = (list(p) for p in itertools.permutations(range(1, m + 1)))
    else:
        rng = random.Random(seed)
        base = list(range(1, m + 1))

        def shuffles():
            for _ in range(trials):
                rng.shuffle(base)
                yield list(base)
        rivals = shuffles()
    checked = 0
    failures = []
    for perm in rivals:
        checked += 1
        value = weighted_partial_sum(model, Relabeling.from_sequence(perm), m)
        if not minimum <= value:
            failures.append({"delta": perm, "sum": rat_str(value)})
    return checked, minimum, failures


def reference_zero_omission(model, m):
    horizon = max(4 * m, 64)
    compressed, alpha = omit_zeros(model, horizon)
    failures = [{"kind": "alpha", "index": i, "position": k}
                for i, k in alpha.items()
                if compressed.term(k) != model.term(i)]
    zeros = [i for i in range(1, horizon + 1) if model.term(i) == ZERO]
    if not zeros:
        failures += [{"kind": "alpha", "index": i, "position": alpha.get(i)}
                     for i in range(1, m + 1) if alpha.get(i) != i]
    beta = [compressed.original_index(k) for k in range(1, m + 1)]
    for perm in itertools.permutations(range(1, m + 1)):
        delta = Relabeling.from_sequence(perm)
        p_sum = weighted_partial_sum(model, delta, m)
        q_sum = weighted_partial_sum(compressed, delta, m)
        if not zeros:
            if p_sum != q_sum:
                failures.append({"delta": list(perm), "kind": "identity",
                                 "lhs": rat_str(q_sum),
                                 "rhs": rat_str(p_sum)})
            continue
        induced = ZERO
        k = 0
        for idx in perm:
            if model.term(idx) > ZERO:
                k += 1
                induced += k * compressed.term(alpha[idx])
        if not induced <= p_sum:
            failures.append({"delta": list(perm), "kind": "induced",
                             "lhs": rat_str(induced), "rhs": rat_str(p_sum)})
        placements = {2 * k: beta[perm[k - 1] - 1] for k in range(1, m + 1)}
        for j in range(1, m + 1):
            placements[2 * j - 1] = zeros[j - 1]
        embedded = weighted_partial_sum(model, Relabeling(placements), 2 * m)
        if embedded != 2 * q_sum:
            failures.append({"delta": list(perm), "kind": "doubling",
                             "lhs": rat_str(embedded),
                             "rhs": rat_str(2 * q_sum)})
    mode = "even-embedding" if zeros else "zero-free"
    return mode, failures


@given(oracle_models, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_brute_force_min_matches_the_rational_reference(model, m):
    value, delta = brute_force_min(model, m)
    expected, minimizer = reference_min(model, m)
    assert type(value) is type(expected)
    assert value == expected
    assert delta.prefix(m) == minimizer


def test_brute_force_min_ties_keep_the_lexicographic_least():
    # 1 2 5 tie at 1/4 and 4 7 9 at 1/8; zeros at 3 and 6 go last
    value, delta = brute_force_min(TIED_ZEROS, 7)
    assert (value, delta.prefix(7)) == reference_min(TIED_ZEROS, 7)
    assert delta.prefix(7) == [1, 2, 5, 4, 7, 3, 6]


@given(oracle_models, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_dominance_matches_the_rational_reference(model, m):
    if any(model.term(i) <= ZERO for i in range(1, m + 1)):
        with pytest.raises(DomainError):
            descending_partial_dominance(model, m=m)
        return
    report = descending_partial_dominance(model, m=m)
    checked, minimum, failures = reference_dominance(model, m, 1000, 0)
    assert report.mode == "exhaustive"
    assert report.checked == checked
    assert type(report.minimum) is type(minimum)
    assert report.minimum == minimum
    assert report.failures == failures


@pytest.mark.parametrize("model", [INV, GEO_TWO_THIRDS, WIDE_LCM],
                         ids=["inverse-square", "geometric-2/3", "wide-lcm"])
def test_sampled_dominance_matches_the_rational_reference(model):
    report = descending_partial_dominance(model, trials=300, m=12, seed=11)
    checked, minimum, failures = reference_dominance(model, 12, 300, 11)
    assert report.mode == "sampled"
    assert report.checked == checked == 300
    assert type(report.minimum) is type(minimum)
    assert report.minimum == minimum
    assert report.failures == failures


@given(st.sampled_from(ORACLE_MODELS + [alternating_zero_model()]),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_zero_omission_matches_the_rational_reference(model, m):
    trace = check_zero_omission(model, m)
    mode, failures = reference_zero_omission(model, m)
    assert trace.mode == mode
    assert trace.permutations == math.factorial(m)
    assert trace.failures == failures
    assert trace.passed == (not failures)


def test_zero_omission_covers_both_modes():
    assert check_zero_omission(TIED_ZEROS, 4).mode == "even-embedding"
    assert check_zero_omission(WIDE_LCM, 4).mode == "zero-free"


@pytest.mark.parametrize("shift", [
    lambda value: value + rat(1, 3), lambda value: value / 2,
], ids=["lifted", "halved"])
@pytest.mark.parametrize("model", [alternating_zero_model(), TIED_ZEROS,
                                   GEO_TWO_THIRDS, WIDE_LCM],
                         ids=["alternating", "tied-zeros", "geometric-2/3",
                              "wide-lcm"])
def test_perturbed_zero_omission_fails_like_the_reference(monkeypatch, model,
                                                          shift):
    plain = OmittedZerosModel.term

    def perturbed(self, n):
        value = plain(self, n)
        return shift(value) if n == 2 else value

    monkeypatch.setattr(OmittedZerosModel, "term", perturbed)
    trace = check_zero_omission(model, 4)
    mode, failures = reference_zero_omission(model, 4)
    assert not trace.passed
    assert trace.mode == mode
    assert trace.failures == failures
    kinds = {f["kind"] for f in failures}
    assert kinds >= {"alpha", "identity" if mode == "zero-free"
                     else "doubling"}
    for found, expected in zip(trace.failures, failures):
        for key in ("kind", "lhs", "rhs"):
            assert found.get(key) == expected.get(key)


# ---------------------------------------------------------------------------
# the subset table against the plain scan
#
# The minimum and dominance scans list only the arrangements below a bound,
# pruned by a table of least completions.  The reference is the plain scan
# they replaced: every arrangement of 1..m in lexicographic order, scored
# one by one in integers.

def plain_scan(ints):
    """Each arrangement of 1..m in lexicographic order, with the integer sum
    of n * ints[perm[n - 1] - 1]."""
    weights = range(1, len(ints) + 1)
    for perm, vals in zip(itertools.permutations(weights),
                          itertools.permutations(ints)):
        yield perm, sum(map(operator.mul, weights, vals))


def listed_below(ints, bound):
    least = analyzer._least_completions(ints)
    return list(analyzer._arrangements_below(ints, least, bound))


# ties and zeros, signed small values, and signed values far apart
INT_POOLS = [(-1, 0, 0, 1), tuple(range(-4, 5)),
             (-(10 ** 30), -7, 0, 3, 10 ** 30 + 1, 2 ** 100)]


@pytest.mark.parametrize("m", range(1, 9))
def test_listing_below_a_bound_is_the_plain_scans_filter(m):
    rng = random.Random(f"subset-table-{m}")
    for pool in INT_POOLS:
        ints = [rng.choice(pool) for _ in range(m)]
        scored = list(plain_scan(ints))
        least = analyzer._least_completions(ints)
        perm, best = min(scored, key=operator.itemgetter(1))
        assert least[0] == best, ints
        top = max(value for _, value in scored)
        bounds = [best, best + 1, rng.randint(best, top), top + 1]
        for bound in bounds:
            expected = [(p, v) for p, v in scored if v < bound]
            assert listed_below(ints, bound) == expected, (ints, bound)
        # the first entry below least + 1 is the scan's first minimum
        assert listed_below(ints, best + 1)[0] == (perm, best)
        assert listed_below(ints, top + 1) == scored


@pytest.mark.parametrize("m", range(1, 7))
def test_least_completion_of_every_label_subset(m):
    rng = random.Random(f"least-{m}")
    ints = [rng.randint(-3, 3) for _ in range(m)]
    least = analyzer._least_completions(ints)
    assert len(least) == 2 ** m and least[-1] == 0
    for mask in range(2 ** m):
        free = [x for x in range(m) if not mask >> x & 1]
        start = m - len(free) + 1
        assert least[mask] == min(
            sum(n * ints[x] for n, x in enumerate(order, start=start))
            for order in itertools.permutations(free)), (ints, mask)


@pytest.mark.parametrize("m", [7, 8])
def test_scans_match_the_plain_scan_on_grid_prefixes(m):
    rng = random.Random(f"grid-prefixes-{m}")
    for case in range(20):
        entries = {i: rat(rng.randint(1, 64), 64) for i in range(1, m + 1)}
        model = CustomModel(entries, ZeroTail(m + 1), name=f"prefix[{case}]")
        ints = [64 * entries[i].numerator // entries[i].denominator
                for i in range(1, m + 1)]
        scored = list(plain_scan(ints))
        perm, best = min(scored, key=operator.itemgetter(1))
        value, delta = brute_force_min(model, m)
        assert (value, tuple(delta.prefix(m))) == (rat(best, 64), perm), case
        report = descending_partial_dominance(model, m=m)
        sigma_sum = sum(n * ints[i - 1]
                        for n, i in enumerate(report.sigma, start=1))
        assert report.failures == [
            {"delta": list(p), "sum": rat_str(rat(v, 64))}
            for p, v in scored if v < sigma_sum], case
        assert report.passed and report.mode == "exhaustive"
        assert report.checked == math.factorial(m)
        assert report.minimum == value


def test_dominance_failures_follow_the_plain_scan_on_a_faulty_table(
        monkeypatch):
    # reverse the integer prices after sigma is sorted: sigma becomes the
    # unique maximizer, so every other arrangement is a failure
    plain = analyzer.lcm_units

    def reversed_units(values):
        ints, scale = plain(values)
        return ints[::-1], scale

    monkeypatch.setattr(analyzer, "lcm_units", reversed_units)
    report = descending_partial_dominance(INV, m=7)
    ints, scale = reversed_units([INV.term(i) for i in range(1, 8)])
    sigma_sum = sum(n * ints[i - 1]
                    for n, i in enumerate(report.sigma, start=1))
    expected = [{"delta": list(p), "sum": rat_str(rat(v, scale))}
                for p, v in plain_scan(ints) if v < sigma_sum]
    assert len(expected) == 5039
    assert not report.passed
    assert report.failures == expected
    assert report.checked == 5040


# ---------------------------------------------------------------------------
# the factorial cap

def test_brute_force_min_at_the_cap_is_the_harmonic_number():
    value, delta = brute_force_min(INV, 9)
    assert value == sum((rat(1, n) for n in range(1, 10)), ZERO)
    assert value == rat(7129, 2520)
    assert delta.is_identity


def test_dominance_at_the_cap_is_exhaustive():
    report = descending_partial_dominance(INV, m=9)
    assert report.passed and report.mode == "exhaustive"
    assert report.checked == math.factorial(9)
    assert report.minimum == rat(7129, 2520)


@pytest.mark.parametrize("model, mode", [
    (GEO, "zero-free"),
    (CustomModel({2 * k: rat(1, 2 ** k) for k in range(1, 11)}, ZeroTail(21),
                 name="alternating-10"), "even-embedding"),
], ids=["geometric-1/2", "alternating-10"])
def test_zero_omission_at_the_cap_lists_no_arrangement(model, mode):
    trace = check_zero_omission(model, 9)
    assert trace.passed and trace.failures == []
    assert trace.mode == mode
    assert trace.permutations == math.factorial(9)


# ---------------------------------------------------------------------------
# the subset table with a rank term, and zero omission from it
#
# A step may also subtract r * b[x], r counting the labels of the mask pos
# placed before x, plus one; zero omission lists its failing arrangements
# this way.  The references are plain scans: every arrangement of 1..m in
# lexicographic order, scored one by one in integers.

def plain_ranked_scan(a, b, pos):
    """Each arrangement of 1..m in lexicographic order, with the integer sum
    of n * a[x] - r * b[x] over the labels x + 1 it places at positions n."""
    for perm in itertools.permutations(range(1, len(a) + 1)):
        total = placed = 0
        for n, label in enumerate(perm, start=1):
            x = label - 1
            total += n * a[x] - (placed + 1) * b[x]
            placed += pos >> x & 1
        yield perm, total


@pytest.mark.parametrize("m", range(1, 8))
def test_ranked_listing_below_a_bound_is_the_plain_scans_filter(m):
    rng = random.Random(f"ranked-{m}")
    for pool in INT_POOLS:
        a = [rng.choice(pool) for _ in range(m)]
        b = [rng.choice(pool) for _ in range(m)]
        pos = rng.getrandbits(m)
        scored = list(plain_ranked_scan(a, b, pos))
        least = analyzer._least_completions(a, b, pos)
        best = min(value for _, value in scored)
        top = max(value for _, value in scored)
        assert least[0] == best, (a, b, pos)
        for bound in (0, best, best + 1, rng.randint(best, top), top + 1):
            expected = [(p, v) for p, v in scored if v < bound]
            assert list(analyzer._arrangements_below(
                a, least, bound, b, pos)) == expected, (a, b, pos, bound)
        differ = [(p, v) for p, v in plain_scan(
            [u - v for u, v in zip(a, b)]) if v != 0]
        assert [p for p, _ in analyzer._nonzero(a, b)] == [
            p for p, _ in differ], (a, b)


@pytest.mark.parametrize("m", range(1, 6))
def test_ranked_least_completion_of_every_label_subset(m):
    rng = random.Random(f"ranked-least-{m}")
    a = [rng.randint(-3, 3) for _ in range(m)]
    b = [rng.randint(-3, 3) for _ in range(m)]
    pos = rng.getrandbits(m)
    least = analyzer._least_completions(a, b, pos)
    assert len(least) == 2 ** m and least[-1] == 0
    for mask in range(2 ** m):
        free = [x for x in range(m) if not mask >> x & 1]
        start = m - len(free) + 1

        def completion(order):
            total, placed = 0, (mask & pos).bit_count()
            for n, x in enumerate(order, start=start):
                total += n * a[x] - (placed + 1) * b[x]
                placed += pos >> x & 1
            return total
        assert least[mask] == min(
            map(completion, itertools.permutations(free))), (a, b, mask)


def plain_zero_omission(model, m):
    """(mode, failures) of check_zero_omission as the integer scan over all
    m! arrangements computed it, before it listed only the failing ones."""
    horizon = max(4 * m, 64)
    compressed, alpha = omit_zeros(model, horizon)
    failures = [{"kind": "alpha", "index": i, "position": k}
                for i, k in alpha.items()
                if compressed.term(k) != model.term(i)]
    zeros = [i for i in range(1, horizon + 1) if model.term(i) == ZERO]
    weights = range(1, m + 1)

    def weighted(table, perm):
        return sum(map(operator.mul, weights, map(table.__getitem__, perm)))

    def text(value):
        return rat_str(rat(value, scale))

    if not zeros:
        failures += [{"kind": "alpha", "index": i, "position": alpha.get(i)}
                     for i in weights if alpha.get(i) != i]
        ints, scale = lcm_units([model.term(i) for i in weights]
                                + [compressed.term(k) for k in weights])
        p, q = [0] + ints[:m], [0] + ints[m:]
        for perm in itertools.permutations(weights):
            p_sum, q_sum = weighted(p, perm), weighted(q, perm)
            if p_sum != q_sum:
                failures.append({"delta": list(perm), "kind": "identity",
                                 "lhs": text(q_sum), "rhs": text(p_sum)})
        return "zero-free", failures

    beta = [compressed.original_index(k) for k in weights]
    p_terms = [model.term(i) for i in weights]
    ints, scale = lcm_units(
        p_terms
        + [compressed.term(k) for k in weights]
        + [compressed.term(alpha[i]) if v > ZERO else ZERO
           for i, v in enumerate(p_terms, start=1)]
        + [model.term(i) for i in beta]
        + [model.term(i) for i in zeros[:m]])
    p, q, q_alpha, p_beta, p_zero = (
        [0] + ints[c * m:(c + 1) * m] for c in range(5))
    odd = sum((2 * j - 1) * p_zero[j] for j in weights)
    for perm in itertools.permutations(weights):
        induced = k = 0
        for idx in perm:
            if p[idx] > 0:
                k += 1
                induced += k * q_alpha[idx]
        p_sum = weighted(p, perm)
        if not induced <= p_sum:
            failures.append({"delta": list(perm), "kind": "induced",
                             "lhs": text(induced), "rhs": text(p_sum)})
        q_sum = weighted(q, perm)
        embedded = 2 * weighted(p_beta, perm) + odd
        if embedded != 2 * q_sum:
            failures.append({"delta": list(perm), "kind": "doubling",
                             "lhs": text(embedded), "rhs": text(2 * q_sum)})
    return "even-embedding", failures


# (prices, shifts of the compressed prices, denominators): small integers
# with ties and zeros, whose weighted sums often agree, and values far apart
OMISSION_POOLS = [((1, 1, 2, 3), (-2, -1, 0, 0, 1, 2), (1,)),
                  ((1, 3, 10 ** 30 + 1, 2 ** 100),
                   (-(10 ** 30), -7, 0, 3, 2 ** 100), (1, 7, 2 ** 61 - 1))]


def seeded_omission_case(rng, m, mode, pool):
    """A table model with m to m + 2 positive prices below index 2m + 3,
    with a geometric tail from there in zero-free mode and zeros between
    them and from there on in even-embedding mode, and a draw of shifts."""
    prices, shifts, denominators = pool

    def draw(nums):
        return rat(rng.choice(nums), rng.choice(denominators))

    if mode == "zero-free":
        slots = range(1, 2 * m + 3)
        rule = GeometricTail(rat(1, 2), 2 * m + 3)
    else:
        slots = rng.sample(range(1, 2 * m + 3), m + rng.randint(0, 2))
        rule = ZeroTail(2 * m + 3)
    model = CustomModel({i: draw(prices) for i in slots}, rule,
                        name=f"seeded-{mode}-{m}")
    return model, lambda: draw(shifts)


@pytest.mark.parametrize("mode", ["zero-free", "even-embedding"])
@pytest.mark.parametrize("m", range(1, 8))
def test_zero_omission_lists_the_plain_scans_failures(monkeypatch, m, mode):
    rng = random.Random(f"omission-{mode}-{m}")
    plain = OmittedZerosModel.term
    for pool in OMISSION_POOLS:
        for shifted in ("none", "one", "all"):
            model, shift = seeded_omission_case(rng, m, mode, pool)
            # compressed prices shifted at no position, one, or all of them
            keys = {"none": [], "one": [rng.randint(1, m)],
                    "all": range(1, 2 * m + 3)}[shifted]
            offset = {k: shift() for k in keys}
            monkeypatch.setattr(
                OmittedZerosModel, "term",
                lambda self, n: plain(self, n) + offset.get(n, ZERO))
            trace = check_zero_omission(model, m)
            expected_mode, failures = plain_zero_omission(model, m)
            assert trace.mode == expected_mode == mode
            assert trace.failures == failures, (model._table, offset)
            assert trace.passed == (not failures)
            assert trace.permutations == math.factorial(m)
            if shifted == "none":
                assert trace.passed


def test_zero_omission_lists_both_failures_of_one_arrangement_in_order(
        monkeypatch):
    # compressed prices 100 times too high: every induced sum exceeds its
    # p-sum and every embedded sum misses the doubled q-sum
    plain = OmittedZerosModel.term
    monkeypatch.setattr(OmittedZerosModel, "term",
                        lambda self, n: 100 * plain(self, n))
    model = alternating_zero_model()
    trace = check_zero_omission(model, 6)
    assert trace.failures == plain_zero_omission(model, 6)[1]
    listed = trace.failures[len(trace.alpha):]
    assert len(listed) == 2 * 720
    for arrangement, (induced, doubling) in zip(
            itertools.permutations(range(1, 7)),
            zip(listed[::2], listed[1::2])):
        assert induced["delta"] == doubling["delta"] == list(arrangement)
        assert (induced["kind"], doubling["kind"]) == ("induced", "doubling")
