"""Exact arithmetic and certified bracket tests.

Expected values are produced by independent brute-force oracles (plain
Fraction loops) and frozen as literals where small.
"""
from __future__ import annotations

import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prisoners.errors import (
    DomainError, EmptyRangeError, UndecidedComparisonError,
)
from prisoners.numeric import (
    BACKEND, Cmp, LN2_HI, LN2_LO, ONE, Rat, RatInterval, ZERO,
    compare_certified, geometric_sum, geometric_tail, harmonic_sum, int_str,
    least_index, ln_bounds, parse_rat, power_sum, power_tail_bounds, rat,
    rat_ceil, rat_floor, rat_str, rat_sum, require_certified,
)
from prisoners.sequences import (
    HARMONIC, ExactTotal, GeometricTail, HarmonicModel, InversePowerTail,
    ZeroTail, builtin_model,
)


def oracle_power_sum(exponent: int, a: int, b: int) -> Fraction:
    total = Fraction(0)
    for i in range(a, b + 1):
        total += Fraction(1, i ** exponent)
    return total


def as_fraction(q) -> Fraction:
    return Fraction(q.numerator, q.denominator)


def test_backend_identified():
    assert BACKEND == "fraction"
    assert Rat is Fraction


def test_rat_construction_and_strings():
    assert rat(3, 6) == rat("1/2")
    assert rat_str(rat(3, 6)) == "1/2"
    assert rat_str(rat(4)) == "4/1"
    assert parse_rat(" -7 / 2 ") == rat(-7, 2)
    assert rat_ceil(rat(7, 2)) == 4
    assert rat_ceil(rat(4)) == 4
    assert rat_floor(rat(7, 2)) == 3


def _digit_limit() -> int:
    # interpreters before 3.10.7 have no digit limit and no getter
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60000), st.booleans(), st.integers(0, 2 ** 64))
def test_int_str_gives_every_digit_past_the_limit(bits, negative, low):
    limit = _digit_limit()
    n = (1 << bits) + low
    n = -n if negative else n
    assert int_str(n) == str(decimal.Decimal(n))
    assert _digit_limit() == limit


def test_int_str_without_a_digit_limit_getter(monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert int_str(-(3 ** 50)) == str(-(3 ** 50))
    assert rat_str(Fraction(7, 2 ** 70)) == f"7/{2 ** 70}"


def test_rat_str_of_a_value_past_the_digit_limit():
    q = Fraction(3 ** 12000, 2 ** 30001)
    assert rat_str(q) == (f"{decimal.Decimal(3 ** 12000)}/"
                          f"{decimal.Decimal(2 ** 30001)}")


@given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))
def test_rat_string_roundtrip(num, den):
    q = rat(num, den)
    assert parse_rat(rat_str(q)) == q


@settings(max_examples=60)
@given(st.lists(st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90),
              st.integers(1, 2 ** 120))), max_size=40))
def test_rat_sum_matches_a_plain_fraction_fold(values):
    total = Fraction(0)
    for value in values:
        total += value
    got = rat_sum(values)
    assert got == total and type(got) is Fraction
    assert got.denominator == total.denominator


def test_harmonic_sum_frozen_values():
    # Oracle: 1 + 1/2 + 1/3 + 1/4 and 1/3 + ... + 1/7.
    assert oracle_power_sum(1, 1, 4) == Fraction(25, 12)
    assert oracle_power_sum(1, 3, 7) == Fraction(153, 140)
    assert harmonic_sum(1, 4) == rat(25, 12)
    assert harmonic_sum(3, 7) == rat(153, 140)
    assert harmonic_sum(1, 7) == rat(363, 140)
    assert harmonic_sum(5, 5) == rat(1, 5)


@given(st.integers(1, 400), st.integers(0, 60), st.integers(1, 60))
def test_harmonic_sum_split_additivity(a, i, j):
    b = a + i
    c = b + j
    assert harmonic_sum(a, c) == harmonic_sum(a, b) + harmonic_sum(b + 1, c)


def test_harmonic_sum_matches_oracle_on_larger_range():
    assert as_fraction(harmonic_sum(17, 403)) == oracle_power_sum(1, 17, 403)


def test_sum_range_errors():
    with pytest.raises(EmptyRangeError):
        harmonic_sum(5, 4)
    with pytest.raises(DomainError):
        harmonic_sum(0, 4)
    with pytest.raises(DomainError):
        power_sum(0, 1, 4)


def test_power_sum_matches_oracle():
    assert as_fraction(power_sum(2, 1, 50)) == oracle_power_sum(2, 1, 50)
    assert as_fraction(power_sum(3, 4, 90)) == oracle_power_sum(3, 4, 90)


@pytest.mark.parametrize("exponent", [1, 2, 3])
@pytest.mark.parametrize("length", [1, 63, 64, 65, 129, 300])
@pytest.mark.parametrize("a", [1, 997])
def test_power_sum_leaves_match_plain_fraction_sums(exponent, length, a):
    # 64 terms make one leaf; 63..65 and 129 straddle the leaf boundary
    b = a + length - 1
    got = as_fraction(power_sum(exponent, a, b))
    want = sum((Fraction(1, i ** exponent) for i in range(a, b + 1)),
               Fraction(0))
    assert got == want
    assert got.denominator == want.denominator


def test_geometric_sum_and_tail():
    half = rat(1, 2)
    total = Fraction(0)
    for i in range(3, 11):
        total += Fraction(1, 2) ** i
    assert as_fraction(geometric_sum(half, 3, 10)) == total
    # tail(n) = r**n / (1 - r); recurrence tail(n) = r**n + tail(n + 1)
    for n in (1, 2, 9):
        assert geometric_tail(half, n) == half ** n + geometric_tail(half, n + 1)
    assert geometric_tail(half, 1) == ONE
    assert geometric_tail(rat(2, 3), 2) == rat(4, 3)
    with pytest.raises(DomainError):
        geometric_tail(rat(3, 2), 1)
    with pytest.raises(DomainError):
        geometric_sum(ONE, 1, 2)


def test_power_tail_bracket_example():
    # Tail of 1/i**2 from 1 is pi**2/6 = 1.6449...; a bracket of width
    # 1/15 must already separate it from 8/5 and 5/3.
    iv = power_tail_bounds(2, 1, rat(1, 15))
    assert iv.width <= rat(1, 15)
    assert iv.lo > rat(8, 5)
    assert iv.hi < rat(5, 3)


def test_power_tail_bracket_contains_true_value():
    # Squeeze: a very tight bracket for the same tail must sit inside any
    # looser one.
    loose = power_tail_bounds(2, 3, rat(1, 10))
    tight = power_tail_bounds(2, 3, rat(1, 10 ** 9))
    assert loose.lo <= tight.lo <= tight.hi <= loose.hi


def test_power_tail_refinement_is_nested():
    iv = power_tail_bounds(3, 2, rat(1, 7))
    for _ in range(8):
        nxt = iv.refine()
        assert nxt.lo >= iv.lo
        assert nxt.hi <= iv.hi
        assert nxt.width < iv.width
        iv = nxt


def test_power_tail_prefix_consistency():
    # The exact partial sum over [n, m] must lie inside the difference of
    # the brackets for the tails at n and at m + 1.
    n, m = 2, 40
    exact = power_sum(2, n, m)
    tail_n = power_tail_bounds(2, n, rat(1, 10 ** 6))
    tail_m = power_tail_bounds(2, m + 1, rat(1, 10 ** 6))
    assert tail_n.lo - tail_m.hi <= exact <= tail_n.hi - tail_m.lo


def test_power_tail_domain_errors():
    with pytest.raises(DomainError):
        power_tail_bounds(1, 1, rat(1, 10))
    with pytest.raises(DomainError):
        power_tail_bounds(2, 0, rat(1, 10))
    with pytest.raises(DomainError):
        power_tail_bounds(2, 1, ZERO)


def test_compare_certified_rational_inputs():
    assert compare_certified(rat(1, 2), rat(1, 2)) is Cmp.EQUAL
    assert compare_certified(rat(1, 3), rat(1, 2)) is Cmp.LESS
    assert compare_certified(rat(2, 3), rat(1, 2)) is Cmp.GREATER


def test_compare_certified_interval_refines_to_verdict():
    iv = power_tail_bounds(2, 1, rat(1, 2))
    assert compare_certified(iv, rat(8, 5)) is Cmp.GREATER
    assert compare_certified(iv, rat(5, 3)) is Cmp.LESS
    assert compare_certified(iv, rat(2)) is Cmp.LESS
    assert compare_certified(iv, rat(1)) is Cmp.GREATER


def test_compare_certified_undecided_without_refinement():
    iv = RatInterval(rat(1, 3), rat(2, 3))
    assert compare_certified(iv, rat(1, 2)) is Cmp.UNDECIDED
    assert compare_certified(iv, rat(1, 4)) is Cmp.GREATER


def test_require_certified_raises_when_refinement_runs_out():
    # every refinement hands back the same bracket, so 1/2 never leaves it
    stuck = RatInterval(rat(1, 3), rat(2, 3), lambda: stuck)
    assert compare_certified(stuck, rat(1, 2), 5) is Cmp.UNDECIDED
    with pytest.raises(UndecidedComparisonError) as exc:
        require_certified(stuck, rat(1, 2), 5)
    assert str(exc.value) == ("could not separate interval from 1/2 "
                              "within 5 refinements")
    with pytest.raises(UndecidedComparisonError, match="within 64 "):
        require_certified(stuck, rat(1, 2))
    assert require_certified(stuck, rat(3, 4)) is Cmp.LESS


def test_compare_certified_reads_a_bracket_refined_to_a_point():
    point = RatInterval(rat(1, 2), rat(1, 2))
    closing = RatInterval(rat(1, 3), rat(2, 3), lambda: point)
    assert compare_certified(closing, rat(1, 2)) is Cmp.EQUAL
    assert require_certified(closing, rat(1, 2)) is Cmp.EQUAL
    assert compare_certified(point, rat(2, 5)) is Cmp.GREATER
    assert compare_certified(point, rat(3, 5)) is Cmp.LESS


def test_interval_shift_and_scale_preserve_refinement():
    iv = power_tail_bounds(2, 5, rat(1, 3))
    shifted = iv.shift(rat(7, 2))
    assert shifted.lo == iv.lo + rat(7, 2)
    ref = shifted.refine()
    assert ref.width < shifted.width
    scaled = iv.scale(rat(1, 2))
    assert scaled.hi == iv.hi / 2
    assert scaled.refine().width < scaled.width


_RATIONALS = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=10 ** 6))
_FACTORS = st.one_of(
    st.integers(0, 20),
    st.fractions(min_value=0, max_value=20, max_denominator=10 ** 6))


def _bounds(iv: RatInterval) -> tuple:
    return iv.lo, iv.hi, iv.refinable


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 50), _RATIONALS, _FACTORS)
def test_interval_operators_are_shift_and_scale(exponent, n, q, k):
    iv = power_tail_bounds(exponent, n, rat(1, 10))
    pairs = [(q + iv, iv.shift(q)), (iv + q, iv.shift(q)),
             (k * iv, iv.scale(k)), (iv * k, iv.scale(k))]
    for left, right in pairs:
        for _ in range(3):
            assert _bounds(left) == _bounds(right)
            left, right = left.refine(), right.refine()
    with pytest.raises(DomainError):
        -1 * iv
    with pytest.raises(DomainError):
        iv * rat(-1, 3)


@given(_RATIONALS, st.fractions(min_value=Fraction(1, 10 ** 9),
                                max_value=1))
def test_exact_total_interval_is_degenerate(value, width):
    iv = ExactTotal(value).interval(width)
    assert (iv.lo, iv.hi) == (value, value)
    assert type(iv.lo) is Rat and not iv.refinable
    assert iv.refine() == iv


def _sum_bracket(a: RatInterval, b: RatInterval) -> RatInterval:
    return RatInterval(a.lo + b.lo, a.hi + b.hi,
                       lambda: _sum_bracket(a.refine(), b.refine()))


def _refines_into(inner: RatInterval, outer: RatInterval) -> bool:
    for _ in range(12):
        if outer.lo <= inner.lo and inner.hi <= outer.hi:
            return True
        inner = inner.refine()
    return False


_RULES = st.one_of(
    st.builds(ZeroTail, st.integers(1, 30)),
    st.builds(GeometricTail,
              st.fractions(min_value=Fraction(1, 100),
                           max_value=Fraction(99, 100), max_denominator=100),
              st.integers(1, 30)),
    st.builds(InversePowerTail, st.integers(3, 5), st.integers(1, 30)))


@settings(max_examples=60, deadline=None)
@given(_RULES, st.integers(1, 40))
def test_rule_second_tail_meets_the_tail_recurrence(rule, m):
    def tail(n):
        return rule.tail(max(n, rule.start))

    def second_tail(n):
        return rule.second_tail(n, max(n, rule.start), "rule")

    if rule.exact:
        assert second_tail(m) == tail(m) + second_tail(m + 1)
        return
    whole = second_tail(m)
    recurrence = _sum_bracket(tail(m), second_tail(m + 1))
    assert _refines_into(whole, recurrence)
    assert _refines_into(recurrence, whole)


def test_harmonic_model_matches_plain_fraction_sums():
    # plain H_0 .. H_5001, across the cached list's cap of 5000
    plain = [Fraction(0)]
    for i in range(1, 5002):
        plain.append(plain[-1] + Fraction(1, i))
    model = HarmonicModel()
    for n in (0, 30, 4999, 5000, 5001):
        assert model.prefix_sum(n) == plain[n]
    assert model.prefix_sum(-4) == ZERO
    for a, b in ((1, 5001), (4990, 5001), (5000, 5001), (5001, 5001),
                 (2, 5000), (4999, 5000), (17, 30)):
        assert model.range_sum(a, b) == plain[b] - plain[a - 1]
        assert HARMONIC.range_sum(a, b) == plain[b] - plain[a - 1]
    # bad ranges raise the same errors below and above the list's cap
    for a, b, error in ((0, 10, DomainError), (-3, 6000, DomainError),
                        (Fraction(3), 10, DomainError),
                        (10, 9, EmptyRangeError),
                        (5000, 4999, EmptyRangeError),
                        (6001, 6000, EmptyRangeError)):
        with pytest.raises(error):
            model.range_sum(a, b)
    assert builtin_model("harmonic") is HARMONIC


def _probed_least_index(threshold: int, lo: int, cap):
    probes = []

    def pred(n: int) -> bool:
        probes.append(n)
        return n >= threshold

    return least_index(pred, lo, cap), probes


@settings(max_examples=300)
@given(st.integers(-50, 10 ** 6), st.integers(-1, 3000),
       st.sampled_from(["lo", "inside", "cap", "above", "far-below"]),
       st.integers(0, 3000), st.booleans())
@example(lo=1, width=0, where="lo", offset=0, capped=True)
@example(lo=5, width=-1, where="lo", offset=0, capped=True)
@example(lo=7, width=1000, where="cap", offset=0, capped=True)
@example(lo=7, width=1000, where="above", offset=0, capped=True)
@example(lo=7, width=1000, where="inside", offset=513, capped=False)
def test_least_index_matches_a_linear_scan(lo, width, where, offset, capped):
    cap = lo + width
    threshold = {"lo": lo, "inside": lo + offset % max(width + 1, 1),
                 "cap": cap, "above": cap + 1 + offset,
                 "far-below": lo - 1 - offset}[where]
    if not capped:
        cap = None
    found, probes = _probed_least_index(threshold, lo, cap)
    last = cap if cap is not None else max(lo, threshold)
    expected = next((n for n in range(lo, last + 1) if n >= threshold), None)
    assert found == expected
    assert all(lo <= n and (cap is None or n <= cap) for n in probes)
    # a doubling search and one bisection: logarithmic, never a scan
    span = (last if found is None else found) - lo + 1
    assert len(probes) <= 2 * span.bit_length() + 2


def test_ln2_bounds_match_known_digits():
    # ln 2 = 0.69314718055994530941...
    assert LN2_LO < LN2_HI
    assert LN2_LO > rat(693147180, 10 ** 9)
    assert LN2_HI < rat(693147181, 10 ** 9)
    assert LN2_HI - LN2_LO < rat(1, 10 ** 20)


def test_ln_bounds_exact_for_powers_of_two():
    lo, hi = ln_bounds(1 << 300)
    assert lo == 300 * LN2_LO
    assert hi == 300 * LN2_HI
    assert ln_bounds(1) == (ZERO, ZERO)


def test_ln_bounds_float_sanity():
    for n in (2, 3, 10, 16807, 10 ** 6, (1 << 200) + 12345):
        lo, hi = ln_bounds(n)
        assert lo < hi
        assert float(lo) <= math.log(n) + 1e-6
        assert math.log(n) - 1e-6 <= float(hi)


def test_ln_bounds_product_consistency():
    for a, b in ((3, 7), (100, 9973), (12345, 67891)):
        la, ha = ln_bounds(a)
        lb, hb = ln_bounds(b)
        lab, hab = ln_bounds(a * b)
        assert lab <= ha + hb
        assert hab >= la + lb


def test_harmonic_ln_bounds_against_exact_sums():
    # H(n) <= 1 + ln(n) and ln((b+1)/a) < H(b) - H(a-1) are what the
    # certified adversary blocks rely on, so check the log brackets that
    # carry them strictly against exact sums.
    for n in (1, 2, 3, 10, 97, 1500):
        assert harmonic_sum(1, n) <= ONE + ln_bounds(n)[1]
    for a, b in ((1, 1), (1, 10), (2, 5), (17, 403), (100, 10000)):
        assert ln_bounds(b + 1)[0] - ln_bounds(a)[1] < harmonic_sum(a, b)


@settings(max_examples=40)
@given(st.integers(1, 2000), st.integers(0, 3000))
def test_harmonic_range_lower_ln_is_sound(a, span):
    b = a + span
    assert ln_bounds(b + 1)[0] - ln_bounds(a)[1] < harmonic_sum(a, b)


# ---------------------------------------------------------------------------
# logarithm brackets against a 200-digit oracle

def _mp_ln():
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 200

    def exact(q):
        return ctx.mpf(q.numerator) / q.denominator

    return ctx, exact


def test_ln2_constants_bracket_ln2_at_200_digits():
    ctx, exact = _mp_ln()
    ln2 = ctx.log(2)
    assert exact(LN2_LO) < ln2 < exact(LN2_HI)


def test_ln_bounds_bracket_ln_at_200_digits():
    ctx, exact = _mp_ln()
    rng = random.Random("ln-oracle")
    # small n; powers of two; odd neighbours of large powers, whose top
    # mantissa bits are all ones (the rounded-up mantissa overflows); and
    # random n up to 2^300, past the 48-bit mantissa shift
    ns = list(range(1, 201))
    ns += [1 << e for e in range(1, 301, 7)]
    ns += [(1 << e) + d for e in (49, 50, 64, 200, 300) for d in (-1, 1)]
    ns += [rng.randrange(1, 1 << rng.randrange(1, 301)) for _ in range(200)]
    for n in ns:
        lo, hi = ln_bounds(n)
        ln = ctx.log(n)
        if n == 1:
            assert lo == hi == ZERO
        else:
            assert exact(lo) < ln < exact(hi), n


@pytest.mark.parametrize("exponent", [2, 3, 5])
def test_power_tail_bounds_bracket_hurwitz_zeta_at_200_digits(exponent):
    ctx, exact = _mp_ln()
    for n in (1, 2, 7, 63, 64, 65, 1000):
        tail = ctx.zeta(exponent, n)  # sum of 1/i**exponent for i >= n
        for width in (Rat(1, 8), Rat(1, 10 ** 6)):
            bracket = power_tail_bounds(exponent, n, width)
            # each refinement at least halves the width, so the split
            # point and its exact prefix sum grow geometrically
            for _ in range(3):
                assert exact(bracket.lo) < tail < exact(bracket.hi), (n, width)
                bracket = bracket.refine()


def test_harmonic_ln_bounds_bracket_harmonic_numbers_at_200_digits():
    ctx, exact = _mp_ln()
    rng = random.Random("harmonic-oracle")
    ns = [1, 2, 3, 64, 65, 1000, 2 ** 50 + 1, 2 ** 200]
    ns += [rng.randrange(1, 1 << rng.randrange(1, 200)) for _ in range(40)]
    for n in ns:
        # H(n) <= 1 + ln(n) <= 1 + ln_hi(n)
        assert ctx.harmonic(n) <= 1 + ctx.log(n) <= exact(
            ONE + ln_bounds(n)[1]), n
    for a in ns:
        for b in (a, a + 63, 2 * a, a + rng.randrange(1, 1 << 100)):
            # ln_lo(b + 1) - ln_hi(a) <= ln((b+1)/a) < H(b) - H(a-1)
            lower = exact(ln_bounds(b + 1)[0] - ln_bounds(a)[1])
            assert lower <= ctx.log(b + 1) - ctx.log(a), (a, b)
            assert lower < ctx.harmonic(b) - ctx.harmonic(a - 1), (a, b)


# ranges that stay in one 64-term leaf, fill it, and cross into more leaves
LEAF_RANGES = [(1, 1), (1, 64), (1, 65), (5, 68), (5, 69), (64, 128),
               (100, 228), (63, 320), (1000, 1400)]


@pytest.mark.parametrize("exponent", [1, 2, 3])
def test_power_sums_equal_sympy_generalized_harmonic_numbers(exponent):
    sympy = pytest.importorskip("sympy")
    for a, b in LEAF_RANGES:
        want = (sympy.harmonic(b, exponent)
                - sympy.harmonic(a - 1, exponent))
        assert power_sum(exponent, a, b) == Fraction(int(want.p),
                                                     int(want.q)), (a, b)
        if exponent == 1:
            assert harmonic_sum(a, b) == Fraction(int(want.p),
                                                  int(want.q)), (a, b)


# ---------------------------------------------------------------------------
# the integer atanh series against the Fraction series it replaced

def _fraction_atanh_bounds(z: Fraction, terms: int):
    partial = Fraction(0)
    zsq = z * z
    power = z
    for i in range(terms):
        partial += power / (2 * i + 1)
        power *= zsq
    partial *= 2
    tail = 2 * power / ((2 * terms + 1) * (1 - zsq))
    return partial, partial + tail


_ORACLE_LN2 = _fraction_atanh_bounds(Fraction(1, 3), 28)


def _fraction_ln_bounds(n: int):
    def mantissa(r: Fraction):
        if r == 1:
            return Fraction(0), Fraction(0)
        return _fraction_atanh_bounds((r - 1) / (r + 1), 16)

    ln2_lo, ln2_hi = _ORACLE_LN2
    if n == 1:
        return Fraction(0), Fraction(0)
    e = n.bit_length() - 1
    if e <= 48:
        m_lo, m_hi = mantissa(Fraction(n, 1 << e))
        return e * ln2_lo + m_lo, e * ln2_hi + m_hi
    shift = e - 48
    top = n >> shift
    lo = e * ln2_lo + mantissa(Fraction(top, 1 << 48))[0]
    if n == top << shift:
        hi = e * ln2_hi + mantissa(Fraction(top, 1 << 48))[1]
    elif (top + 1) >> 49:
        hi = (e + 1) * ln2_hi
    else:
        hi = e * ln2_hi + mantissa(Fraction(top + 1, 1 << 48))[1]
    return lo, hi


def test_ln2_constants_equal_the_fraction_series():
    assert (LN2_LO, LN2_HI) == _ORACLE_LN2


def test_ln_bounds_equal_the_fraction_series():
    rng = random.Random("ln-series")
    # 2^k - 1 past 2^50 has all-ones top mantissa bits, so its rounded-up
    # mantissa overflows into the (top + 1) branch
    ns = list(range(1, 3001))
    ns += [1 << k for k in range(1, 301)]
    ns += [(1 << k) - 1 for k in range(2, 301)]
    ns += [rng.randrange(1, 1 << 200) for _ in range(300)]
    def overflows(n: int) -> bool:
        shift = n.bit_length() - 49
        return (shift > 0 and n != (n >> shift) << shift
                and bool(((n >> shift) + 1) >> 49))

    assert any(overflows(n) for n in ns)
    for n in ns:
        assert ln_bounds(n) == _fraction_ln_bounds(n), n
