"""Exact rational scalars and certified brackets for irrational tails.

Everything here is either an exact rational or a pair of rationals that
provably sandwich a real value.  No floats are used anywhere, so comparisons
decided by this module are zero tolerance: they hold as stated or an
UndecidedComparisonError is raised.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import DomainError, EmptyRangeError, UndecidedComparisonError

__all__ = [
    "BACKEND", "Rat", "ZERO", "ONE", "rat", "parse_rat", "int_str", "rat_str",
    "rat_sum", "lcm_units", "rat_ceil", "rat_floor", "check_range", "harmonic_sum",
    "power_sum", "geometric_sum", "geometric_tail", "RatInterval",
    "power_tail_bounds", "Cmp", "compare_certified", "least_index", "LN2_LO",
    "LN2_HI", "ln_bounds",
]

Rat = Fraction
BACKEND = "fraction"  # the rational type's name, for benchmark env headers
ZERO = Rat(0)
ONE = Rat(1)

RatLike = Union[int, str, "Rat"]


def rat(numerator: RatLike, denominator: int = 1) -> Rat:
    """Build an exact rational from ints or an "a/b" string."""
    if isinstance(numerator, str):
        value = parse_rat(numerator)
        if denominator != 1:
            value = value / Rat(denominator)
        return value
    return Rat(numerator, denominator)


def parse_rat(text: str) -> Rat:
    body = text.strip()
    if "/" in body:
        num, den = body.split("/", 1)
        return Rat(int(num.strip()), int(den.strip()))
    return Rat(int(body))


def int_str(n: int) -> str:
    """Decimal digits of n, also past the interpreter's digit limit.

    An int whose decimal form would pass sys.get_int_max_str_digits() is
    split by a power of ten into halves that are converted on their own,
    so the digits stay exact without raising the limit.
    """
    # 0 means no limit; interpreters before 3.10.7 have no limit and no getter
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # a decimal digit carries more than 3 bits, so this many bits stays
    # under the limit
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + int_str(-n)
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10 ** half)
    return int_str(high) + int_str(low).rjust(half, "0")


def rat_str(value) -> str:
    """Canonical "num/den" form in lowest terms, denominator always shown."""
    q = value if isinstance(value, Rat) else Rat(value)
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


def rat_sum(values) -> Rat:
    """Exact sum of rationals and integers, reduced once at the end.

    Numerators are added over a common denominator that grows to the lcm
    of the denominators seen, so no partial sum pays for a gcd.
    """
    num, den = 0, 1
    for value in values:
        d = value.denominator
        if den % d:
            grown = den // math.gcd(den, d) * d
            num *= grown // den
            den = grown
        num += value.numerator * (den // d)
    return Rat(num, den)


def lcm_units(values) -> tuple[list, int]:
    """(units, scale) with Rat(units[i], scale) == values[i], scale the lcm
    of the denominators, so sums and compares can run on integers."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def rat_ceil(value) -> int:
    q = Rat(value)
    return -((-q.numerator) // q.denominator)


def rat_floor(value) -> int:
    q = Rat(value)
    return q.numerator // q.denominator


def least_index(pred: Callable[[int], bool], lo: int,
                cap: Optional[int] = None) -> Optional[int]:
    """Least n in [lo, cap] with pred(n), or None when there is none.

    pred must be monotone: false up to some index and true from it on.
    Probes lo, lo + 1, lo + 3, lo + 7, ... (then cap itself) and bisects
    the last gap, so a far answer costs about twice its bit length in
    probes.  With no cap the search only ends once pred holds.
    """
    if cap is not None and cap < lo:
        return None
    below = lo - 1  # pred is false here, or it lies before lo
    span = 1
    while True:
        probe = lo + span - 1
        if cap is not None and probe >= cap:
            probe = cap
        if pred(probe):
            break
        if probe == cap:
            return None
        below = probe
        span *= 2
    while below + 1 < probe:
        mid = (below + probe) // 2
        if pred(mid):
            probe = mid
        else:
            below = mid
    return probe


def check_range(a: int, b: int) -> None:
    """Raise unless [a, b] is a nonempty range of integer indices >= 1."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise DomainError("summation bounds must be integers")
    if a < 1:
        raise DomainError(f"summation starts at index >= 1, got {a}")
    if a > b:
        raise EmptyRangeError(f"empty summation range [{a}, {b}]")


def power_sum(exponent: int, a: int, b: int) -> Rat:
    """Exact sum of 1/i**exponent for i in [a, b], divide and conquer."""
    check_range(a, b)
    if exponent < 1:
        raise DomainError("exponent must be a positive integer")

    def rec(lo: int, hi: int) -> Rat:
        if hi - lo < 64:
            # one unreduced integer fraction per leaf, reduced once at the end
            num, den = 0, 1
            for i in range(lo, hi + 1):
                d = i ** exponent
                num, den = num * d + den, den * d
            return Rat(num, den)
        mid = (lo + hi) // 2
        return rec(lo, mid) + rec(mid + 1, hi)

    return rec(a, b)


def harmonic_sum(a: int, b: int) -> Rat:
    """Exact sum of 1/i for i in [a, b]."""
    return power_sum(1, a, b)


def geometric_sum(ratio, a: int, b: int) -> Rat:
    """Exact sum of ratio**i for i in [a, b], 0 < ratio < 1."""
    r = Rat(ratio)
    if not (ZERO < r < ONE):
        raise DomainError("ratio must satisfy 0 < ratio < 1")
    check_range(a, b)
    return (r ** a - r ** (b + 1)) / (ONE - r)


def geometric_tail(ratio, n: int) -> Rat:
    """Exact sum of ratio**i for i >= n, 0 < ratio < 1."""
    r = Rat(ratio)
    if not (ZERO < r < ONE):
        raise DomainError("ratio must satisfy 0 < ratio < 1")
    if n < 1:
        raise DomainError("tail index must be >= 1")
    return r ** n / (ONE - r)


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] of rationals enclosing one real value.

    refine, when present, returns a new interval for the same value whose
    endpoints never move outward and whose width shrinks.
    """

    lo: Rat
    hi: Rat
    refine_fn: Optional[Callable[[], "RatInterval"]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError("interval endpoints out of order")

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    @property
    def refinable(self) -> bool:
        return self.refine_fn is not None

    def refine(self) -> "RatInterval":
        if self.refine_fn is None:
            return self
        inner = self.refine_fn()
        # Never let refinement widen the enclosure.
        lo = max(self.lo, inner.lo)
        hi = min(self.hi, inner.hi)
        return RatInterval(lo, hi, inner.refine_fn)

    def contains(self, value) -> bool:
        q = Rat(value)
        return self.lo <= q <= self.hi

    def shift(self, offset) -> "RatInterval":
        q = Rat(offset)
        inner = self.refine_fn
        fn = (lambda: inner().shift(q)) if inner is not None else None
        return RatInterval(self.lo + q, self.hi + q, fn)

    def scale(self, factor) -> "RatInterval":
        q = Rat(factor)
        if q < ZERO:
            raise DomainError("only nonnegative scaling is supported")
        inner = self.refine_fn
        fn = (lambda: inner().scale(q)) if inner is not None else None
        return RatInterval(self.lo * q, self.hi * q, fn)

    # a bracket moves and stretches with the value it encloses
    __add__ = __radd__ = shift
    __mul__ = __rmul__ = scale


def _power_tail_width(exponent: int, m: int) -> Rat:
    e1 = exponent - 1
    return (Rat(1, m ** e1) - Rat(1, (m + 1) ** e1)) / e1


def power_tail_bounds(exponent: int, n: int, width) -> RatInterval:
    """Certified bracket for the tail sum of 1/i**exponent from i = n on.

    Uses the integral sandwich: the tail beyond m lies strictly between
    1/((e-1)(m+1)**(e-1)) and 1/((e-1) m**(e-1)).  The split point m is the
    smallest index >= n whose bracket width is at most half the requested
    width, so returned intervals are at least twice as tight as asked and
    refinement (which halves the request) always makes progress.
    """
    if exponent < 2:
        raise DomainError("tail converges only for exponent >= 2")
    if n < 1:
        raise DomainError("tail index must be >= 1")
    goal = Rat(width)
    if goal <= ZERO:
        raise DomainError("width must be positive")
    goal = goal / 2

    m = least_index(lambda i: _power_tail_width(exponent, i) <= goal, n)

    prefix = power_sum(exponent, n, m)
    e1 = exponent - 1
    lo = prefix + Rat(1, e1 * (m + 1) ** e1)
    hi = prefix + Rat(1, e1 * m ** e1)
    achieved = hi - lo

    def refine() -> RatInterval:
        # Asking for the achieved width targets half of it, so the split
        # point strictly advances and the bracket strictly tightens.
        return power_tail_bounds(exponent, n, achieved)

    return RatInterval(lo, hi, refine)


class Cmp(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDED = "undecided"


def compare_certified(value, target, max_refinements: int = 64) -> Cmp:
    """Certified comparison of a rational or interval against a rational.

    The verdict describes the enclosed value relative to target.  EQUAL is
    only possible for degenerate intervals; a genuinely irrational value
    always separates from a rational target after finitely many refinements.
    """
    t = Rat(target)
    if not isinstance(value, RatInterval):
        q = Rat(value)
        if q < t:
            return Cmp.LESS
        if q > t:
            return Cmp.GREATER
        return Cmp.EQUAL
    iv = value
    for _ in range(max_refinements + 1):
        if iv.lo == iv.hi:
            if iv.lo == t:
                return Cmp.EQUAL
            return Cmp.LESS if iv.lo < t else Cmp.GREATER
        if t < iv.lo:
            return Cmp.GREATER
        if t > iv.hi:
            return Cmp.LESS
        if not iv.refinable:
            break
        iv = iv.refine()
    return Cmp.UNDECIDED


def require_certified(value, target, max_refinements: int = 64) -> Cmp:
    """Like compare_certified but raises instead of returning UNDECIDED."""
    verdict = compare_certified(value, target, max_refinements)
    if verdict is Cmp.UNDECIDED:
        raise UndecidedComparisonError(
            f"could not separate interval from {rat_str(target)} "
            f"within {max_refinements} refinements")
    return verdict


def _atanh_series_bounds(p: int, q: int, terms: int) -> tuple[Rat, Rat]:
    """Bounds for 2*atanh(z) = ln((1+z)/(1-z)), exact for z = p/q in [0, 1).

    The partial sum of 2*z**(2i+1)/(2i+1) over i < terms is added in
    integers over L * q**(2*terms - 1), with L = lcm(1, 3, ..., 2*terms - 1),
    and reduced once; the remaining terms are dominated by a geometric
    series with ratio z**2.
    """
    top = 2 * terms - 1
    odd_lcm = math.lcm(*range(1, top + 1, 2))
    psq, qsq = p * p, q * q
    acc = 0
    p_pow, q_pow = p, q ** (top - 1)  # p**(2i+1) and q**(top - 2i - 1)
    for i in range(terms):
        acc += p_pow * q_pow * (odd_lcm // (2 * i + 1))
        p_pow *= psq
        q_pow //= qsq
    den = odd_lcm * q ** top
    # p_pow is now p**(2*terms+1); the tail bound 2*z**(2*terms+1) /
    # ((2*terms+1)*(1 - z**2)) is 2*p_pow*L / (den * width)
    width = (top + 2) * (qsq - psq)
    return (Rat(2 * acc, den),
            Rat(2 * (acc * width + p_pow * odd_lcm), den * width))


def _ln_bounds_mantissa(num: int, den: int,
                        terms: int = 16) -> tuple[Rat, Rat]:
    """Bounds for ln(num/den) with 1 <= num/den <= 2."""
    if num == den:
        return ZERO, ZERO
    return _atanh_series_bounds(num - den, num + den, terms)


_LN2_BOUNDS = _atanh_series_bounds(1, 3, 28)
LN2_LO, LN2_HI = _LN2_BOUNDS

_MANTISSA_BITS = 48


def ln_bounds(n: int) -> tuple[Rat, Rat]:
    """Certified rational bounds for ln(n), n a positive integer.

    Works on arbitrarily large integers: only the exponent and the top
    mantissa bits are used, so the cost does not grow with the magnitude.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("ln_bounds needs a positive integer")
    if n == 1:
        return ZERO, ZERO
    e = n.bit_length() - 1
    if e <= _MANTISSA_BITS:
        m_lo, m_hi = _ln_bounds_mantissa(n, 1 << e)
        return e * LN2_LO + m_lo, e * LN2_HI + m_hi
    shift = e - _MANTISSA_BITS
    top = n >> shift
    unit = 1 << _MANTISSA_BITS
    m_lo, m_hi = _ln_bounds_mantissa(top, unit)
    lo = e * LN2_LO + m_lo
    if n == top << shift:
        hi = e * LN2_HI + m_hi
    elif (top + 1) >> (_MANTISSA_BITS + 1):
        hi = (e + 1) * LN2_HI
    else:
        hi = e * LN2_HI + _ln_bounds_mantissa(top + 1, unit)[1]
    return lo, hi

