"""Lazy infinite price sequences, allocation plans, and relabelings.

A price model describes the cost of every box as an exact rational, together
with certificates about its total mass and about the weighted series
sum(n * p_{delta(n)}) under rearrangements.  An allocation plan describes how
much money each prisoner carries.  A relabeling is an explicit bijection of
the positive integers.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

from .errors import (
    CapabilityError, DomainError, PlanViolationError, PrisonersError,
)
from .numeric import (
    ONE, Rat, RatInterval, ZERO, check_range, geometric_sum, geometric_tail,
    harmonic_sum, lcm_units, least_index, power_sum, power_tail_bounds, rat,
    rat_str, rat_sum,
)

__all__ = [
    "ExactTotal", "BracketedTotal", "DivergentTotal", "UnknownTotal",
    "WeightedCert", "ZeroTail", "GeometricTail", "InversePowerTail",
    "PriceModel", "GeometricModel", "InverseSquareModel", "HarmonicModel",
    "HARMONIC", "CustomModel", "BlackBoxModel", "ScaledModel", "AffineBound",
    "PermutedModel", "builtin_model", "load_model", "dump_model",
    "ZeroBeyond", "NonIncreasingBeyond", "NonDecreasing", "Unstructured",
    "AllocationPlan", "TableAllocation", "FnAllocation", "load_allocation",
    "dump_allocation", "Relabeling", "descending_rearrangement",
    "quasi_descending_rearrangement", "omit_zeros", "weighted_partial_sum",
]


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class ExactTotal:
    """The full series sums to this exact rational."""
    value: Rat
    kind = "exact"

    def interval(self, width) -> RatInterval:
        """The degenerate bracket [value, value], whatever the width."""
        value = Rat(self.value)
        return RatInterval(value, value)


class BracketedTotal:
    """The full series is finite; brackets of any width are available."""

    kind = "bracketed"

    def __init__(self, bounds: Callable[[Rat], RatInterval]):
        self.bounds = bounds

    def interval(self, width) -> RatInterval:
        return self.bounds(Rat(width))


class DivergentTotal:
    """The full series diverges to infinity."""
    kind = "divergent"


class UnknownTotal:
    """Nothing is certified about the total."""
    kind = "unknown"


class WeightedCert(Enum):
    """Status of sum(n * p_{delta(n)}) over all rearrangements delta."""

    CONVERGES_SOME = "converges-under-some-rearrangement"
    DIVERGES_ALL = "diverges-under-all-rearrangements"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# tail rules for table-driven sequences

class TailRule:
    """Prices for every index from start on, past a finite table.

    A rule answers the sums a table-driven sequence needs beyond its table,
    each for indices >= start: range sums, tails, iterated tails, and the
    integer prices of a cycle.  Exact rules return rationals; the others
    return certified brackets.  A positive rule prices every index from
    start on above zero; the zero rule is the one that does not.
    """

    start: int
    exact = True
    positive = True
    weighted_cert = WeightedCert.CONVERGES_SOME

    def __post_init__(self):
        if self.start < 1:
            raise DomainError("tail rule must start at index >= 1")

    def cycle_units(self, members) -> tuple[list, int]:
        """PriceModel.cycle_units for members that are all >= start."""
        return lcm_units([self.term(n) for n in members])


@dataclass(frozen=True)
class ZeroTail(TailRule):
    start: int
    label = "zero"
    positive = False

    def term(self, n: int) -> Rat:
        return ZERO

    def range_sum(self, a: int, b: int) -> Rat:
        return ZERO

    def tail(self, n: int) -> Rat:
        return ZERO

    def second_tail(self, m: int, start: int, name: str) -> Rat:
        return ZERO

    def text_line(self) -> str:
        return f"tail zero from {self.start}"


@dataclass(frozen=True)
class GeometricTail(TailRule):
    ratio: Rat
    start: int
    label = "geometric"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "ratio", Rat(self.ratio))
        if not (ZERO < self.ratio < ONE):
            raise DomainError("geometric tail needs 0 < ratio < 1")

    def term(self, n: int) -> Rat:
        return self.ratio ** n

    def cycle_units(self, members) -> tuple[list, int]:
        # p**n / q**n == p**n * q**(top - n) / q**top, with no division
        p, q = self.ratio.numerator, self.ratio.denominator
        top = max(members)
        return [p ** n * q ** (top - n) for n in members], q ** top

    def range_sum(self, a: int, b: int) -> Rat:
        return geometric_sum(self.ratio, a, b)

    def tail(self, n: int) -> Rat:
        return geometric_tail(self.ratio, n)

    def second_tail(self, m: int, start: int, name: str) -> Rat:
        """Sum of (k - m + 1) * term(k) over k >= start."""
        r = self.ratio
        one_minus = ONE - r
        return r ** start * (
            Rat(start - m + 1) / one_minus + r / (one_minus * one_minus))

    def text_line(self) -> str:
        return f"tail geometric {rat_str(self.ratio)} from {self.start}"


@dataclass(frozen=True)
class InversePowerTail(TailRule):
    exponent: int
    start: int
    label = "inverse-power"
    exact = False

    def __post_init__(self):
        super().__post_init__()
        if self.exponent < 2:
            raise DomainError("inverse-power tail needs exponent >= 2")

    @property
    def weighted_cert(self) -> WeightedCert:
        if self.exponent >= 3:
            return WeightedCert.CONVERGES_SOME
        # Eventually 1/n**2: any bijection keeps cofinitely many of these
        # values at positions n with value >= 1/(n + c)**2, so the weighted
        # series diverges no matter the rearrangement.
        return WeightedCert.DIVERGES_ALL

    def term(self, n: int) -> Rat:
        return Rat(1, n ** self.exponent)

    def range_sum(self, a: int, b: int) -> Rat:
        if b - a > 2_000_000:
            raise CapabilityError("inverse-power range too large")
        return power_sum(self.exponent, a, b)

    def tail(self, n: int, width=Rat(1, 100)) -> RatInterval:
        return power_tail_bounds(self.exponent, n, width)

    def second_tail(self, m: int, start: int, name: str) -> RatInterval:
        """Bracket for the sum of (k - m + 1) * term(k) over k >= start."""
        e = self.exponent
        if e < 3:
            raise CapabilityError(
                f"{name}: iterated tails of a 1/n**{e} tail diverge")

        def bracket(width) -> RatInterval:
            w = Rat(width) / (2 * max(1, m))
            t1 = power_tail_bounds(e - 1, start, w)
            t2 = power_tail_bounds(e, start, w)
            c = 1 - m
            if c >= 0:
                lo = t1.lo + c * t2.lo
                hi = t1.hi + c * t2.hi
            else:
                lo = t1.lo + c * t2.hi
                hi = t1.hi + c * t2.lo
            return RatInterval(max(lo, ZERO), hi,
                               lambda: bracket(Rat(width) / 2))

        return bracket(Rat(1, 100))

    def text_line(self) -> str:
        return f"tail inverse-power {self.exponent} from {self.start}"


def _checked_table(entries, rule: TailRule) -> dict[int, Rat]:
    """Table entries as {index: rational}, each >= 0 and before the rule.

    A list is read as the entries for 1, 2, ...
    """
    if not isinstance(entries, dict):
        entries = {i + 1: v for i, v in enumerate(entries)}
    table: dict[int, Rat] = {}
    for idx, value in entries.items():
        if not isinstance(idx, int) or idx < 1:
            raise DomainError(f"bad table index {idx!r}")
        if idx >= rule.start:
            raise DomainError(f"table entry at {idx} collides with tail rule "
                              f"from {rule.start}")
        q = Rat(value)
        if q < ZERO:
            raise DomainError("table values must be nonnegative")
        table[idx] = q
    return table


# ---------------------------------------------------------------------------
# price models

class PriceModel:
    """Base class: exact per-index prices plus structural certificates."""

    name: str = "model"
    kind: str = "abstract"
    # index from which terms are certified non-increasing, None if unknown
    nonincreasing_from: Optional[int] = None
    # the rule pricing a table-driven model past its table
    rule: Optional[TailRule] = None
    # whether tail and second_tail are exact rationals
    exact_tails = False

    def term(self, n: int) -> Rat:
        raise NotImplementedError

    def cycle_units(self, members) -> tuple[list, int]:
        """Integer prices of the boxes in members over one common scale.

        Returns (units, scale) with units[i] / scale == term(members[i])
        exactly and scale > 0; scale need not be the least such
        denominator.  The default is the lcm of the terms' denominators.
        """
        return lcm_units([self.term(n) for n in members])

    @property
    def total_cert(self):
        return UnknownTotal()

    @property
    def weighted_cert(self) -> WeightedCert:
        return WeightedCert.UNKNOWN

    def tail(self, n: int):
        """Sum of term(i) for i >= n: exact rational or certified interval."""
        raise CapabilityError(f"{self.name}: tail sums are not available")

    def second_tail(self, m: int):
        """Sum of tail(n) for n >= m, when it is finite."""
        raise CapabilityError(f"{self.name}: iterated tail sums unavailable")

    def range_sum(self, a: int, b: int) -> Rat:
        """Exact sum of term(i) for i in [a, b]."""
        check_range(a, b)
        if b - a > 2_000_000:
            raise CapabilityError(
                f"{self.name}: no closed form for a range of {b - a + 1} terms")
        return rat_sum(self.term(i) for i in range(a, b + 1))

    def last_positive(self) -> Optional[int]:
        """The last index with a positive price, 0 when there is none, and
        None unless the prices are certified zero past a finite table."""
        return None

    _POSITIVE_GAP_SCAN_CAP = 1_000_000

    def positive_indices(self) -> Iterator[int]:
        """Indices with positive price, in increasing order.

        The default scans term by term; a gap of a million consecutive
        zeros aborts with CapabilityError because positivity further out
        cannot be certified without structure.  Structured models override
        this with exact information.
        """
        n = 1
        gap = 0
        while True:
            if self.term(n) > ZERO:
                yield n
                gap = 0
            else:
                gap += 1
                if gap > self._POSITIVE_GAP_SCAN_CAP:
                    raise CapabilityError(
                        f"{self.name}: cannot certify whether positive "
                        f"prices exist beyond index {n}")
            n += 1

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class HarmonicModel(PriceModel):
    """Prices 1/n; the total diverges."""

    kind = "harmonic"
    name = "harmonic"
    nonincreasing_from = 1
    _PREFIX_LIST_CAP = 5000

    def __init__(self):
        self._prefix = [ZERO]  # H_0, H_1, ... up to the largest asked for

    def term(self, n: int) -> Rat:
        if n < 1:
            raise DomainError("indices start at 1")
        return Rat(1, n)

    def cycle_units(self, members) -> tuple[list, int]:
        # 1/n == (scale // n) / scale, with no Fraction built per member
        if min(members) < 1:
            raise DomainError("indices start at 1")
        scale = math.lcm(*members)
        return [scale // n for n in members], scale

    @property
    def total_cert(self):
        return DivergentTotal()

    @property
    def weighted_cert(self):
        return WeightedCert.DIVERGES_ALL

    def range_sum(self, a: int, b: int) -> Rat:
        if b - a > 20_000_000:
            raise CapabilityError("harmonic range too large for exact sum")
        if (isinstance(a, int) and isinstance(b, int)
                and 1 <= a <= b <= self._PREFIX_LIST_CAP):
            return self.prefix_sum(b) - self.prefix_sum(a - 1)
        # harmonic_sum raises the range errors
        return harmonic_sum(a, b)

    def prefix_sum(self, n: int) -> Rat:
        if n <= 0:
            return ZERO
        if n > 20_000_000:
            raise CapabilityError("harmonic prefix too large for exact sum")
        if n > self._PREFIX_LIST_CAP:
            return harmonic_sum(1, n)
        sums = self._prefix
        while len(sums) <= n:
            sums.append(sums[-1] + Rat(1, len(sums)))
        return sums[n]


# the one harmonic model: every caller shares its table of exact prefixes
HARMONIC = HarmonicModel()


class CustomModel(PriceModel):
    """Finite table of prices followed by a cataloged tail rule.

    Certificates are computed from the structure; callers may declare their
    own only if they agree with the computed ones or weaken them to unknown.
    """

    kind = "custom"

    def __init__(self, entries, tail_rule: TailRule, name: str = "custom",
                 total_cert=None, weighted_cert=None):
        self.rule = tail_rule
        self.name = name
        self._table = {idx: q for idx, q in
                       _checked_table(entries, tail_rule).items() if q != ZERO}
        self._declared_total_unknown = isinstance(total_cert, UnknownTotal)
        self._declared_weighted_unknown = (
            weighted_cert is WeightedCert.UNKNOWN)
        self._check_declared(total_cert, weighted_cert)

    def _check_declared(self, total_cert, weighted_cert) -> None:
        if total_cert is not None and not isinstance(total_cert, UnknownTotal):
            computed = self.total_cert
            same_kind = total_cert.kind == computed.kind
            if not same_kind or (isinstance(total_cert, ExactTotal)
                                 and total_cert.value != computed.value):
                raise DomainError("declared total certificate is inconsistent "
                                  "with the tail rule")
        if weighted_cert is not None and weighted_cert is not WeightedCert.UNKNOWN:
            if weighted_cert is not self.rule.weighted_cert:
                raise DomainError("declared weighted-sum certificate is "
                                  "inconsistent with the tail rule")

    def term(self, n: int) -> Rat:
        rule = self.rule
        if n >= rule.start:
            return rule.term(n)
        if n < 1:
            raise DomainError("indices start at 1")
        return self._table.get(n, ZERO)

    def cycle_units(self, members) -> tuple[list, int]:
        rule = self.rule
        if min(members) >= rule.start:
            return rule.cycle_units(members)
        return super().cycle_units(members)

    @property
    def prefix_total(self) -> Rat:
        return rat_sum(self._table.values())

    @property
    def total_cert(self):
        if self._declared_total_unknown:
            return UnknownTotal()
        rule, prefix = self.rule, self.prefix_total
        if rule.exact:
            return ExactTotal(prefix + rule.tail(rule.start))
        return BracketedTotal(lambda w: rule.tail(rule.start, w) + prefix)

    @property
    def weighted_cert(self) -> WeightedCert:
        if self._declared_weighted_unknown:
            return WeightedCert.UNKNOWN
        return self.rule.weighted_cert

    @property
    def nonincreasing_from(self) -> int:
        return self.rule.start

    @property
    def exact_tails(self) -> bool:
        return self.rule.exact

    def last_positive(self) -> Optional[int]:
        if self.rule.positive:
            return None
        return max(self._table, default=0)

    def tail(self, n: int):
        rule = self.rule
        if n >= rule.start:
            return rule.tail(n)
        if n < 1:
            raise DomainError("indices start at 1")
        head = rat_sum(v for idx, v in self._table.items() if idx >= n)
        return head + rule.tail(rule.start)

    def second_tail(self, m: int):
        if m < 1:
            raise DomainError("indices start at 1")
        # sum over n >= m of tail(n) equals sum over k >= m of
        # (k - m + 1) * term(k)
        head = rat_sum((idx - m + 1) * v for idx, v in self._table.items()
                       if idx >= m)
        return head + self.rule.second_tail(m, max(m, self.rule.start),
                                            self.name)

    def positive_indices(self) -> Iterator[int]:
        yield from sorted(self._table)
        if not self.rule.positive:
            return
        n = self.rule.start
        while True:
            yield n
            n += 1

    def range_sum(self, a: int, b: int) -> Rat:
        check_range(a, b)
        rule = self.rule
        if a >= rule.start:
            return rule.range_sum(a, b)
        total = rat_sum(v for idx, v in self._table.items() if a <= idx <= b)
        if b < rule.start:
            return total
        return total + rule.range_sum(rule.start, b)


class GeometricModel(CustomModel):
    """Prices ratio**n: an empty table and a geometric rule from 1 on."""

    kind = "geometric"

    def __init__(self, ratio=rat(1, 2)):
        r = Rat(ratio)
        if not (ZERO < r < ONE):
            # the message a bad --model geometric:ratio=... prints
            raise DomainError("ratio must satisfy 0 < ratio < 1")
        super().__init__({}, GeometricTail(r, 1),
                         name=f"geometric:{rat_str(r)}")
        self.ratio = r


class InverseSquareModel(CustomModel):
    """Prices 1/n**2: an empty table and an inverse-power rule from 1 on."""

    kind = "inverse-square"

    def __init__(self):
        super().__init__({}, InversePowerTail(2, 1), name="inverse-square")

    def tail(self, n: int) -> RatInterval:
        # brackets of width 1/(8 n**2), not the rule's default 1/100
        return self.rule.tail(n, Rat(1, 8 * n * n))

    def second_tail(self, m: int):
        # iterated 1/n**2 tails diverge; this model reports it with the
        # generic message, which its golden outputs carry
        return PriceModel.second_tail(self, m)


class BlackBoxModel(PriceModel):
    """Opaque term function: no certificates, no tails."""

    kind = "blackbox"

    def __init__(self, term_fn: Callable[[int], "Rat"], name: str = "blackbox"):
        self._fn = term_fn
        self.name = name

    def term(self, n: int) -> Rat:
        if n < 1:
            raise DomainError("indices start at 1")
        q = Rat(self._fn(n))
        if q < ZERO:
            raise DomainError("prices must be nonnegative")
        return q


class ScaledModel(PriceModel):
    """A positive rational multiple of another model."""

    def __init__(self, inner: PriceModel, factor):
        f = Rat(factor)
        if f <= ZERO:
            raise DomainError("scale factor must be positive")
        self.inner = inner
        self.factor = f
        self.name = f"{inner.name}*{rat_str(f)}"
        self.kind = inner.kind

    @property
    def nonincreasing_from(self):
        return self.inner.nonincreasing_from

    @property
    def exact_tails(self) -> bool:
        return self.inner.exact_tails

    def last_positive(self) -> Optional[int]:
        return self.inner.last_positive()

    def term(self, n: int) -> Rat:
        return self.inner.term(n) * self.factor

    @property
    def total_cert(self):
        cert = self.inner.total_cert
        if isinstance(cert, ExactTotal):
            return ExactTotal(cert.value * self.factor)
        if isinstance(cert, BracketedTotal):
            f = self.factor
            return BracketedTotal(lambda w: cert.interval(Rat(w) / f).scale(f))
        return cert

    @property
    def weighted_cert(self):
        # positive scaling preserves both convergence classes
        return self.inner.weighted_cert

    def tail(self, n: int):
        return self.inner.tail(n) * self.factor

    def second_tail(self, m: int):
        return self.inner.second_tail(m) * self.factor

    def range_sum(self, a: int, b: int) -> Rat:
        return self.inner.range_sum(a, b) * self.factor

    def positive_indices(self):
        return self.inner.positive_indices()


class PermutedModel(PriceModel):
    """Prices read through a relabeling: term(n) = inner.term(delta(n)).

    Total and weighted certificates survive (both are invariant under
    rearrangement of a nonnegative series); tail structure does not.
    """

    kind = "permuted"

    def __init__(self, inner: PriceModel, delta: "Relabeling"):
        self.inner = inner
        self.delta = delta
        self.name = f"{inner.name}@{delta.name or 'relabeled'}"

    def term(self, n: int) -> Rat:
        return self.inner.term(self.delta(n))

    @property
    def total_cert(self):
        return self.inner.total_cert

    @property
    def weighted_cert(self):
        return self.inner.weighted_cert


def builtin_model(kind: str, **params) -> PriceModel:
    if kind == "geometric":
        return GeometricModel(params.get("ratio", rat(1, 2)))
    if kind == "inverse-square":
        return InverseSquareModel()
    if kind == "harmonic":
        return HARMONIC
    raise DomainError(f"unknown builtin model {kind!r}")


# ---------------------------------------------------------------------------
# text format shared by custom models and table allocations
#
#   # comment
#   1 1/2
#   4 3/16
#   tail geometric 1/2 from 11
#   tail zero from 11
#   tail inverse-power 2 from 11

def _parse_table_text(text: str):
    entries: dict[int, Rat] = {}
    rule: Optional[TailRule] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "tail":
                if rule is not None:
                    raise DomainError("multiple tail lines")
                if parts[1] == "zero" and parts[2] == "from":
                    rule, size = ZeroTail(int(parts[3])), 4
                elif parts[1] == "geometric" and parts[3] == "from":
                    rule, size = GeometricTail(rat(parts[2]), int(parts[4])), 5
                elif parts[1] == "inverse-power" and parts[3] == "from":
                    rule, size = InversePowerTail(int(parts[2]),
                                                  int(parts[4])), 5
                else:
                    raise DomainError(f"bad tail line: {raw!r}")
                if len(parts) != size:
                    raise DomainError(f"bad table line: {raw!r}")
                continue
            if len(parts) != 2:
                raise DomainError(f"bad table line: {raw!r}")
            idx = int(parts[0])
            if idx in entries:
                raise DomainError(f"duplicate table index {idx}")
            entries[idx] = rat(parts[1])
        except PrisonersError:
            raise
        except (IndexError, ValueError, ZeroDivisionError):
            # a missing field or a malformed number
            raise DomainError(f"bad table line: {raw!r}") from None
    if rule is None:
        raise DomainError("missing tail line")
    return entries, rule


def load_model(text: str, name: str = "custom") -> CustomModel:
    entries, rule = _parse_table_text(text)
    return CustomModel(entries, rule, name=name)


def dump_model(model: CustomModel) -> str:
    # load_model only gives plain custom models, so the built-in table
    # models have no text form that reads back as themselves
    if type(model) is not CustomModel:
        raise CapabilityError("only table-driven models have a text form")
    # the stored entries only: every index the text leaves out is zero
    lines = [f"{idx} {rat_str(v)}" for idx, v in sorted(model._table.items())]
    lines.append(model.rule.text_line())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# allocation plans

@dataclass(frozen=True)
class ZeroBeyond:
    """amount(n) == 0 for every n > index."""
    index: int


@dataclass(frozen=True)
class NonIncreasingBeyond:
    """Amounts are non-increasing for n >= index; positive means they are
    also strictly positive there."""
    index: int
    positive: bool = False


@dataclass(frozen=True)
class NonDecreasing:
    """amount(n) <= amount(n + 1) for every n >= 1."""


class Unstructured:
    def __eq__(self, other):
        return isinstance(other, Unstructured)

    def __repr__(self):
        return "Unstructured()"


@dataclass(frozen=True)
class AffineBound:
    """max(0, intercept + slope * E), certified above the amount at 2**E."""
    intercept: Rat
    slope: Rat

    def __call__(self, E: int) -> Rat:
        return max(ZERO, self.intercept + self.slope * E)


class AllocationPlan:
    """How much money prisoner n carries.

    Builders set claim, the engine's claim object naming who is promised
    to succeed; None means no promise.
    Fixed-price plans (strategies.HarmonicAffine) also derive
    amount_upper_pow2, an AffineBound on the amount at index 2**E; other
    plans carry None there.
    """

    name: str = "allocation"
    claim = None
    amount_upper_pow2: Optional[AffineBound] = None
    total_cert = UnknownTotal()
    tail_structure = Unstructured()

    def amount(self, n: int) -> Rat:
        raise NotImplementedError

    def max_in_range(self, a: int, b: int) -> Rat:
        if a > b:
            raise DomainError("empty range")
        structure = self.tail_structure
        if isinstance(structure, NonDecreasing):
            return self.amount(b)
        if isinstance(structure, ZeroBeyond):
            best = ZERO
            for i in range(a, min(b, structure.index) + 1):
                best = max(best, self.amount(i))
            return best
        if isinstance(structure, NonIncreasingBeyond):
            best = ZERO
            for i in range(a, min(b, structure.index - 1) + 1):
                best = max(best, self.amount(i))
            if b >= structure.index:
                best = max(best, self.amount(max(a, structure.index)))
            return best
        if b - a > 1_000_000:
            raise CapabilityError(
                f"{self.name}: cannot scan {b - a + 1} amounts")
        return max(self.amount(i) for i in range(a, b + 1))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class TableAllocation(AllocationPlan):
    """Amounts read off a table model with a zero or geometric tail."""

    def __init__(self, entries, tail_rule: TailRule, name: str = "table"):
        if not tail_rule.exact:
            raise DomainError(
                "allocations support zero or geometric tails only")
        self.model = CustomModel(entries, tail_rule, name=name)
        self.name = name

    def amount(self, n: int) -> Rat:
        return self.model.term(n)

    @property
    def total_cert(self):
        return self.model.total_cert

    @property
    def tail_structure(self):
        rule = self.model.rule
        if rule.positive:
            return NonIncreasingBeyond(rule.start, positive=True)
        return ZeroBeyond(rule.start - 1)


class FnAllocation(AllocationPlan):
    """Allocation given by a closed-form function with declared structure."""

    def __init__(self, name: str, fn: Callable[[int], "Rat"],
                 total_cert=None, tail_structure=None, claim=None):
        self.name = name
        self.claim = claim
        self._fn = fn
        if total_cert is not None:
            self.total_cert = total_cert
        if tail_structure is not None:
            self.tail_structure = tail_structure
        self._cache: dict[int, Rat] = {}

    def amount(self, n: int) -> Rat:
        if n < 1:
            raise DomainError("indices start at 1")
        v = self._cache.get(n)
        if v is None:
            v = self._fn(n)
            if not isinstance(v, Rat):
                v = Rat(v)
            if v.numerator < 0:
                raise DomainError("amounts must be nonnegative")
            if len(self._cache) < 200_000:
                self._cache[n] = v
        return v


def load_allocation(text: str, name: str = "table") -> TableAllocation:
    entries, rule = _parse_table_text(text)
    return TableAllocation(entries, rule, name=name)


def dump_allocation(alloc: TableAllocation) -> str:
    if not isinstance(alloc, TableAllocation):
        raise CapabilityError("only table-driven allocations have a text form")
    return dump_model(alloc.model)


# ---------------------------------------------------------------------------
# relabelings

class Relabeling:
    """Bijection of the positive integers given by finitely many placements.

    Position n maps to placements[n] when present; every other position
    takes the smallest value not used by any placement, in increasing order
    of position.  With placements drawn from a permutation table this gives
    'identity beyond the table'; with sparse placements it fills the gaps.
    """

    def __init__(self, placements: dict[int, int], name: str = ""):
        positions = sorted(placements)
        values = sorted(placements.values())
        if positions and positions[0] < 1:
            raise PlanViolationError("positions start at 1")
        if values and values[0] < 1:
            raise PlanViolationError("values start at 1")
        if len(set(values)) != len(values):
            raise PlanViolationError("relabeling places one value twice")
        self._map = dict(placements)
        self._positions = positions
        self._values = values
        self._value_to_pos = {v: p for p, v in placements.items()}
        self.name = name

    @classmethod
    def identity(cls) -> "Relabeling":
        return cls({}, name="identity")

    @classmethod
    def from_sequence(cls, seq, name: str = "") -> "Relabeling":
        return cls({i + 1: int(v) for i, v in enumerate(seq)}, name=name)

    @classmethod
    def swap(cls, a: int, b: int) -> "Relabeling":
        return cls({a: b, b: a}, name=f"swap({a},{b})")

    @property
    def is_identity(self) -> bool:
        return all(p == v for p, v in self._map.items())

    @property
    def placements(self) -> dict[int, int]:
        return dict(self._map)

    @staticmethod
    def _kth_free(k: int, used: list[int]) -> int:
        # smallest x with x - (number of used values <= x) == k
        return least_index(lambda x: x - bisect.bisect_right(used, x) >= k,
                           k, k + len(used))

    def __call__(self, n: int) -> int:
        if n < 1:
            raise DomainError("positions start at 1")
        hit = self._map.get(n)
        if hit is not None:
            return hit
        rank = n - bisect.bisect_right(self._positions, n)
        return self._kth_free(rank, self._values)

    def inverse(self, value: int) -> int:
        if value < 1:
            raise DomainError("values start at 1")
        hit = self._value_to_pos.get(value)
        if hit is not None:
            return hit
        rank = value - bisect.bisect_right(self._values, value)
        return self._kth_free(rank, self._positions)

    def prefix(self, m: int) -> list[int]:
        return [self(n) for n in range(1, m + 1)]

    @property
    def support_bound(self) -> int:
        """All positions beyond this map identically in the fill region."""
        top = 0
        if self._positions:
            top = max(top, self._positions[-1])
        if self._values:
            top = max(top, self._values[-1])
        return top

    def __repr__(self):
        label = self.name or f"{len(self._map)} placements"
        return f"<Relabeling {label}>"


def descending_rearrangement(model: PriceModel, horizon: int) -> Relabeling:
    """A bijection reading prices in non-increasing order of value.

    Ties break toward the smaller original index.  Models that are already
    non-increasing from the start yield the identity.  A model with a zero
    price followed by infinitely many positive prices admits no such
    bijection and raises CapabilityError.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if model.nonincreasing_from == 1:
        return Relabeling.identity()
    if model.rule is None:
        raise CapabilityError(
            f"{model.name}: no certified value ordering available")
    # the table holds only positive prices, all below the tail's start
    if model.rule.positive and len(model._table) < model.rule.start - 1:
        raise CapabilityError(
            f"{model.name}: zeros before an infinite positive tail cannot "
            "be placed by any non-increasing ordering")
    return _ordered_relabeling(model, horizon,
                               name=f"descending[{model.name}]")


def quasi_descending_rearrangement(model: PriceModel,
                                   horizon: int) -> Relabeling:
    """Positive prices in non-increasing order; zeros wherever they land.

    Zeros are simply skipped when placing positives, so they end up after
    all positives (finite-positive case) or in the unplaced positions
    beyond the horizon (infinite-positive case).
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if model.nonincreasing_from == 1:
        return Relabeling.identity()
    if model.rule is None:
        raise CapabilityError(
            f"{model.name}: no certified value ordering available")
    return _ordered_relabeling(model, horizon,
                               name=f"quasi-descending[{model.name}]")


def _ordered_relabeling(model: CustomModel, horizon: int,
                        name: str) -> Relabeling:
    prefix = sorted(
        ((idx, model.term(idx)) for idx in model._table),
        key=lambda pair: (-pair[1], pair[0]))
    placements: dict[int, int] = {}
    if not model.rule.positive:
        # all positives live in the table; zeros fill in ascending order
        for pos, (idx, _val) in enumerate(prefix, start=1):
            placements[pos] = idx
        return Relabeling(placements, name=name)
    tail_idx = model.rule.start
    i = 0
    for pos in range(1, horizon + 1):
        tail_val = model.rule.term(tail_idx)
        if i < len(prefix) and prefix[i][1] >= tail_val:
            placements[pos] = prefix[i][0]
            i += 1
        else:
            placements[pos] = tail_idx
            tail_idx += 1
    return Relabeling(placements, name=name)


class OmittedZerosModel(PriceModel):
    """The positive subsequence of another model, indices compressed."""

    kind = "omitted-zeros"

    def __init__(self, inner: PriceModel):
        self.inner = inner
        self.name = f"positives[{inner.name}]"
        self._indices: list[int] = []
        self._source = inner.positive_indices()
        self._exhausted = False

    def _ensure(self, k: int) -> bool:
        while len(self._indices) < k and not self._exhausted:
            try:
                self._indices.append(next(self._source))
            except StopIteration:
                self._exhausted = True
        return len(self._indices) >= k

    def original_index(self, k: int) -> Optional[int]:
        if self._ensure(k):
            return self._indices[k - 1]
        return None

    def term(self, n: int) -> Rat:
        if n < 1:
            raise DomainError("indices start at 1")
        idx = self.original_index(n)
        if idx is None:
            return ZERO
        return self.inner.term(idx)

    @property
    def total_cert(self):
        return self.inner.total_cert

    @property
    def weighted_cert(self):
        return self.inner.weighted_cert


def omit_zeros(model: PriceModel, horizon: int):
    """Compress out zero prices.

    Returns (positives_model, alpha) where alpha maps each original index
    with positive price, up to the horizon, to its compressed position.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    compressed = OmittedZerosModel(model)
    alpha: dict[int, int] = {}
    k = 1
    while True:
        idx = compressed.original_index(k)
        if idx is None or idx > horizon:
            break
        alpha[idx] = k
        k += 1
    return compressed, alpha


def weighted_partial_sum(model: PriceModel, delta: Relabeling, m: int) -> Rat:
    """Exact sum of n * price(delta(n)) for n = 1..m."""
    if m < 0:
        raise DomainError("length must be >= 0")
    total = ZERO
    for n in range(1, m + 1):
        total += n * model.term(delta(n))
    return total
