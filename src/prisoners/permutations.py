"""Permutations of the positive integers built from finite cycles.

A plan lists explicit cycles and treats every unlisted index as a fixed
point, or pulls cycles lazily from an adversary stream.  Cycles over huge
consecutive blocks are kept as ranges instead of member tuples.  Every
cycle enters a plan through `CyclePlan._admit`, which keeps the plan's one
membership index and rejects any index claimed by two cycles, except the
random generators' disjoint cycles, which fill the same index unchecked.
"""
from __future__ import annotations

import operator
import random
from typing import Iterable, Iterator, Optional

from .errors import (
    CapabilityError, DomainError, NotMaterializedError, PlanViolationError,
)
from .numeric import Rat

__all__ = [
    "Cycle", "CyclePlan", "random_plan", "random_bounded_diameter_plan",
    "parse_plan", "dump_plan", "cycle_line",
]


def _index_repr(n: int) -> str:
    # adversary blocks reach indices too large for decimal formatting
    if isinstance(n, int) and n.bit_length() > 1024:
        return f"<{n.bit_length()}-bit index>"
    return str(n)


class Cycle:
    """An ordered cycle of distinct box indices.

    Explicit cycles carry their member tuple in cycle order.  Range cycles
    stand for the ascending consecutive cycle (start, start+1, ..., end)
    and are never materialized, so adversaries can emit blocks with more
    members than would fit in memory.
    """

    __slots__ = ("members", "start", "end")

    def __init__(self, members: Iterable[int]):
        try:
            tup = tuple(map(operator.index, members))
        except TypeError:
            raise PlanViolationError(
                "cycle members must be integers") from None
        if not tup:
            raise PlanViolationError("empty cycle")
        if any(m < 1 for m in tup):
            raise PlanViolationError("cycle members must be >= 1")
        if len(set(tup)) != len(tup):
            raise PlanViolationError(f"repeated member in cycle {tup}")
        self.members = tup
        self.start = min(tup)
        self.end = max(tup)

    @classmethod
    def _trusted(cls, members: Optional[tuple], start: int,
                 end: int) -> "Cycle":
        """A cycle whose distinct members >= 1 span [start, end]."""
        obj = object.__new__(cls)
        obj.members, obj.start, obj.end = members, start, end
        return obj

    @classmethod
    def of_range(cls, start: int, end: int) -> "Cycle":
        if start < 1 or end < start:
            raise PlanViolationError(f"bad cycle range [{start}, {end}]")
        if end - start < 64:
            return cls(range(start, end + 1))
        return cls._trusted(None, start, end)

    @property
    def is_range(self) -> bool:
        return self.members is None

    @property
    def length(self) -> int:
        if self.members is not None:
            return len(self.members)
        return self.end - self.start + 1

    @property
    def min_member(self) -> int:
        return self.start

    @property
    def max_member(self) -> int:
        return self.end

    @property
    def diameter(self) -> int:
        return self.max_member - self.min_member

    def contains(self, n: int) -> bool:
        if self.members is not None:
            return n in self.members
        return self.start <= n <= self.end

    def successor(self, n: int) -> int:
        """The box index written on the slip inside box n, i.e. sigma(n)."""
        if self.members is not None:
            i = self.members.index(n)
            return self.members[(i + 1) % len(self.members)]
        if not self.start <= n <= self.end:
            raise PlanViolationError(f"{n} is not in this cycle")
        return self.start if n == self.end else n + 1

    def predecessor(self, n: int) -> int:
        if self.members is not None:
            i = self.members.index(n)
            return self.members[i - 1]
        if not self.start <= n <= self.end:
            raise PlanViolationError(f"{n} is not in this cycle")
        return self.end if n == self.start else n - 1

    def rotation_from(self, n: int) -> tuple:
        """Members in walk order starting at n; ends at n's predecessor."""
        if not self.contains(n):
            raise PlanViolationError(f"{n} is not in this cycle")
        if self.members is not None:
            i = self.members.index(n)
            return self.members[i:] + self.members[:i]
        return tuple(range(n, self.end + 1)) + tuple(range(self.start, n))

    def price(self, model) -> Rat:
        if self.members is not None:
            units, scale = model.cycle_units(self.members)
            return Rat(sum(units), scale)
        return model.range_sum(self.start, self.end)

    def _canonical(self):
        if self.members is None:
            return ("range", self.start, self.end)
        rotated = self.rotation_from(self.start)
        if rotated == tuple(range(self.start, self.end + 1)):
            return ("range", self.start, self.end)
        return rotated

    def __eq__(self, other):
        if not isinstance(other, Cycle):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self):
        if self.members is None:
            return (f"Cycle.of_range({_index_repr(self.start)}, "
                    f"{_index_repr(self.end)})")
        return f"Cycle({self.members})"


class CyclePlan:
    """A permutation given by disjoint finite cycles.

    Prefix plans hold a finite cycle list and act as the identity on every
    unlisted index.  Lazy plans pull consecutive cycles from a stream and
    only know the portion pulled so far.  A pull that fails leaves the
    plan failed: every later pull raises the same error.
    """

    # what a guard construction certifies about this plan (see GuardPlan)
    claim = None

    def __init__(self, cycles: Iterable[Cycle] = (), name: str = "plan",
                 source: Optional[Iterator[Cycle]] = None):
        self.name = name
        self._source = source
        self._cycles: list[Cycle] = []
        self._owner: dict[int, Cycle] = {}
        self._ranges: list[Cycle] = []
        self._exhausted = source is None
        self._pulled_bound = 0
        self._failure: Optional[Exception] = None
        # set by stream producers whose coverage stops without implying
        # identity beyond (the stream continues in another representation)
        self.covered_bound: Optional[int] = None
        for c in cycles:
            self._admit(c)

    @classmethod
    def lazy(cls, source: Iterator[Cycle], name: str = "stream") -> "CyclePlan":
        return cls((), name=name, source=source)

    @classmethod
    def _of_disjoint(cls, cycles: list, name: str) -> "CyclePlan":
        """A plan of explicit disjoint cycles, indexed as _admit would."""
        plan = cls((), name=name)
        plan._cycles = cycles
        plan._owner = {m: c for c in cycles for m in c.members}
        plan._pulled_bound = max(c.end for c in cycles)
        return plan

    def _admit(self, cycle: Cycle) -> None:
        """Index a cycle's members, or raise if another cycle holds one.

        Explicit cycles of any length go into the owner map and only range
        cycles into the range list.  A range is checked against the owned
        members at O(min(its length, owned members)).
        """
        if not isinstance(cycle, Cycle):
            cycle = Cycle(cycle)
        start, end = cycle.start, cycle.end
        owner, members = self._owner, cycle.members
        if members is None:
            for other in self._ranges:
                if start <= other.end and other.start <= end:
                    raise PlanViolationError(
                        "cycle ranges overlap in this plan")
            # scan the shorter side: the range or the owned members
            taken = ([m for m in range(start, end + 1) if m in owner]
                     if end - start < len(owner)
                     else [m for m in owner if start <= m <= end])
        else:
            taken = ([] if owner.keys().isdisjoint(members)
                     else [m for m in members if m in owner])
            for other in self._ranges:
                if start <= other.end and other.start <= end:
                    taken += [m for m in members
                              if other.start <= m <= other.end]
        if taken:
            raise PlanViolationError(
                f"index {_index_repr(min(taken))} appears in two cycles")
        if members is None:
            self._ranges.append(cycle)
        else:
            for m in members:
                owner[m] = cycle
        self._cycles.append(cycle)
        self._pulled_bound = max(self._pulled_bound, end)

    @property
    def is_lazy(self) -> bool:
        return self._source is not None

    def materialize(self, count: int) -> list[Cycle]:
        """First count cycles, pulling from the stream as needed."""
        while len(self._cycles) < count and not self._exhausted:
            if self._failure is not None:
                raise self._failure
            try:
                self._admit(next(self._source))
            except StopIteration:
                self._exhausted = True
            except Exception as exc:
                self._failure = exc
                raise
        return self._cycles[:count]

    @property
    def cycles(self) -> list[Cycle]:
        return list(self._cycles)

    @property
    def pulled_bound(self) -> int:
        """Largest index known to be covered by pulled cycles."""
        return self._pulled_bound

    def cycle_containing(self, n: int) -> Cycle:
        if n < 1:
            raise DomainError("indices start at 1")
        hit = self._owner.get(n)
        if hit is not None:
            return hit
        for c in self._ranges:
            if c.start <= n <= c.end:
                return c
        if self.is_lazy and not self._exhausted and n > self.pulled_bound:
            raise NotMaterializedError(
                f"index {_index_repr(n)} lies beyond the "
                f"{len(self._cycles)} cycles pulled so far")
        if self.covered_bound is not None and n > self.covered_bound:
            raise NotMaterializedError(
                f"index {_index_repr(n)} lies beyond the covered bound "
                f"{_index_repr(self.covered_bound)}; the stream continues "
                "in a non-materializable form")
        return Cycle((n,))

    def window(self, horizon: int) -> tuple:
        """(cycles, not_simulated) of [1, horizon]: each cycle inside it in
        walk order from its least member, least members ascending, and the
        ascending indices whose cycle crosses the horizon or which
        cycle_containing cannot place (an unlisted index it can place is a
        fixed point)."""
        cycles, cut = [], []
        for c in self._cycles:
            if c.end <= horizon:
                cycles.append(c.rotation_from(c.start))
            elif c.start <= horizon:
                cut += [m for m in c.members or range(c.start, horizon + 1)
                        if m <= horizon]
        free = set(range(1, horizon + 1)).difference(self._owner)
        for c in self._ranges:
            free.difference_update(range(c.start, min(c.end, horizon) + 1))
        known = horizon
        if self.is_lazy and not self._exhausted:
            known = min(known, self._pulled_bound)
        if self.covered_bound is not None:
            known = min(known, self.covered_bound)
        cycles += [(n,) for n in free if n <= known]
        cut += [n for n in free if n > known]
        return sorted(cycles, key=operator.itemgetter(0)), sorted(cut)

    def sigma(self, n: int) -> int:
        return self.cycle_containing(n).successor(n)

    def conjugate(self, delta, name: Optional[str] = None) -> "CyclePlan":
        """The plan with every member relabeled through delta."""
        mapped = []
        for c in self._cycles:
            if c.is_range:
                if c.start > delta.support_bound:
                    mapped.append(c)
                    continue
                raise CapabilityError(
                    "cannot relabel a non-materializable cycle range")
            mapped.append(Cycle(delta(m) for m in c.members))
        return CyclePlan(mapped, name=name or f"{self.name}@{delta.name}")


# A window opens at most horizon * (longest cycle) boxes.  A zero-price V1a
# window and its JSON text raised ru_maxrss by 0.9 MiB at 6.8 * 10^4 opened
# boxes and 23 MiB at 7.1 * 10^5 (horizon 10^4, max_len 100), about 34
# bytes a box, so 10^7 boxes stay near 340 MiB, and every horizon up to
# 10^6 passes in cycles of the default 6 members.
OPENED_BOX_CAP = 10**7


def _check_opened_boxes(horizon: int, longest: int) -> None:
    """Refuse a random plan whose window could open too many boxes."""
    longest = min(longest, horizon)
    if horizon * longest > OPENED_BOX_CAP:
        raise DomainError(
            f"{horizon} prisoners in cycles of up to {longest} members "
            f"could open {horizon * longest} boxes, past the cap of "
            f"{OPENED_BOX_CAP}")


def random_plan(horizon: int, max_len: int, seed: int,
                name: Optional[str] = None) -> CyclePlan:
    """Random partition of [1, horizon] into cycles of length <= max_len."""
    if not (isinstance(horizon, int) and isinstance(max_len, int)
            and horizon >= 1 and max_len >= 1):
        raise DomainError("horizon and max_len must be integers >= 1")
    _check_opened_boxes(horizon, max_len)
    rng = random.Random(("plan", horizon, max_len, seed).__repr__())
    pool = list(range(1, horizon + 1))
    rng.shuffle(pool)
    cycles = []
    i = 0
    while i < horizon:
        k = rng.randint(1, min(max_len, horizon - i))
        members = tuple(pool[i:i + k])
        cycles.append(Cycle._trusted(members, min(members), max(members)))
        i += k
    return CyclePlan._of_disjoint(cycles, name or f"random[{seed}]")


def random_bounded_diameter_plan(horizon: int, diameter: int, seed: int,
                                 name: Optional[str] = None) -> CyclePlan:
    """Random plan whose every cycle has max - min <= diameter."""
    if not (isinstance(horizon, int) and isinstance(diameter, int)
            and horizon >= 1 and diameter >= 0):
        raise DomainError("horizon must be an integer >= 1 and diameter "
                          "an integer >= 0")
    _check_opened_boxes(horizon, diameter + 1)
    rng = random.Random(("banded", horizon, diameter, seed).__repr__())
    cycles = []
    n = 1
    while n <= horizon:
        size = rng.randint(1, min(diameter + 1, horizon - n + 1))
        members = list(range(n, n + size))
        rng.shuffle(members)
        cycles.append(Cycle._trusted(tuple(members), n, n + size - 1))
        n += size
    return CyclePlan._of_disjoint(cycles, name or f"banded[{seed}]")


def cycle_line(cycle: Cycle) -> str:
    """The plan-file line of one cycle: its members in cycle order, or
    `range start end` for a range cycle."""
    try:
        if cycle.is_range:
            return f"range {cycle.start} {cycle.end}"
        return " ".join(str(m) for m in cycle.members)
    except ValueError:  # past the interpreter's limit on decimal digits
        raise CapabilityError(f"{cycle!r} has an index too large to write "
                              "in decimal") from None


def dump_plan(plan: CyclePlan, identity_from: Optional[int] = None) -> str:
    """One cycle per line, members in cycle order."""
    lines = [cycle_line(c) for c in plan.cycles]
    if identity_from is not None:
        lines.append(f"identity-from {identity_from}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str, name: str = "parsed") -> CyclePlan:
    cycles = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "identity-from":
            continue
        try:
            if parts[0] == "range":
                if len(parts) != 3:
                    raise DomainError(f"bad range line: {raw!r}")
                cycles.append(Cycle.of_range(int(parts[1]), int(parts[2])))
            else:
                cycles.append(Cycle(int(p) for p in parts))
        except ValueError:
            raise DomainError(f"bad plan line: {raw!r}")
    return CyclePlan(cycles, name=name)
