"""Exact oracles for the weighted rearrangement sum of n * price(delta(n)).

Whether any rearrangement makes that sum converge decides whether a winning
allocation exists at all, so this module carries the decision procedure and
the desk-scale consistency checks behind it: exhaustive minimization over
small permutation prefixes, dominance of the descending arrangement, and the
bookkeeping that lets zero prices be compressed out without changing the
answer.  Everything is computed in exact rationals; nothing is estimated.
The exhaustive scans hold each scan's prices as integers over one common
denominator.  All three account for the m! arrangements through a table
of least completions over the 2^m label subsets and list only the
arrangements that fail: those below the bound of the minimum or dominance
check, and those that break a zero-omission fact.
"""
from __future__ import annotations

import heapq
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import CapabilityError, DomainError
from .numeric import Rat, ZERO, lcm_units, rat_str
from .sequences import (
    PriceModel, Relabeling, WeightedCert, descending_rearrangement,
    omit_zeros, quasi_descending_rearrangement, weighted_partial_sum,
)

__all__ = [
    "DominanceReport", "ExistenceVerdict", "ZeroOmissionTrace",
    "analysis_tsv", "brute_force_min", "check_zero_omission",
    "cycle_notation", "decide_existence", "descending_partial_dominance",
]

# 9! = 362880 exhaustive scans stay interactive; 10! would not
_FACTORIAL_CAP = 9

_DIAG_CHECKPOINTS = (8, 16, 32, 64)


def _require_desk_scale(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise DomainError("the prefix length must be a positive integer")
    if m > _FACTORIAL_CAP:
        raise DomainError(
            f"exhaustive scans are capped at {_FACTORIAL_CAP} "
            f"(asked for {m}, which means {m}! permutations)")


# ---------------------------------------------------------------------------
# exhaustive minimization

def _weighted(ints, perm) -> int:
    """Integer sum of n * ints[perm[n - 1] - 1]."""
    return sum(n * ints[x - 1] for n, x in enumerate(perm, start=1))


def _least_completions(a, b=(), pos=0) -> list:
    """least[mask]: the least integer sum that the labels outside mask add
    when they fill positions popcount(mask) + 1 onwards, in some order.

    Label x at position n adds n * a[x] - r * b[x], where r is one more than
    the number of labels of the mask pos placed before it; b defaults to 0.
    """
    m = len(a)
    b = b or [0] * m
    # steps[n - 1][r - 1][x]: what label x adds at position n and rank r
    steps = [[[n * v - r * w for v, w in zip(a, b)] for r in range(1, n + 1)]
             for n in range(1, m + 1)]
    least = [0] * (1 << m)
    full = len(least) - 1
    for mask in range(full - 1, -1, -1):
        step = steps[mask.bit_count()][(mask & pos).bit_count()]
        free = full ^ mask
        best = None
        while free:  # the free labels, lowest bit first
            bit = free & -free
            free ^= bit
            value = step[bit.bit_length() - 1] + least[mask | bit]
            if best is None or value < best:
                best = value
        least[mask] = best
    return least


def _arrangements_below(a, least, bound, b=(), pos=0):
    """Each arrangement of 1..m whose integer sum of steps (as in
    _least_completions) is below bound, in lexicographic order, with that
    sum: a prefix is extended only while its sum plus least[mask] stays
    below bound."""
    b = b or [0] * len(a)

    def extend(mask, prefix, total):
        if mask == len(least) - 1:
            yield prefix, total
            return
        n = len(prefix) + 1
        r = (mask & pos).bit_count() + 1
        for x, (v, w) in enumerate(zip(a, b)):
            bit = 1 << x
            step = total + n * v - r * w
            if not mask & bit and step + least[mask | bit] < bound:
                yield from extend(mask | bit, prefix + (x + 1,), step)
    return extend(0, (), 0)


def _nonzero(a, b):
    """Each arrangement whose sums of n * a[x] and n * b[x] differ, in
    lexicographic order: those whose difference lies below 0 or above it."""
    d = [u - v for u, v in zip(a, b)]
    return heapq.merge(*(_arrangements_below(f, _least_completions(f), 0)
                         for f in (d, [-v for v in d])))


def brute_force_min(model: PriceModel, m: int):
    """Exact minimum of the weighted prefix sum over all m! arrangements.

    Returns (value, relabeling) where the relabeling is the
    lexicographically least arrangement achieving the minimum: every sum
    is at least least[0], so the first arrangement listed below
    least[0] + 1 in lexicographic order is that one.
    """
    _require_desk_scale(m)
    ints, scale = lcm_units([model.term(i) for i in range(1, m + 1)])
    least = _least_completions(ints)
    perm, best = next(_arrangements_below(ints, least, least[0] + 1))
    return Rat(best, scale), Relabeling.from_sequence(perm, name="minimizer")


# ---------------------------------------------------------------------------
# existence of a winning allocation

@dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of the convergence question, never guessed.

    value is Exists, NotExists or Unknown; justification names the model
    certificate that backs a definite answer.  Unknown carries exact
    partial sums of a value-ordered rearrangement as diagnostics.
    """

    value: str
    justification: str
    diagnostics: Optional[dict] = None

    def __post_init__(self):
        if self.value not in ("Exists", "NotExists", "Unknown"):
            raise DomainError(f"unknown verdict value {self.value!r}")


def decide_existence(model: PriceModel) -> ExistenceVerdict:
    """Exists iff some rearranged weighted sum is certified finite.

    Convergence under rearrangement is not observable from finitely many
    terms, so only declared model certificates can settle the question;
    anything else is Unknown, with the partial sums of the descending (or
    quasi-descending, when zeros block a full ordering) rearrangement
    attached for inspection.
    """
    cert = model.weighted_cert
    if cert is WeightedCert.CONVERGES_SOME:
        return ExistenceVerdict("Exists", cert.value)
    if cert is WeightedCert.DIVERGES_ALL:
        return ExistenceVerdict("NotExists", cert.value)
    return ExistenceVerdict("Unknown", "no certificate declared",
                            diagnostics=_unknown_diagnostics(model))


def _unknown_diagnostics(model: PriceModel) -> dict:
    horizon = _DIAG_CHECKPOINTS[-1]
    try:
        delta = descending_rearrangement(model, horizon)
        ordering = "descending"
    except CapabilityError:
        try:
            delta = quasi_descending_rearrangement(model, horizon)
            ordering = "quasi-descending"
        except CapabilityError as err:
            return {"ordering": None, "note": str(err)}
    sums = [[m, rat_str(weighted_partial_sum(model, delta, m))]
            for m in _DIAG_CHECKPOINTS]
    return {"ordering": ordering, "partial_sums": sums}


# ---------------------------------------------------------------------------
# zero omission

@dataclass
class ZeroOmissionTrace:
    """Exhaustive desk-scale audit of compressing out zero prices."""

    passed: bool
    mode: str  # "zero-free" or "even-embedding"
    permutations: int
    alpha: dict
    failures: list = field(default_factory=list)


def check_zero_omission(model: PriceModel, m: int) -> ZeroOmissionTrace:
    """Verify that dropping zero prices preserves the weighted sums.

    With q the positive subsequence of p and alpha the compression map,
    two facts carry the equivalence and both are checked exactly for every
    permutation of [1..m]: the arrangement induced on q never exceeds the
    p-sum, and re-embedding q at the even positions (zeros at the odd
    ones) exactly doubles the q-sum.  Without zeros below the horizon the
    q-sum must equal the p-sum instead.  Each fact compares sums of integer
    steps, so the subset table accounts for all m! permutations and lists
    only those that fail it.
    """
    _require_desk_scale(m)
    horizon = max(4 * m, 64)
    compressed, alpha = omit_zeros(model, horizon)
    # every price up to the horizon, read once
    price = [ZERO] + [model.term(i) for i in range(1, horizon + 1)]
    shrunk = {k: compressed.term(k) for k in alpha.values()}
    failures: list[dict] = [{"kind": "alpha", "index": i, "position": k}
                            for i, k in alpha.items() if shrunk[k] != price[i]]
    zeros = [i for i in range(1, horizon + 1) if not price[i]]
    q_terms = [shrunk[k] if k in shrunk else compressed.term(k)
               for k in range(1, m + 1)]
    if not zeros:
        # compression must then be the identity
        failures += [{"kind": "alpha", "index": i, "position": alpha.get(i)}
                     for i in range(1, m + 1) if alpha.get(i) != i]
        ints, scale = lcm_units(price[1:m + 1] + q_terms)
        p, q = ints[:m], ints[m:]
        listed = ((perm, "identity", 0) for perm, _ in _nonzero(p, q))
    else:
        if compressed.original_index(m) is None:
            raise CapabilityError(
                f"{model.name}: fewer than {m} positive prices below "
                f"index {horizon}")
        if len(zeros) < m:
            raise CapabilityError(
                f"{model.name}: only {len(zeros)} zero prices below index "
                f"{horizon}, need {m} to embed at odd positions")
        beta = [compressed.original_index(k) for k in range(1, m + 1)]
        placements = {2 * k: beta[k - 1] for k in range(1, m + 1)}
        for j in range(1, m + 1):
            placements[2 * j - 1] = zeros[j - 1]
        # raises when beta meets the zeros, which no permutation changes
        Relabeling(placements, name="even-embedding")
        ints, scale = lcm_units(
            price[1:m + 1] + q_terms
            + [price[i] if i <= horizon else model.term(i) for i in beta])
        p, q, p_beta = (ints[c * m:(c + 1) * m] for c in range(3))
        # p-sum minus the sum induced on q: label x steps n * p[x] at
        # position n, less k * q[alpha(x)] when it is the k-th positive one
        pos = sum(1 << x for x, v in enumerate(p) if v > 0)
        q_alpha = [q[alpha[x + 1] - 1] if pos >> x & 1 else 0
                   for x in range(m)]
        induced = _arrangements_below(
            p, _least_completions(p, q_alpha, pos), 0, q_alpha, pos)
        # the zeros at the odd positions add nothing to the embedded sum;
        # the merge is stable, so induced comes before doubling on one perm
        listed = heapq.merge(
            ((perm, "induced", total) for perm, total in induced),
            ((perm, "doubling", 0) for perm, _ in _nonzero(p_beta, q)),
            key=operator.itemgetter(0))
    for perm, kind, total in listed:
        if kind == "identity":
            lhs, rhs = _weighted(q, perm), _weighted(p, perm)
        elif kind == "induced":
            rhs = _weighted(p, perm)
            lhs = rhs - total
        else:
            lhs, rhs = 2 * _weighted(p_beta, perm), 2 * _weighted(q, perm)
        failures.append({"delta": list(perm), "kind": kind,
                         "lhs": rat_str(Rat(lhs, scale)),
                         "rhs": rat_str(Rat(rhs, scale))})
    return ZeroOmissionTrace(
        passed=not failures, mode="even-embedding" if zeros else "zero-free",
        permutations=math.factorial(m), alpha=dict(alpha), failures=failures)


# ---------------------------------------------------------------------------
# dominance of the descending arrangement

@dataclass
class DominanceReport:
    """Descending prices checked against rival arrangements, exactly."""

    passed: bool
    mode: str  # "exhaustive" or "sampled"
    checked: int
    m: int
    sigma: tuple
    minimum: Rat
    failures: list = field(default_factory=list)


def descending_partial_dominance(model: PriceModel, trials: int = 1000,
                                 m: int = 6, seed: int = 0) -> DominanceReport:
    """Check that descending prices minimize the weighted prefix sum.

    Sorting the first m prices into non-increasing order pairs the largest
    price with the smallest weight; no rival arrangement of [1..m] can do
    better.  All m! rivals are tried when m allows it, otherwise `trials`
    seeded shuffles.  Requires strictly positive prices, as a zero would
    let rivals tie in ways the statement does not cover.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError("the prefix length must be a positive integer")
    terms = []
    for i in range(1, m + 1):
        v = model.term(i)
        if v <= ZERO:
            raise DomainError(
                f"positivity hypothesis fails at index {i}: "
                f"price is {rat_str(v)}")
        terms.append(v)
    sigma = tuple(sorted(range(1, m + 1), key=lambda i: (-terms[i - 1], i)))
    ints, scale = lcm_units(terms)
    least = _weighted(ints, sigma)

    failures: list[dict] = []
    if m <= _FACTORIAL_CAP:
        mode = "exhaustive"
        checked = math.factorial(m)
        for perm, value in _arrangements_below(
                ints, _least_completions(ints), least):
            failures.append({"delta": list(perm),
                             "sum": rat_str(Rat(value, scale))})
    else:
        if trials < 1:
            raise DomainError("sampling needs at least one trial")
        mode = "sampled"
        rng = random.Random(seed)
        base = list(range(1, m + 1))
        checked = trials
        for _ in range(trials):
            rng.shuffle(base)
            value = _weighted(ints, base)
            if value < least:
                failures.append({"delta": list(base),
                                 "sum": rat_str(Rat(value, scale))})
    return DominanceReport(passed=not failures, mode=mode, checked=checked,
                           m=m, sigma=sigma, minimum=Rat(least, scale),
                           failures=failures)


# ---------------------------------------------------------------------------
# report format

def cycle_notation(delta: Relabeling) -> str:
    """One-line cycle notation of a finite relabeling, e.g. (1 3 2)(4 5).

    Cycles are rotated to start at their least member and listed by that
    member; fixed points are dropped, so the identity renders as ().
    """
    mapping = delta.placements
    seen = set()
    cycles = []
    for start in sorted(mapping):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = delta(start)
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = delta(nxt)
        if len(cycle) > 1:
            pivot = cycle.index(min(cycle))
            cycles.append(cycle[pivot:] + cycle[:pivot])
    cycles.sort(key=lambda c: c[0])
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(n) for n in c) + ")" for c in cycles)


def analysis_tsv(rows) -> str:
    """TSV report: one line per arrangement, cycle notation then num/den."""
    lines = [f"{cycle_notation(delta)}\t{rat_str(value)}"
             for delta, value in rows]
    return "\n".join(lines) + "\n" if lines else ""
