"""Cycle and plan behavior, random generators, text round-trips."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prisoners.adversaries import (
    good_index_adversary, two_cycle_adversary, v1b_ceiling_adversary,
    v1d_cycle_chooser,
)
from prisoners.errors import (
    CapabilityError, NotMaterializedError, PlanViolationError,
)
from prisoners.numeric import rat
from prisoners.permutations import (
    Cycle, CyclePlan, dump_plan, parse_plan, random_plan,
    random_bounded_diameter_plan,
)
from prisoners.sequences import Relabeling, builtin_model
from prisoners.strategies import build_baseline_geometric


def test_cycle_successor_follows_member_order():
    c = Cycle((3, 5, 4))
    assert c.successor(3) == 5
    assert c.successor(5) == 4
    assert c.successor(4) == 3
    assert c.predecessor(3) == 4
    assert list(c.rotation_from(5)) == [5, 4, 3]


@pytest.mark.parametrize("cycle", [
    Cycle((3, 5, 4)), Cycle((7,)), Cycle.of_range(4, 9),
    Cycle.of_range(10, 90),
], ids=["explicit", "fixed-point", "short-range", "range"])
def test_rotation_matches_the_successor_walk(cycle):
    members = cycle.members or range(cycle.start, cycle.end + 1)
    for n in members:
        walk = [n]
        while cycle.successor(walk[-1]) != n:
            walk.append(cycle.successor(walk[-1]))
        assert cycle.rotation_from(n) == tuple(walk)
    for outsider in (cycle.start - 1, cycle.end + 1):
        with pytest.raises(PlanViolationError):
            cycle.rotation_from(outsider)


def test_cycle_rejects_bad_members():
    with pytest.raises(PlanViolationError):
        Cycle(())
    with pytest.raises(PlanViolationError):
        Cycle((2, 0))
    with pytest.raises(PlanViolationError):
        Cycle((1, 2, 1))


def test_cycle_equality_is_rotation_invariant():
    assert Cycle((1, 2, 3)) == Cycle((2, 3, 1))
    assert Cycle((1, 2, 3)) != Cycle((1, 3, 2))
    assert hash(Cycle((7, 9))) == hash(Cycle((9, 7)))


def test_range_cycle_matches_explicit_ascending():
    r = Cycle.of_range(10, 60)
    assert not r.is_range  # small ranges materialize
    big = Cycle.of_range(1000, 10_000_000)
    assert big.is_range
    assert big.length == 9_999_001
    assert big.successor(1000) == 1001
    assert big.successor(10_000_000) == 1000
    assert big.predecessor(1000) == 10_000_000
    assert big.diameter == 9_999_000
    assert big == Cycle.of_range(1000, 10_000_000)
    # an explicit ascending run equals the same range
    assert Cycle.of_range(4, 9) == Cycle((4, 5, 6, 7, 8, 9))


def test_range_cycle_price_uses_range_sum():
    model = builtin_model("geometric", ratio=rat(1, 2))
    c = Cycle.of_range(3, 6)
    # 1/8 + 1/16 + 1/32 + 1/64 = 15/64
    assert c.price(model) == rat(15, 64)
    assert Cycle((6, 3, 5, 4)).price(model) == rat(15, 64)


def test_plan_sigma_and_fixed_points():
    plan = CyclePlan([Cycle((2, 3)), Cycle((4, 6, 5))], name="demo")
    assert plan.sigma(2) == 3
    assert plan.sigma(3) == 2
    assert plan.sigma(4) == 6
    assert plan.sigma(1) == 1
    assert plan.sigma(100) == 100
    assert plan.cycle_containing(7) == Cycle((7,))


def test_plan_rejects_overlaps():
    with pytest.raises(PlanViolationError):
        CyclePlan([Cycle((1, 2)), Cycle((2, 3))])
    with pytest.raises(PlanViolationError):
        CyclePlan([Cycle.of_range(10, 3_000_000),
                   Cycle.of_range(2_999_999, 4_000_000)])


@pytest.mark.parametrize("first, second", [
    (Cycle.of_range(100, 1000), Cycle((150, 151))),
    (Cycle((151, 150)), Cycle.of_range(100, 1000)),
    (Cycle(range(1, 10_000, 2)), Cycle((3, 4))),
    (Cycle((1000, 999)), Cycle.of_range(1, 10 ** 12)),
    (Cycle((7, 100)), Cycle.of_range(100, 1000)),
    (Cycle((1000, 7)), Cycle.of_range(100, 1000)),
    (Cycle(range(1, 10_000, 2)), Cycle.of_range(9999, 10_100)),
    (Cycle(range(200, 10_000, 2)), Cycle.of_range(1, 200)),
], ids=["explicit-after-range", "range-after-explicit",
        "long-explicit-then-short", "huge-range-after-explicit",
        "range-starts-at-owned", "range-ends-at-owned",
        "short-range-starts-at-owned", "short-range-ends-at-owned"])
def test_plan_rejects_overlaps_between_explicit_and_range_cycles(
        first, second):
    with pytest.raises(PlanViolationError, match="appears in two cycles"):
        CyclePlan([first, second])
    lazy = CyclePlan.lazy(iter([first, second]))
    assert lazy.materialize(1) == [first]
    with pytest.raises(PlanViolationError):
        lazy.materialize(2)
    # the rejected cycle left nothing behind in the index
    assert lazy.cycles == [first]
    assert all(lazy.cycle_containing(n) is first
               for n in (first.start, first.end))


def test_long_explicit_cycles_are_indexed_member_by_member():
    odd = Cycle(range(1, 10_000, 2))
    even = Cycle(range(2, 10_001, 2))
    plan = CyclePlan([odd, even])
    assert plan.cycle_containing(2) is even
    assert plan.cycle_containing(9999) is odd
    assert plan.sigma(9999) == 1
    assert plan.cycle_containing(10_001) == Cycle((10_001,))


def _long_cycle(start: int, step: int, count: int, turn: int) -> list:
    members = list(range(start, start + step * count, step))
    return members[turn:] + members[:turn]


# a plan text's lines: lists are explicit lines (some of more than 4096
# members) and ranges are `range a b` lines with b - a >= 64, which stay
# range cycles
_PIECES = st.lists(st.one_of(
    st.lists(st.integers(1, 9000), min_size=1, max_size=5, unique=True),
    st.builds(_long_cycle, st.integers(1, 3000), st.integers(1, 3),
              st.integers(4097, 4200), st.integers(0, 4096)),
    st.builds(lambda a, span: range(a, a + span + 1),
              st.integers(1, 9000), st.integers(64, 1500)),
), min_size=1, max_size=5)


def _line(piece) -> str:
    if isinstance(piece, range):
        return f"range {piece[0]} {piece[-1]}"
    return " ".join(str(m) for m in piece)


def _cycle(piece) -> Cycle:
    if isinstance(piece, range):
        return Cycle.of_range(piece[0], piece[-1])
    return Cycle(piece)


def _oracle(pieces):
    """index -> position of the piece holding it, or None on any clash."""
    owner = {}
    for pos, piece in enumerate(pieces):
        for m in piece:
            if m in owner:
                return None
            owner[m] = pos
    return owner


@given(_PIECES)
@settings(max_examples=60, deadline=None)
def test_parse_plan_accepts_exactly_the_disjoint_texts(pieces):
    text = "".join(_line(p) + "\n" for p in pieces)
    owner = _oracle(pieces)
    if owner is None:
        with pytest.raises(PlanViolationError):
            parse_plan(text)
        return
    plan = parse_plan(text)
    cycles = plan.cycles
    for n in range(1, max(owner) + 1):
        hit = plan.cycle_containing(n)
        if n in owner:
            assert hit is cycles[owner[n]]
        else:
            assert hit.members == (n,)


@given(_PIECES)
@settings(max_examples=40, deadline=None)
def test_lazy_stream_raises_on_the_first_overlapping_cycle(pieces):
    clash = next((k for k in range(1, len(pieces) + 1)
                  if _oracle(pieces[:k]) is None), None)
    cycles = [_cycle(p) for p in pieces]
    plan = CyclePlan.lazy(iter(cycles))
    if clash is None:
        assert len(plan.materialize(len(cycles) + 1)) == len(cycles)
        return
    assert len(plan.materialize(clash - 1)) == clash - 1
    with pytest.raises(PlanViolationError):
        plan.materialize(clash)


def test_a_rejected_cycle_leaves_the_lazy_plan_failed():
    # skipping the rejected cycle would make 3 a fixed point the stream
    # never described
    plan = CyclePlan.lazy(iter([Cycle((1, 2)), Cycle((2, 3)), Cycle((4,))]))
    with pytest.raises(PlanViolationError) as first:
        plan.materialize(3)
    for _ in range(2):
        with pytest.raises(PlanViolationError) as again:
            plan.materialize(3)
        assert again.value is first.value
    assert plan.materialize(1) == plan.cycles == [Cycle((1, 2))]
    with pytest.raises(NotMaterializedError):
        plan.cycle_containing(3)


def test_a_stream_that_raised_is_not_read_as_exhausted():
    def stream():
        yield Cycle((1, 2))
        raise CapabilityError("the stream cannot go on")

    plan = CyclePlan.lazy(stream())
    for _ in range(2):
        with pytest.raises(CapabilityError, match="cannot go on"):
            plan.materialize(2)
    with pytest.raises(NotMaterializedError):
        plan.sigma(3)
    assert plan.window(4) == ([(1, 2)], [3, 4])


def test_lazy_plan_pulls_on_demand():
    def stream():
        n = 1
        while True:
            yield Cycle((n, n + 1))
            n += 2

    plan = CyclePlan.lazy(stream())
    first = plan.materialize(3)
    assert first == [Cycle((1, 2)), Cycle((3, 4)), Cycle((5, 6))]
    assert plan.sigma(6) == 5
    with pytest.raises(NotMaterializedError):
        plan.sigma(7)
    plan.materialize(4)
    assert plan.sigma(7) == 8


def test_lazy_plan_exhaustion_gives_identity_beyond():
    plan = CyclePlan.lazy(iter([Cycle((1, 2))]))
    assert plan.materialize(5) == [Cycle((1, 2))]
    assert plan.sigma(9) == 9


def test_conjugate_relabels_members():
    plan = CyclePlan([Cycle((1, 2)), Cycle((3, 4, 5))])
    delta = Relabeling({1: 3, 2: 1, 3: 2}, name="swap3")
    out = plan.conjugate(delta)
    assert out.cycles[0] == Cycle((3, 1))
    assert out.cycles[1] == Cycle((2, 4, 5))


def test_conjugate_keeps_far_ranges_and_rejects_near_ones():
    delta = Relabeling({1: 2, 2: 1})
    plan = CyclePlan([Cycle.of_range(100, 9_000_000)])
    out = plan.conjugate(delta)
    assert out.cycles[0].is_range
    near = CyclePlan([Cycle.of_range(1, 9_000_000)])
    with pytest.raises(CapabilityError):
        near.conjugate(delta)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_conjugation_formula(seed):
    # relabeled plan must satisfy sigma'(delta(n)) == delta(sigma(n))
    plan = random_plan(40, 6, seed)
    delta = Relabeling({1: 13, 13: 5, 5: 1, 2: 40, 40: 2})
    out = plan.conjugate(delta)
    for n in range(1, 41):
        assert out.sigma(delta(n)) == delta(plan.sigma(n))


def test_random_plan_is_deterministic_partition():
    a = random_plan(200, 7, seed=5)
    b = random_plan(200, 7, seed=5)
    assert a.cycles == b.cycles
    members = [m for c in a.cycles for m in c.members]
    assert sorted(members) == list(range(1, 201))
    assert max(c.length for c in a.cycles) <= 7
    assert random_plan(200, 7, seed=6).cycles != a.cycles


def test_random_bounded_diameter_plan_respects_band():
    plan = random_bounded_diameter_plan(500, 9, seed=11)
    members = [m for c in plan.cycles for m in c.members]
    assert sorted(members) == list(range(1, 501))
    assert max(c.diameter for c in plan.cycles) <= 9


def test_plan_rejects_duplicates_at_construction():
    with pytest.raises(PlanViolationError,
                       match="index 2 appears in two cycles"):
        CyclePlan([Cycle((1, 2)), Cycle((2, 3))])
    assert len(random_plan(50, 4, seed=1).cycles) > 1


def test_plan_text_round_trip():
    plan = CyclePlan([Cycle((3, 5, 4)), Cycle((1, 2)),
                      Cycle.of_range(1000, 8_000_000)])
    text = dump_plan(plan, identity_from=8_000_001)
    back = parse_plan(text)
    assert back.cycles == plan.cycles
    assert back.cycles[0].successor(3) == 5
    assert "identity-from 8000001" in text


def test_parse_plan_ignores_comments_and_blanks():
    text = "# header\n\n2 1\n# tail\nrange 70 9000000\n"
    plan = parse_plan(text)
    assert plan.cycles == [Cycle((2, 1)), Cycle.of_range(70, 9_000_000)]


@given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_random_plan_sigma_is_bijective_on_horizon(seed, horizon, max_len):
    plan = random_plan(horizon, max_len, seed)
    image = {plan.sigma(n) for n in range(1, horizon + 1)}
    assert image == set(range(1, horizon + 1))
    for c in plan.cycles:
        seen = list(c.rotation_from(c.min_member))
        assert len(seen) == c.length
        assert set(seen) == set(c.members)


def test_pulled_bound_is_the_running_max_of_pulled_members():
    # the third cycle reaches less far than the second
    stream = iter([Cycle((2, 1)), Cycle((3, 9)), Cycle((4, 5)),
                   Cycle.of_range(10, 500), Cycle((6,))])
    plan = CyclePlan.lazy(stream)
    assert plan.pulled_bound == 0
    for count in range(1, 7):
        plan.materialize(count)
        assert plan.pulled_bound == max(c.max_member for c in plan.cycles)
    explicit = CyclePlan([Cycle((7, 3)), Cycle((1, 2))])
    assert explicit.pulled_bound == 7


@pytest.mark.parametrize("members", [[2.7, 3], [1, Fraction(2)], ["1", 2]])
def test_cycle_rejects_members_that_are_not_integers(members):
    with pytest.raises(PlanViolationError, match="integers"):
        Cycle(members)


# ---------------------------------------------------------------------------
# the random generators against plans built through the validating path

def _validated_random_plan(horizon, max_len, seed):
    rng = random.Random(("plan", horizon, max_len, seed).__repr__())
    pool = list(range(1, horizon + 1))
    rng.shuffle(pool)
    cycles, i = [], 0
    while i < len(pool):
        k = rng.randint(1, min(max_len, len(pool) - i))
        cycles.append(Cycle(pool[i:i + k]))
        i += k
    return CyclePlan(cycles, name=f"random[{seed}]")


def _validated_banded_plan(horizon, diameter, seed):
    rng = random.Random(("banded", horizon, diameter, seed).__repr__())
    cycles, n = [], 1
    while n <= horizon:
        size = rng.randint(1, min(diameter + 1, horizon - n + 1))
        members = list(range(n, n + size))
        rng.shuffle(members)
        cycles.append(Cycle(members))
        n += size
    return CyclePlan(cycles, name=f"banded[{seed}]")


def _assert_same_plan(got, want):
    assert got.name == want.name
    assert [(c.members, c.start, c.end) for c in got.cycles] == [
        (c.members, c.start, c.end) for c in want.cycles]
    assert got._owner == want._owner
    assert list(got._owner) == list(want._owner)
    assert all(got._owner[m] is c for c in got.cycles for m in c.members)
    assert got._ranges == want._ranges == []
    assert got.pulled_bound == want.pulled_bound
    assert dump_plan(got) == dump_plan(want)


@pytest.mark.parametrize("horizon, cap", [(1, 1), (7, 3), (60, 6),
                                          (400, 20), (300, 1)])
def test_random_plans_equal_their_validated_builds(horizon, cap):
    for seed in range(50):
        _assert_same_plan(random_plan(horizon, cap, seed),
                          _validated_random_plan(horizon, cap, seed))
        _assert_same_plan(random_bounded_diameter_plan(horizon, cap - 1, seed),
                          _validated_banded_plan(horizon, cap - 1, seed))


# ---------------------------------------------------------------------------
# the window against one cycle_containing lookup per index

def _window_by_lookup(plan, horizon):
    cycles, cut = {}, []
    for n in range(1, horizon + 1):
        try:
            cycle = plan.cycle_containing(n)
        except NotMaterializedError:
            cut.append(n)
            continue
        if cycle.max_member > horizon:
            cut.append(n)
            continue
        least = cycle.min_member
        if least not in cycles:
            cycles[least] = cycle.rotation_from(least)
    return list(cycles.values()), cut


def _assert_window(plan, horizon):
    cycles, cut = plan.window(horizon)
    assert (cycles, cut) == _window_by_lookup(plan, horizon)
    assert all(type(members) is tuple for members in cycles)


@given(st.randoms(), st.lists(st.integers(1, 7), max_size=10),
       st.integers(0, 6), st.lists(st.integers(64, 80), max_size=2),
       st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_window_of_parsed_plans_with_gaps_and_ranges(rnd, sizes, gaps,
                                                     ranges, spare):
    count = sum(sizes) + gaps
    pool = list(range(1, count + 1))
    rnd.shuffle(pool)
    lines, i = [], 0
    for size in sizes:
        lines.append(" ".join(map(str, pool[i:i + size])))
        i += size
    start = count + 1
    for length in ranges:
        start += rnd.randint(0, 3)  # unlisted indices between ranges
        lines.append(f"range {start} {start + length - 1}")
        start += length
    rnd.shuffle(lines)
    plan = parse_plan("\n".join(lines) + "\n")
    for horizon in {1, count or 1, start - 1 or 1, start + spare,
                    rnd.randint(1, start + spare)}:
        _assert_window(plan, horizon)


def test_window_of_partly_pulled_lazy_streams():
    invsq = builtin_model("inverse-square")
    geo = builtin_model("geometric", ratio=rat(1, 2))
    baseline = build_baseline_geometric()
    for build in (lambda: good_index_adversary(invsq, baseline),
                  lambda: two_cycle_adversary(geo, baseline),
                  lambda: CyclePlan.lazy(iter([Cycle((2, 1)), Cycle((3, 9)),
                                               Cycle.of_range(12, 90)]))):
        plan = build()
        for pulled in (0, 1, 2, 5, 9):
            plan.materialize(pulled)
            bound = plan.pulled_bound
            for horizon in {1, 3, bound or 1, bound + 1, bound + 7,
                            2 * bound + 5}:
                _assert_window(plan, horizon)


@pytest.mark.parametrize("build", [
    lambda m, b: v1b_ceiling_adversary(m, b, leader_cap=50),
    lambda m, b: v1d_cycle_chooser(m, leader_cap=50),
], ids=["v1b-ceiling", "v1d-chooser"])
def test_window_of_streams_cut_at_their_covered_bound(build):
    plan = build(builtin_model("inverse-square"), build_baseline_geometric())
    plan.materialize(10)
    assert plan.covered_bound is not None
    bound = plan.covered_bound
    for horizon in (1, bound - 1, bound, bound + 1, plan.pulled_bound,
                    plan.pulled_bound + 3, 520):
        _assert_window(plan, horizon)
