"""Acceptance gate: twelve end-to-end checks, exact arithmetic throughout.

Each test prints one numbered PASS line on success; a failure shows up as
an ordinary pytest failure for that criterion.  Nothing here tolerates
rounding: every comparison is between exact rationals.
"""
import random

from prisoners import (
    ONE, ZERO, builtin_model, rat, rat_str, simulate,
)
from prisoners.adversaries import (
    good_index_adversary, two_cycle_adversary, v1b_ceiling_adversary,
    v2b_block_adversary,
)
from prisoners.analyzer import (
    brute_force_min, check_zero_omission, descending_partial_dominance,
)
from prisoners.permutations import random_bounded_diameter_plan, random_plan
from prisoners.registry import verify_theorem
from prisoners.sequences import (
    CustomModel, PermutedModel, Relabeling, ScaledModel, TableAllocation,
    ZeroTail,
)
from prisoners.strategies import (
    build_baseline_geometric, build_bounded_diameter_strategy,
    build_tail_sum_strategy, build_v2_strategy,
)

GEO = builtin_model("geometric", ratio=rat(1, 2))
INVSQ = builtin_model("inverse-square")
HARMONIC = builtin_model("harmonic")


def random_unit_table(seed: int, name: str = "alloc") -> TableAllocation:
    """A structured allocation with total exactly 1 on a random support."""
    rng = random.Random((name, seed).__repr__())
    size = rng.randint(3, 10)
    support = sorted(rng.sample(range(1, 31), size))
    weights = [rng.randint(1, 16) for _ in support]
    total = sum(weights)
    return TableAllocation(
        {p: rat(w, total) for p, w in zip(support, weights)},
        ZeroTail(support[-1] + 1), name=f"{name}[{seed}]")


def success_map(report):
    return {o.prisoner: o.success for o in report.outcomes}


def test_01_baseline_least_member_pattern():
    alloc = build_baseline_geometric()
    for seed in range(200):
        plan = random_plan(1000, 20, seed)
        report = simulate("V1a", GEO, alloc, plan, 1000)
        assert report.verdict == "PatternConfirmed", seed
        won = success_map(report)
        for members in report.cycles:
            if min(members) >= 2:
                assert won[min(members)], (seed, members)
    print("[01] PASS baseline: least member of every late cycle succeeds "
          "on 200 plans")


def test_02_tail_sum_strategy_and_smaller_total():
    # total 1: the registry check re-checks the least member of every
    # cycle past the cutoff on the same 200 plans
    assert build_tail_sum_strategy(GEO)[1] == 3
    report = verify_theorem("tail-sum-strategy",
                            {"plans": 200, "horizon": 1000, "max_len": 20})
    assert report.passed and report.checks == 200, report.witnesses
    assert "cutoff 3" in report.details
    quarter, mq = build_tail_sum_strategy(GEO, total=rat(1, 4))
    assert mq == 5
    for seed in range(200):
        plan = random_plan(1000, 20, seed)
        report = simulate("V1a", GEO, quarter, plan, 1000)
        assert report.verdict == "PatternConfirmed", seed
        won = success_map(report)
        for members in report.cycles:
            if min(members) >= mq:
                assert won[min(members)], (seed, members)
    print("[02] PASS tail-sum amounts: cutoff 3 at total 1, cutoff 5 at "
          "total 1/4, 200 plans each")


def test_03_identity_minimality_exhaustive():
    value, delta = brute_force_min(INVSQ, 7)
    assert value == rat(363, 140)
    assert delta.is_identity
    assert value == sum((rat(1, n) for n in range(1, 8)), ZERO)
    print("[03] PASS identity minimality: 5040 arrangements, exact "
          "minimum 363/140")


def test_04_descending_dominance():
    for m in range(1, 8):
        assert descending_partial_dominance(INVSQ, m=m).passed, m
    rng = random.Random("prefixes")
    for case in range(20):
        entries = {i: rat(rng.randint(1, 64), 64) for i in range(1, 8)}
        model = CustomModel(entries, ZeroTail(8), name=f"prefix[{case}]")
        report = descending_partial_dominance(model, m=7)
        assert report.passed and report.checked == 5040, case
    print("[04] PASS descending dominance: exhaustive through m=7 on "
          "inverse-square and 20 random prefixes")


def test_05_good_index_adversary_traps_all_successes():
    for seed in range(20):
        alloc = random_unit_table(seed, "structured")
        plan = good_index_adversary(INVSQ, alloc)
        emitted = plan.materialize(40)
        horizon = max(c.max_member for c in emitted)
        report = simulate("V1a", INVSQ, alloc, plan, horizon)
        assert report.verdict == "CounterexampleFound", seed
        first = set(report.cycles[0])
        for out in report.outcomes:
            if out.success:
                assert out.prisoner in first, (seed, out.prisoner)
        # zero-fill doubles the distributable amount: prefix sums rise to 2
        assert plan.enrichment_added == ONE
        running = ZERO
        for position in range(1, 41):
            step = plan.enriched_amount(position)
            assert step >= ZERO
            running += step
            assert running <= rat(2)
        assert running > ONE, (seed, rat_str(running))
    print("[05] PASS good-index adversary: 20 allocations, first 40 "
          "cycles, no success outside cycle 1, enriched sums rise "
          "toward 2")


def test_06_two_cycle_and_block_defeats_for_cofinite_release():
    for seed in range(20):
        alloc = random_unit_table(seed, "pairs")
        plan = two_cycle_adversary(GEO, alloc)
        emitted = plan.materialize(100)
        horizon = max(c.max_member for c in emitted)
        report = simulate("V1b", GEO, alloc, plan, horizon)
        assert report.verdict == "CounterexampleFound", seed
        won = success_map(report)
        for cycle in emitted:
            assert any(not won[m] for m in cycle.members), (seed, cycle)
        # the sized-block construction pinches leaders the same way where
        # its blocks stay at desk scale (divergent-price regime)
        blocks = v1b_ceiling_adversary(INVSQ, alloc)
        breport = simulate("V1b", INVSQ, alloc, blocks, 200)
        assert breport.verdict == "CounterexampleFound", seed
        bwon = success_map(breport)
        sized = [c for c in breport.cycles if len(c) >= 2]
        assert sized, seed
        for members in sized:
            assert any(not bwon[m] for m in members), (seed, members)
    print("[06] PASS cofinite-release impossibility: 100 pairs per "
          "allocation and every sized block contain a failing prisoner")


def test_07_bounded_length_across_information_models():
    # the three checks play random_plan(300, 3, seed) for seeds 0..199; the
    # disclosed-set and shared-box checks re-check that every member of a
    # late cycle succeeds, and the shared-box one that later members pay 0
    params = {"k": 3, "plans": 200, "horizon": 300}
    for key in ("bounded-length-v1a", "v1d-bounded", "open-boxes-v1c"):
        report = verify_theorem(key, params)
        assert report.passed and report.checks == 200, (key,
                                                        report.witnesses)
    print("[07] PASS bounded-length k=3: closed boxes, disclosed sets, "
          "and shared boxes with free later members, 200 plans each")


def test_08_bounded_diameter_cofinite_strategy():
    alloc, m = build_bounded_diameter_strategy(GEO, 2)
    threshold = m + 2
    for seed in range(200):
        plan = random_bounded_diameter_plan(300, 2, seed)
        report = simulate("V1b", GEO, alloc, plan, 300)
        assert report.verdict == "PatternConfirmed", seed
        for out in report.outcomes:
            if out.prisoner > threshold:
                assert out.success, (seed, out.prisoner)
    print("[08] PASS bounded-diameter d=2: everyone beyond the threshold "
          "succeeds on 200 banded plans")


def test_09_fixed_price_strategies_and_their_limits():
    winners = [build_v2_strategy("harmonic-prefix"),
               build_v2_strategy("shifted-harmonic", k=5)]
    for seed in range(200):
        plan = random_plan(3000, 6, seed)
        for alloc in winners:
            report = simulate("V2a", HARMONIC, alloc, plan, 3000)
            assert report.verdict == "PatternConfirmed", (alloc.name, seed)
            cutoff = alloc.claim.cutoff
            won = success_map(report)
            for members in report.cycles:
                if min(members) >= cutoff:
                    assert won[max(members)], (alloc.name, seed, members)
    # flat and scaled amounts losing their first 50 blocks, and
    # gap(2,1/2) = 4, are the v2a-strategies and scaled-gap checks
    print("[09] PASS fixed prices, infinite release: prefix amounts win "
          "at horizon 3000")


def test_10_fixed_price_cofinite_impossibility():
    # the named amounts constant1 and harmonic-prefix are the
    # v2b-no-strategy check
    for seed in range(10):
        alloc = random_unit_table(seed, "fixedprice")
        plan = v2b_block_adversary(alloc)
        emitted = plan.materialize(30)
        assert len(emitted) == 30, seed
        horizon = max(c.max_member for c in emitted)
        report = simulate("V2b", HARMONIC, alloc, plan, horizon)
        assert report.verdict == "CounterexampleFound", seed
        won = success_map(report)
        for cycle in emitted:
            assert not won[cycle.min_member], (seed, cycle)
    print("[10] PASS fixed prices, cofinite release: the first member of "
          "each of the first 30 blocks fails for random amounts")


def test_11_relabeling_and_scaling_leave_reports_unchanged():
    checked = 0
    for seed in range(50):
        rng = random.Random(("equivariance", seed).__repr__())
        horizon = 12
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

        base = simulate("V1a", GEO, TableAllocation(amounts,
                        ZeroTail(horizon + 1)), plan, horizon)
        mapped = simulate(
            "V1a", PermutedModel(GEO, delta_inv),
            TableAllocation({delta(n): v for n, v in amounts.items()},
                            ZeroTail(horizon + 1)),
            plan.conjugate(delta), horizon)
        expected = sorted(
            (dict(o.to_dict(), prisoner=delta(o.prisoner),
                  opened=[delta(b) for b in o.opened])
             for o in base.outcomes), key=lambda d: d["prisoner"])
        got = [o.to_dict() for o in mapped.outcomes]
        assert got == expected, seed
        checked += 1
    factor = rat(2, 3)
    for seed in range(50):
        rng = random.Random(("scaling", seed).__repr__())
        amounts = {n: rat(rng.randrange(0, 9), 128) for n in range(1, 13)}
        plan = random_plan(12, 4, seed)
        base = simulate("V1a", GEO, TableAllocation(amounts, ZeroTail(13)),
                        plan, 12)
        scaled = simulate(
            "V1a", ScaledModel(GEO, factor),
            TableAllocation({n: v * factor for n, v in amounts.items()},
                            ZeroTail(13)), random_plan(12, 4, seed), 12)
        expected = [dict(o.to_dict(), spent=rat_str(o.spent * factor))
                    for o in base.outcomes]
        assert [o.to_dict() for o in scaled.outcomes] == expected, seed
        checked += 1
    assert checked == 100
    print("[11] PASS relabeling and scaling: 100 scenarios map to "
          "bit-identical reports")


def test_12_zero_omission_exhaustive_m6():
    even = CustomModel({2 * k: rat(1, 2 ** k) for k in range(1, 8)},
                       ZeroTail(15), name="even-positions")
    thirds = CustomModel({3 * k: rat(1, 2 ** k) for k in range(1, 8)},
                         ZeroTail(22), name="every-third")
    powers = CustomModel({2 ** k: rat(1, 3 ** k) for k in range(0, 7)},
                         ZeroTail(65), name="powers")
    for model in (even, thirds, powers):
        trace = check_zero_omission(model, 6)
        assert trace.passed and not trace.failures, model.name
        assert trace.permutations == 720
        assert trace.mode == "even-embedding", model.name
    trace = check_zero_omission(even, 6)
    assert trace.alpha == {2 * k: k for k in range(1, 8)}
    print("[12] PASS zero omission: m=6 exhaustive on three zero "
          "patterns, even-position doubling identity included")
