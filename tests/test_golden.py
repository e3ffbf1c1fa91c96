"""Golden outputs: adversary dumps, guard reports, windows and blocks.

The SHA-256 digests below were recorded from the code before guard plans
got their own types, so any refactor of the adversaries, the engine or the
CLI that changes a single output byte fails here.  Every dump except
good-index and two-cycle ends its stream with a note entry, which crashed
the CLI when they were recorded; their digests are of the same cycle lines
with note entries skipped, which is what the fixed CLI prints.  The
window digests were recorded from the prisoner-by-prisoner walk, before
closed-box variants were scored per cycle from prefix sums, and the
analyzer digests from the per-arrangement rational loops, before the
exhaustive scans summed integers over a common denominator.  The last
five window digests were recorded before claims became typed objects,
one for each judge path no earlier pin covered.
"""
import hashlib
import itertools
import json

import pytest

from prisoners import (
    adversaries, analyzer, engine, permutations, registry, sequences,
    strategies,
)
from prisoners.cli import main
from prisoners.errors import PrisonersError
from prisoners.numeric import RatInterval, rat, rat_str

INVSQ = sequences.builtin_model("inverse-square")
GEO = sequences.builtin_model("geometric", ratio=rat(1, 2))
HARMONIC = sequences.builtin_model("harmonic")
# zero prices at every odd index below 13 and from 13 on
GAPPY = sequences.CustomModel({2 * k: rat(1, 2 ** k) for k in range(1, 7)},
                              sequences.ZeroTail(13), name="gappy")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (argv after "adversary", stdout lines, stdout digest)
ADVERSARY_DUMPS = [
    (["good-index", "--model", "inverse-square", "--cycles", "6"], 6,
     "2a5a7006da59df594be1e8e82e82c8ab89b2a802e0cc0e803857024ecd50d2d7"),
    (["two-cycle", "--model", "geometric", "--cycles", "6"], 6,
     "a14b2fa6d6fde7be2ffb8b197034ae0878754d4938f93a451ccf5a6c468a271e"),
    (["v1b-ceiling", "--model", "inverse-square", "--cycles", "6"], 5,
     "804a1c0ec846dd20e2f371aa0152f2de4056f730c477ace784c4ee30c69de905"),
    (["v1d-chooser", "--model", "inverse-square", "--cycles", "6"], 5,
     "804a1c0ec846dd20e2f371aa0152f2de4056f730c477ace784c4ee30c69de905"),
    (["v2b-blocks", "--model", "harmonic", "--strategy", "harmonic-prefix",
      "--cycles", "6"], 3,
     "74c3c630f1c3456d809fff06e2db4ea815ca4dea1dbb6daa2733346c92d40749"),
    (["v2a-blocks:exact_end_cap=2000", "--model", "harmonic",
      "--strategy", "constant1", "--cycles", "20"], 7,
     "0c5f527b68e7531fdb9274023961f8e839e321557b269fcb1869175afd9155b6"),
    (["v1b-ceiling:leader_cap=50", "--model", "inverse-square",
      "--cycles", "20"], 3,
     "af471e6d13720542d4073e63e0af6631016c5739e94e566fb8f3d981fe5aee1c"),
]


@pytest.mark.parametrize("argv, lines, expected", ADVERSARY_DUMPS,
                         ids=[case[0][0] for case in ADVERSARY_DUMPS])
def test_adversary_dump_bytes(capsys, argv, lines, expected):
    assert main(["adversary"] + argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == lines
    assert digest(out) == expected


def _pulled_horizon(plan, count):
    return max(c.max_member for c in plan.materialize(count))


def _good_index():
    alloc = strategies.build_baseline_geometric()
    plan = adversaries.good_index_adversary(INVSQ, alloc)
    return engine.simulate("V1a", INVSQ, alloc, plan,
                           _pulled_horizon(plan, 8))


def _two_cycle():
    alloc = strategies.build_baseline_geometric()
    plan = adversaries.two_cycle_adversary(GEO, alloc)
    return engine.simulate("V1b", GEO, alloc, plan, _pulled_horizon(plan, 40))


def _v1b_ceiling():
    alloc = strategies.build_baseline_geometric()
    plan = adversaries.v1b_ceiling_adversary(INVSQ, alloc)
    return engine.simulate("V1b", INVSQ, alloc, plan, 200)


def _v1d_chooser():
    alloc = strategies.build_baseline_geometric()
    plan = adversaries.v1d_cycle_chooser(INVSQ)
    return engine.simulate("V1d", INVSQ, alloc, plan, 200)


def _v2a_blocks():
    alloc = strategies.build_v2_strategy("scaled", c=rat(1, 2))
    plan = adversaries.v2a_block_adversary(alloc)
    return engine.simulate("V2a", HARMONIC, alloc, plan, 200)


def _v2b_blocks():
    alloc = strategies.build_v2_strategy("constant1")
    plan = adversaries.v2b_block_adversary(alloc)
    return engine.simulate("V2b", HARMONIC, alloc, plan, 200)


# (window, report.to_json() length, digest); every verdict is
# CounterexampleFound
GUARD_REPORTS = [
    (_good_index, 1009,
     "a0c5e0fe018582e784c69bb86e591968a3025f420cb6a781cd1571b44089af3c"),
    (_two_cycle, 6750,
     "c90bf0011a61c887e4b4162bc07245290b731d6b3f649bcbb951dcdebe90c06e"),
    (_v1b_ceiling, 13012,
     "875ffb9358d716fa0d779d087cc432d9664ac39bb35d7c0b27a6b187b23a61a9"),
    (_v1d_chooser, 13012,
     "4e3baff1019d900acb1b6f0af4082f183f0852cf64c11fe6941c328e7327177d"),
    (_v2a_blocks, 6502,
     "0dd77e8ec3569c67a6a581ee6c25f2438f52c652ecb6305f1a08ff0c6ec382e5"),
    (_v2b_blocks, 73193,
     "f56212aaa2ac737b24fcce0d58c1edccb957f4e0eb3c169aa75c1fe865acd744"),
]


@pytest.mark.parametrize("window, length, expected", GUARD_REPORTS,
                         ids=[case[0].__name__[1:] for case in GUARD_REPORTS])
def test_guard_report_bytes(window, length, expected):
    report = window()
    assert report.verdict == "CounterexampleFound"
    text = report.to_json()
    assert len(text) == length
    assert digest(text) == expected


def _v1a_bounded_length():
    alloc, _ = strategies.build_bounded_length_strategy(GEO, 3)
    plan = permutations.random_plan(400, 3, 5)
    return engine.simulate("V1a", GEO, alloc, plan, 400)


def _v1a_baseline():
    # most walks die part-way round their cycle
    alloc = strategies.build_baseline_geometric()
    plan = permutations.random_plan(300, 20, 7)
    return engine.simulate("V1a", GEO, alloc, plan, 300)


def _v1a_zero_prices():
    alloc = strategies.build_baseline_geometric()
    plan = permutations.random_plan(60, 8, 19)
    return engine.simulate("V1a", GAPPY, alloc, plan, 60)


def _v1b_bounded_diameter():
    alloc, _ = strategies.build_bounded_diameter_strategy(GEO, 2)
    plan = permutations.random_bounded_diameter_plan(300, 2, 3)
    return engine.simulate("V1b", GEO, alloc, plan, 300)


def _v1b_first_box_failures():
    alloc = strategies.build_baseline_geometric()
    plan = permutations.random_bounded_diameter_plan(200, 5, 9)
    return engine.simulate("V1b", INVSQ, alloc, plan, 200)


def _v1d_informed():
    plan = permutations.random_plan(300, 3, 11)
    alloc = strategies.build_cycle_informed_strategy(GEO, plan, 3)
    return engine.simulate("V1d", GEO, alloc, plan, 300)


def _v2a_harmonic_prefix():
    alloc = strategies.build_v2_strategy("harmonic-prefix")
    plan = permutations.random_plan(500, 6, 13)
    return engine.simulate("V2a", HARMONIC, alloc, plan, 500)


def _v2a_constant1():
    alloc = strategies.build_v2_strategy("constant1")
    plan = permutations.random_plan(300, 8, 17)
    return engine.simulate("V2a", HARMONIC, alloc, plan, 300)


def _v1b_bounded_diameter_relabeled():
    # label 3 sits at coordinate 40, past the threshold 36, and fails
    delta = sequences.Relabeling({3: 40, 40: 3, 7: 9, 9: 7})
    alloc, _ = strategies.build_bounded_diameter_strategy(GEO, 2, delta)
    plan = permutations.random_bounded_diameter_plan(200, 2, 5)
    return engine.simulate("V1b", GEO, alloc, plan, 200)


def _v1a_tail_sum_relabeled():
    # built as the rearranged-strategy check builds it
    model = registry._shuffled_geometric(0)
    delta = sequences.descending_rearrangement(model, 64)
    alloc, _ = strategies.build_tail_sum_strategy(model, delta)
    plan = permutations.random_plan(200, 5, 7)
    return engine.simulate("V1a", sequences.PermutedModel(model, delta),
                           alloc, plan, 200)


def _v1c_bounded_length():
    alloc, _ = strategies.build_bounded_length_strategy(GEO, 3)
    plan = permutations.random_plan(300, 3, 23)
    return engine.simulate("V1c", GEO, alloc, plan, 300)


def _v2b_shifted_harmonic():
    alloc = strategies.build_v2_strategy("shifted-harmonic", k=3)
    plan = permutations.random_plan(300, 6, 29)
    return engine.simulate("V2b", HARMONIC, alloc, plan, 300)


def _v2b_scaled():
    alloc = strategies.build_v2_strategy("scaled", c=rat(1, 2))
    plan = permutations.random_plan(300, 6, 31)
    return engine.simulate("V2b", HARMONIC, alloc, plan, 300)


# (window, verdict, report.to_json() length, digest)
WINDOW_REPORTS = [
    (_v1a_bounded_length, "PatternConfirmed", 67835,
     "ffd5c64c506d93a11fbc6ccd668cff0dc3c203437119dcd5167294e5935c0770"),
    (_v1a_baseline, "PatternConfirmed", 50640,
     "9cbf719437aed5d7aea0a7562bb910de7cd0104c37941aa8592976bb452376d8"),
    (_v1a_zero_prices, "CounterexampleFound", 4884,
     "5a3673f435f12b7ad3c9cfa10ff0cb5e5df656d9e1dc0b05ad41b029cc19eac5"),
    (_v1b_bounded_diameter, "PatternConfirmed", 35953,
     "cc2142669b86865f943f5231c1e4ef77f391f4274fc629145399f35150bb6324"),
    (_v1b_first_box_failures, "CounterexampleFound", 14294,
     "4682b896c0a043ea82934408ead35c348e22ec672b6e9110549a17efe6252331"),
    (_v1d_informed, "PatternConfirmed", 49617,
     "9abb2b83cf8c0d6f15bba6f5efb652b179c377dc76e6542cdd3286507bdeebed"),
    (_v2a_harmonic_prefix, "PatternConfirmed", 48908,
     "24981306750e607c1625bec66db43375a2ddb2c5f5cd0fef8f4362ade0f7fb1e"),
    (_v2a_constant1, "Inconclusive", 31205,
     "3e9a1e6e4bc2e4fd9cc91c1ef55cbfd3711b002c8ed962f098ca292960775247"),
    (_v1b_bounded_diameter_relabeled, "CounterexampleFound", 20428,
     "07eec8cf94eeb4341a949d508fa44969752f57dc125151b72e5d8c00a1a3bd91"),
    (_v1a_tail_sum_relabeled, "PatternConfirmed", 25078,
     "255d01ad6b4b5aaad46a9a0111cd61d8d2d3574e72399f09ec469791e6238e96"),
    (_v1c_bounded_length, "PatternConfirmed", 32878,
     "b432d980011c384822cb8ffc3edfec81e02f9a7c27a195674d89d93ba015c707"),
    (_v2b_shifted_harmonic, "CounterexampleFound", 29059,
     "0beceb3c14c98a090fa704be2403c8d8cc6a202ce6636a12ee48e8345cfbbc21"),
    (_v2b_scaled, "Inconclusive", 28530,
     "d3222857948516cd28203daf0792d2901fa72191d2c9744f0605320f6af41620"),
]


@pytest.mark.parametrize("window, verdict, length, expected", WINDOW_REPORTS,
                         ids=[case[0].__name__[1:] for case in WINDOW_REPORTS])
def test_window_report_bytes(window, verdict, length, expected):
    report = window()
    assert report.verdict == verdict
    text = report.to_json()
    assert len(text) == length
    assert digest(text) == expected


def test_v2a_certified_block_lines():
    alloc = strategies.build_v2_strategy("constant1")
    plan = adversaries.v2a_block_adversary(alloc, exact_end_cap=2000)
    lines = [blk.describe() for blk in plan.certified_blocks(5)]
    assert lines[0].startswith("block 1144..2^12: price > ")
    assert digest("\n".join(lines) + "\n") == (
        "0bb0c37a1d7d69da213184b064038956a8df2fa6e69def192c15652ef880948f")


def test_v2b_certified_block_lines():
    alloc = strategies.build_v2_strategy("harmonic-prefix")
    plan = adversaries.v2b_block_adversary(alloc)
    lines = [blk.describe() for blk in plan.certified_blocks(5)]
    assert lines[0].startswith("block 515..2^19: price > ")
    assert lines[4].startswith("block 2^173+1..2^349: price > ")
    assert digest("\n".join(lines) + "\n") == (
        "6e9e5ff64f33c800ac736be8a391d5c8f0ad2a6135eb0f81ab3af940e30418ad")


# every fixed-price family, with shifts and scales on both sides of the
# cases where the certified continuation ends or cannot start
V2_FAMILY = [
    ("constant1", {}), ("harmonic-prefix", {}),
    ("shifted-harmonic", {"k": 3}), ("shifted-harmonic", {"k": 40}),
    ("log-shift", {"K": 1}), ("log-shift", {"K": 2}),
    ("log-shift", {"K": rat(7, 2)}),
    ("scaled", {"c": 0}), ("scaled", {"c": rat(1, 3)}),
    ("scaled", {"c": rat(1, 2)}), ("scaled", {"c": rat(9, 10)}),
    ("scaled", {"c": rat(99, 100)}),
]


def v2_family_certified_text() -> str:
    lines = []
    for kind, params in V2_FAMILY:
        for name, build in (("v2a", adversaries.v2a_block_adversary),
                            ("v2b", adversaries.v2b_block_adversary)):
            alloc = strategies.build_v2_strategy(kind, **params)
            plan = build(alloc, exact_end_cap=300)
            lines.append(f"{alloc.name} {name}")
            try:
                for count in range(1, 13):
                    lines.append(plan.certified_blocks(count)[-1].describe())
            except PrisonersError as exc:
                lines.append(f"raised {type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def test_v2_family_certified_block_lines():
    assert digest(v2_family_certified_text()) == (
        "7c3a456bd370accd7e2b9abfad0a86ce3f90f24cdb07cb84625f611e90ab6d7e")


# every fixed-price family, plus a log shift whose cutoff is past the exact
# prefix floor; the amounts cross the end of the shared prefix table
V2_KINDS = V2_FAMILY + [("log-shift", {"K": rat(20)})]
V2_AMOUNT_INDICES = [*range(1, 21), 4999, 5000, 5001]


def v2_allocation_facts_text() -> str:
    lines = []
    for kind, params in V2_KINDS:
        alloc = strategies.build_v2_strategy(kind, **params)
        lines += [
            f"{alloc.name} {alloc.descriptor.to_json()}",
            "amounts " + " ".join(_value_text(alloc.amount(n))
                                  for n in V2_AMOUNT_INDICES),
            f"structure {alloc.tail_structure!r} "
            f"total {_cert_text(alloc.total_cert)}",
            f"bound {alloc.amount_upper_pow2!r}"]
    return "\n".join(lines) + "\n"


def test_v2_allocation_facts():
    # recorded while each fixed-price kind declared its own total, shape
    # and power-of-two bound
    assert digest(v2_allocation_facts_text()) == (
        "66c03f6654c10fdc8b49f8fe6fac706ed1283ccc66ff1818ae9df9bc0cfbbc19")


# ---------------------------------------------------------------------------
# analyzer scans

# (model, m, analysis_tsv digest of the exhaustive minimum)
MINIMA = [
    (INVSQ, 7,
     "b4f7cb54e052fc26496d49461804752f55a2aa20d9cbe2e440896bfaf8a2be95"),
    (INVSQ, 8,
     "62083139ad943e761677ab8e8302dbf5b6591e1d89c2948ed232b4e2e6ab51da"),
    (GEO, 7,
     "816358a90ca05d898d1559161578d588868fead7351de1cae00cbdbe925fe464"),
    (GEO, 8,
     "945cca1c8c02f928b1e58f33f86fefa358ae7ca20d6f5282a81fdd20772ab953"),
]


@pytest.mark.parametrize("model, m, expected", MINIMA,
                         ids=[f"{case[0].kind}-m{case[1]}" for case in MINIMA])
def test_brute_force_min_tsv_bytes(model, m, expected):
    value, delta = analyzer.brute_force_min(model, m)
    assert digest(analyzer.analysis_tsv([(delta, value)])) == expected


# (argv after "analyze", stdout digest)
ANALYZE_REPORTS = [
    (["--model", "inverse-square", "--mode", "dominance", "--m", "7"],
     "ed61fbe0670e86492cf2acc6540977a7da1de2623d67b90d3353fa383e5d7557"),
    (["--model", "geometric", "--mode", "dominance", "--m", "8"],
     "03044b0ef8e62324b6cf28d970535c51a7dffdb1d3dcf7fc27667f2d3e74d006"),
    (["--model", "inverse-square", "--mode", "dominance", "--m", "12",
      "--trials", "300", "--seed", "7"],
     "048af1ec70a20e30ee31b21dd7af9ea67570edbd4b10f1937a11a2ec8b20854f"),
    (["--model", "geometric", "--mode", "zero-omission", "--m", "7"],
     "956b23d7dbf99e9f36cf7840aa65f2fc22b0e5e1e7e797b9d4586254676ef5a6"),
]


@pytest.mark.parametrize("argv, expected", ANALYZE_REPORTS,
                         ids=["dominance-inverse-square-m7",
                              "dominance-geometric-m8",
                              "dominance-sampled-m12",
                              "zero-omission-geometric-m7"])
def test_analyze_report_bytes(capsys, argv, expected):
    assert main(["analyze"] + argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert digest(out) == expected


def test_analyze_zero_omission_embedding_bytes(tmp_path, capsys):
    model = tmp_path / "alternating.txt"
    model.write_text("".join(f"{2 * k} 1/{2 ** k}\n" for k in range(1, 8))
                     + "tail zero from 15\n")
    assert main(["analyze", "--model", f"@{model}",
                 "--mode", "zero-omission", "--m", "7"]) == 0
    assert digest(capsys.readouterr().out) == (
        "66cea42dc203a53e582359dc6be9275263632e7f91136726bc5fe8ba3eeeef4c")


# (argv after "verify", stdout digest)
VERIFY_LINES = [
    (["identity-minimality"],
     "2972c8c695dd2a5bff0239fe7404d13f93c50964de637a402c1f2e382c7ecf8a"),
    (["identity-minimality", "m=8"],
     "a508d86d672822374e5b69637c37f383b6d34989b65d2de46138338b3ea5c9db"),
    (["descending-reduction"],
     "e44e463ed92a68699224b0ef8f886fdd1f9e579803bb59df687dd97a9d780593"),
    (["zero-omission"],
     "5fd8fa2311fdd93b4dcc0100e33d7a7a15411eca668ab398a0de8eba16ba320e"),
    (["zero-omission", "m=6"],
     "5972dc437813caff89c3be57c95a167d9952b987dd7346bc5f1ab6ecc114fd47"),
]


@pytest.mark.parametrize("argv, expected", VERIFY_LINES,
                         ids=[" ".join(case[0]) for case in VERIFY_LINES])
def test_verify_line_bytes(capsys, argv, expected):
    assert main(["verify"] + argv) == 0
    assert digest(capsys.readouterr().out) == expected


# (model, m, number of failures, failure-dict JSON digest)
PERTURBED_OMISSIONS = [
    (GAPPY, 4, 33,
     "30985a0c104bd1e4492e480adfb090010c940524a218988e72d69f8ce492b198"),
    (GEO, 4, 25,
     "19f880eb50f305caa1aaae4e7e56629b77925a4e3302a718ede42d7e958884cf"),
]


@pytest.mark.parametrize("model, m, count, expected", PERTURBED_OMISSIONS,
                         ids=["even-embedding", "zero-free"])
def test_perturbed_zero_omission_failure_bytes(lifted_compressed_price, model,
                                               m, count, expected):
    trace = analyzer.check_zero_omission(model, m)
    assert not trace.passed
    assert len(trace.failures) == count
    assert digest(json.dumps(trace.failures)) == expected


# ---------------------------------------------------------------------------
# tail rules, certified brackets and the builders that read them
#
# The digest below was recorded before the tail rules took over their own
# sums and before brackets took + and * by rationals, so every value,
# certificate and error those moves touch is pinned.

def _value_text(value) -> str:
    if isinstance(value, RatInterval):
        text = f"[{rat_str(value.lo)}, {rat_str(value.hi)}]"
        if value.refinable:
            finer = value.refine()
            text += f" -> [{rat_str(finer.lo)}, {rat_str(finer.hi)}]"
        return text
    return f"{type(value).__name__} {rat_str(value)}"


def _cert_text(cert) -> str:
    if cert.kind == "exact":
        return f"exact {_value_text(cert.value)}"
    if cert.kind == "bracketed":
        return "bracketed " + " ".join(
            _value_text(cert.interval(w)) for w in (rat(1, 64),
                                                    rat(1, 10 ** 6)))
    return cert.kind


def _attempt(fn) -> str:
    try:
        return str(fn())
    except PrisonersError as exc:
        return f"{type(exc).__name__}: {exc}"


# (name, table, rule) for custom models; a zero inside each table with
# entries, and one empty table per rule
TAIL_TABLES = [
    ("zero-empty", {}, sequences.ZeroTail(3)),
    ("zero-table", {1: rat(1, 2), 2: rat(0), 3: rat(1, 8), 5: rat(1, 16)},
     sequences.ZeroTail(7)),
    ("geometric-empty", {}, sequences.GeometricTail(rat(1, 2), 1)),
    ("geometric-table", {1: rat(1, 3), 2: rat(0), 3: rat(1, 5)},
     sequences.GeometricTail(rat(2, 3), 5)),
    ("inverse2-empty", {}, sequences.InversePowerTail(2, 1)),
    ("inverse2-table", {2: rat(1, 5), 3: rat(0)},
     sequences.InversePowerTail(2, 4)),
    ("inverse3-table", {1: rat(1, 2), 2: rat(0), 4: rat(1, 7)},
     sequences.InversePowerTail(3, 6)),
]


def _tail_models():
    models = [sequences.CustomModel(table, rule, name=name)
              for name, table, rule in TAIL_TABLES]
    return models + [GEO, INVSQ, sequences.ScaledModel(GEO, rat(3, 2)),
                     sequences.ScaledModel(INVSQ, rat(1, 3))]


def _model_lines(model):
    yield f"model {model.name} kind={model.kind}"
    yield "terms " + " ".join(rat_str(model.term(n)) for n in range(1, 11))
    for n in range(1, 7):
        yield f"tail({n}) " + _attempt(lambda: _value_text(model.tail(n)))
        yield f"second_tail({n}) " + _attempt(
            lambda: _value_text(model.second_tail(n)))
    for a, b in ((1, 1), (1, 6), (2, 9), (4, 4), (3, 12)):
        yield f"range_sum({a},{b}) " + _attempt(
            lambda: _value_text(model.range_sum(a, b)))
    yield "total " + _cert_text(model.total_cert)
    yield "weighted " + model.weighted_cert.value
    yield "positive " + " ".join(
        map(str, itertools.islice(model.positive_indices(), 6)))
    yield f"nonincreasing_from {model.nonincreasing_from}"
    yield "dump_model " + _attempt(lambda: sequences.dump_model(model))


def _allocation_lines(name, table, rule):
    yield f"allocation {name}"
    try:
        alloc = sequences.TableAllocation(table, rule, name=name)
    except PrisonersError as exc:
        yield f"{type(exc).__name__}: {exc}"
        return
    yield "amounts " + " ".join(rat_str(alloc.amount(n))
                                for n in range(1, 11))
    yield "total " + _cert_text(alloc.total_cert)
    yield f"structure {alloc.tail_structure!r}"
    yield "dump_allocation " + sequences.dump_allocation(alloc)


def _plan_lines(alloc, m) -> list:
    return [f"m {m}", f"descriptor {alloc.descriptor.to_json()}",
            "amounts " + " ".join(rat_str(alloc.amount(n))
                                  for n in range(1, 21)),
            f"structure {alloc.tail_structure!r}",
            "total " + _cert_text(alloc.total_cert)]


INFORMED_PLANS = [
    (3, permutations.CyclePlan(
        [permutations.Cycle(c) for c in ((1, 3), (2, 5, 4), (6, 7),
                                         (9, 12, 10), (15,), (17, 20))],
        name="explicit")),
    (100, permutations.CyclePlan([permutations.Cycle.of_range(30, 129)],
                                 name="ranged")),
]


def _builder_blocks(model):
    """(label, lines) for each builder run on model."""
    swap = sequences.Relabeling.swap(2, 5)
    builders = [
        ("tail-sum", lambda: strategies.build_tail_sum_strategy(model)),
        ("tail-sum swap(2,5)",
         lambda: strategies.build_tail_sum_strategy(model, swap)),
        ("bounded-length k=2",
         lambda: strategies.build_bounded_length_strategy(model, 2)),
        ("bounded-diameter d=1",
         lambda: strategies.build_bounded_diameter_strategy(model, 1)),
        ("bounded-diameter d=2 swap(2,5)",
         lambda: strategies.build_bounded_diameter_strategy(model, 2,
                                                            swap)),
    ] + [(f"cycle-informed k={k} {plan.name}",
          lambda k=k, plan=plan: (strategies.build_cycle_informed_strategy(
              model, plan, k), None))
         for k, plan in INFORMED_PLANS]
    for label, build in builders:
        lines = [f"builder {label}"]
        try:
            alloc, m = build()
        except PrisonersError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        else:
            lines.extend(_plan_lines(
                alloc, alloc.descriptor.m if m is None else m))
        yield f"builder {label}", lines


def _rearranged_lines(model):
    swap = sequences.Relabeling.swap(2, 5)
    yield f"rearranged {model.name}"
    assert strategies._rearranged_model(
        model, sequences.Relabeling.identity()) is model
    try:
        work = strategies._rearranged_model(model, swap)
    except PrisonersError as exc:
        yield f"{type(exc).__name__}: {exc}"
        return
    yield f"name {work.name} kind={work.kind}"
    yield "terms " + " ".join(rat_str(work.term(n)) for n in range(1, 11))
    yield "dump_model " + sequences.dump_model(work)


# (model name, block) whose lines moved on purpose when the built-in
# geometric and inverse-square models became table models: inverse-square
# now rearranges like any 1/n**2 table, and a scaled geometric model now
# has exact tails.  They are pinned apart so the rest stays fixed.
MOVED_BLOCKS = {
    ("inverse-square", "rearranged"),
    ("inverse-square", "builder tail-sum swap(2,5)"),
    ("inverse-square", "builder bounded-diameter d=2 swap(2,5)"),
    ("geometric:1/2*3/2", "builder tail-sum"),
    ("geometric:1/2*3/2", "builder bounded-diameter d=1"),
}


DUMP_PREFIXES = ("dump_model ", "dump_allocation ")


def tail_rules_canonical_texts() -> tuple:
    """The canonical text without MOVED_BLOCKS or table dumps, those blocks
    alone, and every dump_model and dump_allocation line.

    The dumps are pinned apart so a change of the text format moves only
    their digest.
    """
    kept, moved, dumps = [], [], []

    def add(lines, model=None, block=None):
        for line in lines:
            if line.startswith(DUMP_PREFIXES):
                dumps.append(line)
            elif model is not None and (model.name, block) in MOVED_BLOCKS:
                moved.append(line)
            else:
                kept.append(line)

    for model in _tail_models():
        add(_model_lines(model))
    for name, table, rule in TAIL_TABLES:
        add(_allocation_lines(name, table, rule))
    for model in _tail_models() + [sequences.GeometricModel(rat(2, 3))]:
        add(_rearranged_lines(model), model, "rearranged")
    for model in _tail_models():
        for block, lines in _builder_blocks(model):
            add(lines, model, block)
    return tuple("\n".join(part) + "\n" for part in (kept, moved, dumps))


def test_tail_rule_and_bracket_values_bytes():
    kept, moved, _dumps = tail_rules_canonical_texts()
    assert digest(kept) == (
        "382ef5f1b304ec6320e9743efe7c9daf098a4eff4a0a31f38019108feedad172")
    assert digest(moved) == (
        "3c97ea1553c010f94dd2cecec3ac2b56d1cb7219dfb4ccb0273d5586e1e2a668")


def test_table_dump_bytes():
    *_rest, dumps = tail_rules_canonical_texts()
    assert digest(dumps) == (
        "2be5304ac23038305401cac95346106fb8fe29719c86049ec9dfef701e437c38")


# Witness logs, recorded before the guard streams yielded (cycle, witness)
# pairs through one emitter: the repr of the pulled cycles, of every log
# entry (key order included) and of covered_bound, for each guard kind and
# its stopping and raising paths.

THIRDS = sequences.TableAllocation(
    {1: rat(1, 3), 2: rat(1, 3), 3: rat(1, 3)}, sequences.ZeroTail(4),
    name="thirds")
# zero prices at 1 and 3 ahead of an infinite positive tail
ZERO_PRICES = sequences.CustomModel(
    {2: rat(1, 2)}, sequences.GeometricTail(rat(1, 2), 4), name="zero-prices")


def _baseline():
    return strategies.build_baseline_geometric()


WITNESS_SCENARIOS = [
    ("good-index baseline", 8,
     lambda: adversaries.good_index_adversary(INVSQ, _baseline())),
    ("good-index thirds", 8,
     lambda: adversaries.good_index_adversary(INVSQ, THIRDS)),
    ("v1b-ceiling", 6,
     lambda: adversaries.v1b_ceiling_adversary(INVSQ, _baseline())),
    ("v1b-ceiling leader_cap=50", 20,
     lambda: adversaries.v1b_ceiling_adversary(INVSQ, _baseline(),
                                               leader_cap=50)),
    ("v1b-ceiling zero-prices", 8,
     lambda: adversaries.v1b_ceiling_adversary(ZERO_PRICES, _baseline())),
    ("two-cycle geometric", 8,
     lambda: adversaries.two_cycle_adversary(GEO, _baseline())),
    ("two-cycle zero-prices", 8,
     lambda: adversaries.two_cycle_adversary(ZERO_PRICES, _baseline())),
    ("v1d-chooser", 6, lambda: adversaries.v1d_cycle_chooser(INVSQ)),
    ("v1d-chooser leader_cap=50", 20,
     lambda: adversaries.v1d_cycle_chooser(INVSQ, leader_cap=50)),
    ("v1d-chooser geometric", 3, lambda: adversaries.v1d_cycle_chooser(GEO)),
    ("v2b-blocks constant1", 6,
     lambda: adversaries.v2b_block_adversary(
         strategies.build_v2_strategy("constant1"))),
    ("v2b-blocks harmonic-prefix", 6,
     lambda: adversaries.v2b_block_adversary(
         strategies.build_v2_strategy("harmonic-prefix"))),
    ("v2a-blocks scaled 1/2", 6,
     lambda: adversaries.v2a_block_adversary(
         strategies.build_v2_strategy("scaled", c=rat(1, 2)))),
    ("v2a-blocks constant1 exact_end_cap=2000", 20,
     lambda: adversaries.v2a_block_adversary(
         strategies.build_v2_strategy("constant1"), exact_end_cap=2000)),
    ("v1b-ceiling vanishing prices", 20,
     lambda: adversaries.v1b_ceiling_adversary(GAPPY, _baseline())),
]


def witness_log_canonical_text() -> str:
    lines = []
    for label, count, build in WITNESS_SCENARIOS:
        plan = build()
        lines.append(f"scenario {label} pull {count}")
        try:
            plan.materialize(count)
        except PrisonersError as exc:
            lines.append(f"raised {type(exc).__name__}: {exc}")
        lines.append(f"cycles {plan.cycles!r}")
        lines.append(f"log {plan.witness_log!r}")
        lines.append(f"covered_bound {plan.covered_bound!r}")
        if label.endswith("exact_end_cap=2000"):
            lines.append("certified " + " | ".join(
                blk.describe() for blk in plan.certified_blocks(5)))
    return "\n".join(lines) + "\n"


def test_guard_witness_log_bytes():
    assert digest(witness_log_canonical_text()) == (
        "2c16daa03b2ed57fd61e50d987f055f53121e31313e83099c6c43a06f0f5e5b4")
