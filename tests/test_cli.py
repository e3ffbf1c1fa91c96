"""End-to-end command runs: exit codes, file outputs, determinism."""
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prisoners import registry
from prisoners.cli import (
    _ADVERSARIES, HORIZON_CAP, ScenarioConfig, _adversary_plan,
    _capped, _split_spec, _value, main, parse_model, parse_strategy,
)
from prisoners.engine import VARIANTS
from prisoners.errors import DomainError
from prisoners.permutations import (
    OPENED_BOX_CAP, _check_opened_boxes, parse_plan,
)
from prisoners.registry import THEOREM_KEYS

SIM = ["simulate", "--variant", "V1a", "--model", "geometric",
       "--strategy", "baseline", "--plan", "random", "--horizon", "40"]


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# simulate

def test_confirmed_scenario_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(SIM + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "PatternConfirmed"
    assert "verdict=PatternConfirmed" in capsys.readouterr().out


def test_counterexample_exits_one(tmp_path):
    out = tmp_path / "report.json"
    code = run(["simulate", "--variant", "V1b", "--model", "geometric",
                "--strategy", "baseline", "--plan", "two-cycle",
                "--horizon", "210", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "CounterexampleFound"
    assert payload["witnesses"]


@pytest.mark.parametrize("variant", ["V2a", "V2b"])
@pytest.mark.parametrize("strategy", ["constant1", "scaled:c=1/2"])
def test_runs_that_claim_nothing_exit_zero(capsys, variant, strategy):
    code = run(["simulate", "--variant", variant, "--model", "harmonic",
                "--strategy", strategy, "--plan", "random",
                "--horizon", "30", "--seed", "1"])
    assert json.loads(capsys.readouterr().out)["verdict"] == "Inconclusive"
    assert code == 0


def test_a_claim_left_unconfirmed_exits_one(capsys):
    # every cycle inside [1, 2] lies below the tail-sum cutoff 3, so the
    # least-member claim names nobody and the window decides nothing
    code = run(["simulate", "--variant", "V1a", "--model", "geometric",
                "--strategy", "tail-sum", "--plan", "random",
                "--horizon", "2"])
    assert json.loads(capsys.readouterr().out)["verdict"] == "Inconclusive"
    assert code == 1


def test_report_goes_to_stdout_without_out(capsys):
    assert run(SIM) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"variant", "horizon", "outcomes", "verdict",
                            "witnesses"}


def test_malformed_plan_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "plan.txt"
    bad.write_text("1 2\nrange three four\n")
    code = run(["simulate", "--variant", "V1a", "--model", "geometric",
                "--strategy", "baseline", "--plan", f"@{bad}",
                "--horizon", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_pieces_exit_two(capsys):
    assert run(["simulate", "--variant", "V9", "--model", "geometric",
                "--strategy", "baseline", "--plan", "random",
                "--horizon", "10"]) == 2
    assert run(["simulate", "--variant", "V1a", "--model", "quartic",
                "--strategy", "baseline", "--plan", "random",
                "--horizon", "10"]) == 2
    assert run(["simulate", "--variant", "V1a", "--model", "geometric",
                "--strategy", "sideways", "--plan", "random",
                "--horizon", "10"]) == 2
    assert run(["simulate", "--variant", "V1a", "--model", "geometric",
                "--strategy", "baseline", "--plan", "sideways",
                "--horizon", "10"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("model, declared", [
    ("inverse-square", "a total certified above 1"),
    ("geometric", "2/1"),
])
def test_v1_refuses_a_total_over_the_cap_exact_or_bracketed(capsys, model,
                                                            declared):
    # bounded-length k=2 at total=5 certifies 2 * tail(1): 2 on geometric
    # prices, and a bracket inside [3.28, 3.30] on inverse-square ones
    code = run(["simulate", "--variant", "V1a", "--model", model,
                "--strategy", "bounded-length:k=2,total=5",
                "--plan", "random:max_len=2", "--horizon", "50"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "caps the shared amount at 1" in captured.err
    assert f"declares {declared}" in captured.err


def test_missing_flags_exit_two(capsys):
    assert run(["simulate", "--variant", "V1a"]) == 2
    assert "--horizon" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_non_positive_horizon_is_a_usage_error(tmp_path, capsys, horizon):
    plan = tmp_path / "plan.txt"
    plan.write_text("1 2\n3\n")
    code = run(["simulate", "--variant", "V1a", "--model", "geometric",
                "--strategy", "baseline", "--plan", f"@{plan}",
                "--horizon", horizon])
    assert code == 2
    assert "the horizon must be a positive integer" in \
        capsys.readouterr().err


def test_identical_seeds_write_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(SIM + ["--seed", "7", "--out", str(a)])
    run(SIM + ["--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    run(SIM + ["--seed", "8", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_entry_order_reaches_the_open_box_variant(tmp_path):
    plan = tmp_path / "pair.txt"
    plan.write_text("2 3\n")
    table = tmp_path / "alloc.txt"
    table.write_text("2 0\n3 3/8\ntail zero from 4\n")
    out = tmp_path / "r.json"
    code = run(["simulate", "--variant", "V1c", "--model", "geometric",
                "--strategy", f"@{table}", "--plan", f"@{plan}",
                "--horizon", "3", "--entry-order", "3,2,1",
                "--out", str(out)])
    payload = json.loads(out.read_text())
    spent = {o["prisoner"]: o["spent"] for o in payload["outcomes"]}
    assert spent[2] == "0/1" and spent[3] == "3/8"
    assert code == 0  # nothing claimed, so nothing contradicted


def test_cycle_informed_strategy_builds_from_the_plan(tmp_path):
    out = tmp_path / "r.json"
    code = run(["simulate", "--variant", "V1d", "--model", "geometric",
                "--strategy", "cycle-informed:k=3",
                "--plan", "random:max_len=3", "--horizon", "40",
                "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "PatternConfirmed"


def test_v2_scenario_through_the_cli(tmp_path):
    out = tmp_path / "r.json"
    code = run(["simulate", "--variant", "V2a", "--model", "harmonic",
                "--strategy", "shifted-harmonic:k=5", "--plan", "random",
                "--horizon", "60", "--out", str(out)])
    assert code == 0


# ---------------------------------------------------------------------------
# configs

def test_config_round_trips_losslessly(tmp_path):
    config = ScenarioConfig("V1c", "geometric", "baseline", "random", 25,
                            seed=3, entry_order=[2, 1, 3], out="x.json")
    path = tmp_path / "config.json"
    config.save(path)
    assert ScenarioConfig.load(path) == config
    assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_saved_config_reproduces_the_run(tmp_path, capsys):
    direct = tmp_path / "direct.json"
    saved = tmp_path / "config.json"
    run(SIM + ["--seed", "5", "--out", str(direct),
               "--save-config", str(saved)])
    replay = tmp_path / "replay.json"
    config = ScenarioConfig.load(saved)
    config.out = str(replay)
    config.save(saved)
    assert run(["simulate", "--config", str(saved)]) == 0
    assert direct.read_bytes() == replay.read_bytes()
    capsys.readouterr()


def test_broken_config_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"variant": "V1a", "surprise": 1}')
    assert run(["simulate", "--config", str(path)]) == 2
    assert "bad config" in capsys.readouterr().err


def test_config_with_a_non_integer_entry_order_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    ScenarioConfig("V1c", "geometric", "baseline", "random", 3,
                   entry_order=[1, 2, "x"]).save(path)
    assert run(["simulate", "--config", str(path)]) == 2
    assert "entry order" in capsys.readouterr().err


def test_config_with_a_fractional_entry_order_exits_two(tmp_path, capsys):
    # 1.5 is not an index, so it is rejected rather than read as 1
    path = tmp_path / "config.json"
    ScenarioConfig("V1c", "geometric", "baseline", "random", 10,
                   entry_order=[1.5, *range(2, 11)]).save(path)
    assert run(["simulate", "--config", str(path)]) == 2
    assert "entry order" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--plan", "--model", "--strategy",
                                  "--config"])
def test_files_that_are_not_utf8_exit_two(tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1 2")
    flags = {"--variant": "V1a", "--model": "geometric",
             "--strategy": "baseline", "--plan": "random", "--horizon": "10"}
    if flag == "--config":
        flags = {"--config": str(bad)}
    else:
        flags[flag] = f"@{bad}"
    assert run(["simulate", *(x for kv in flags.items() for x in kv)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert "not UTF-8" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_single_key(capsys):
    assert run(["verify", "identity-minimality", "m=6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS identity-minimality") and "720" in out


def test_verify_with_aliased_parameters(capsys):
    assert run(["verify", "v2b-no-strategy", "alloc=constant1",
                "cycles=10"]) == 0
    assert "PASS v2b-no-strategy" in capsys.readouterr().out


HUGE = "100000000000000000000"


@pytest.mark.parametrize("argv, message", [
    (SIM[:-1] + [HUGE], "the horizon is capped at 1000000, not " + HUGE),
    (SIM[:8] + ["random:max_len=10000", "--horizon", "1000000"],
     "1000000 prisoners in cycles of up to 10000 members could open "
     "10000000000 boxes, past the cap of 10000000"),
    (SIM[:8] + [f"banded:d={HUGE}", "--horizon", "100000"],
     "in cycles of up to 100000 members could open 10000000000 boxes"),
    (["verify", "tail-sum-strategy", f"horizon={HUGE}"], "at most 100000"),
    (["verify", "bounded-length-v1a", f"horizon={HUGE}00"],
     "at most 100000"),
    (["verify", "v2b-no-strategy", f"horizon={HUGE}"], "at most 100000"),
    (["verify", "tail-sum-strategy", f"plans={HUGE}"], "at most 100000"),
    (["verify", "tail-sum-strategy", "horizon=100000", "max_len=100000"],
     "could open 10000000000 boxes"),
], ids=["horizon", "max_len", "banded-d", "tail-sum-horizon",
        "bounded-length-horizon", "v2b-horizon", "tail-sum-plans",
        "tail-sum-boxes"])
def test_oversized_counts_are_refused_before_any_work(capsys, argv, message):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert "Traceback" not in err and "internal error" not in err


def test_a_config_file_horizon_is_capped_too(tmp_path, capsys):
    config = tmp_path / "huge.json"
    ScenarioConfig("V1a", "geometric", "baseline", "random",
                   int(HUGE)).save(config)
    assert run(["simulate", "--config", str(config)]) == 2
    assert "the horizon is capped" in capsys.readouterr().err


def test_the_caps_themselves_are_allowed():
    # checked without running anything at the cap
    assert _capped("the horizon", HORIZON_CAP, HORIZON_CAP) == HORIZON_CAP
    # the horizon cap in cycles of the default 6 members opens 6 * 10^6
    _check_opened_boxes(HORIZON_CAP, 6)
    _check_opened_boxes(OPENED_BOX_CAP // 10, 10)
    with pytest.raises(DomainError, match="could open 10000010 boxes"):
        _check_opened_boxes(OPENED_BOX_CAP // 10 + 1, 10)
    cap = registry._COUNT_CAP
    assert registry._merge({"horizon": 48}, {"horizon": cap}) == {
        "horizon": cap}


def test_verify_unknown_key_exits_two(capsys):
    assert run(["verify", "perpetual-motion"]) == 2
    capsys.readouterr()


# SHA-256 of the `prisoners verify all` stdout, recorded from the code
# before the registry left the engine module
VERIFY_ALL_DIGEST = (
    "f7eb2edb55b6fa92443c257a07f129067a3e62549fdddef407725b98f99e0663")


def test_verify_all_runs_the_whole_registry(verify_all_run):
    # one run of all 18 checks, shared with the engine tests: each passes
    # with checks > 0, and the digest pins every line's details and count
    assert verify_all_run.code == 0
    out = verify_all_run.out
    lines = out.splitlines()
    assert len(lines) == len(THEOREM_KEYS) == 18
    assert [line.split(":", 1)[0] for line in lines] == [
        f"PASS {key}" for key in THEOREM_KEYS]
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST


def test_verify_rejects_params_with_all(capsys):
    assert run(["verify", "all", "m=6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["tail-sum-strategy", "plans=1/2"],
    ["divergence-witness", "targets=5"],
    ["scaled-gap", "cases=1"],
    ["tail-sum-strategy", "bogus=3"],
    ["tail-sum-strategy", "plans=-5"],
    ["bounded-length-v1a", "plans=0"],
    ["two-cycle-v1b", "pairs=0"],
    ["v2b-no-strategy", "alloc=scaled:1/0"],
], ids=["rational-for-integer", "integer-for-tuple", "integer-for-cases",
        "unknown-key", "negative-plans", "zero-plans", "zero-pairs",
        "zero-denominator-allocation"])
def test_bad_verify_params_are_usage_errors_without_traceback(argv):
    # a parameter the check cannot read must not crash (exit 1 means a
    # failed check) or be ignored (exit 0 means the check ran as asked),
    # and a count below 1 must not pass a check that checked nothing
    proc = subprocess.run(
        [sys.executable, "-m", "prisoners.cli", "verify"] + argv,
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# adversary

def test_adversary_dump_carries_inequalities(tmp_path):
    out = tmp_path / "plan.txt"
    code = run(["adversary", "good-index", "--model", "inverse-square",
                "--strategy", "baseline", "--cycles", "4",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("# 5/4 > 1/1")
    assert all("#" in line for line in lines)


def test_adversary_dump_parses_back_as_a_plan(tmp_path, capsys):
    out = tmp_path / "plan.txt"
    run(["adversary", "two-cycle", "--model", "geometric",
         "--strategy", "baseline", "--cycles", "6", "--out", str(out)])
    code = run(["simulate", "--variant", "V1b", "--model", "geometric",
                "--strategy", "baseline", "--plan", f"@{out}",
                "--horizon", "8"])
    assert code in (0, 1)  # parses and runs; comments are ignored
    capsys.readouterr()


def test_adversary_dump_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        run(["adversary", "v1b-ceiling", "--model", "inverse-square",
             "--strategy", "baseline", "--cycles", "3",
             "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind, model, strategy, lines", [
    ("v2a-blocks:exact_end_cap=2000", "harmonic", "constant1", 7),
    ("v1b-ceiling:leader_cap=50", "inverse-square", "baseline", 3),
])
def test_adversary_dump_skips_stream_notes(capsys, kind, model, strategy,
                                           lines):
    # both streams end in a note entry, which belongs to no cycle
    code = run(["adversary", kind, "--model", model, "--strategy",
                strategy, "--cycles", "20"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == lines


# (kind spec, model, strategy, cycles): every adversary kind once
ROUND_TRIPS = [
    ("good-index", "inverse-square", "baseline", 6),
    ("v1b-ceiling", "inverse-square", "baseline", 6),
    ("two-cycle", "geometric", "baseline", 6),
    ("v1d-chooser", "inverse-square", "baseline", 6),
    ("v2a-blocks:exact_end_cap=2000", "harmonic", "constant1", 20),
    ("v2b-blocks", "harmonic", "harmonic-prefix", 6),
]


def test_round_trips_cover_every_adversary_kind():
    assert [_split_spec(case[0])[0] for case in ROUND_TRIPS] == \
        list(_ADVERSARIES)


@pytest.mark.parametrize("kind, model, strategy, count", ROUND_TRIPS,
                         ids=[case[0] for case in ROUND_TRIPS])
def test_adversary_output_parses_back_to_the_materialized_cycles(
        tmp_path, capsys, kind, model, strategy, count):
    out = tmp_path / "plan.txt"
    assert run(["adversary", kind, "--model", model, "--strategy",
                strategy, "--cycles", str(count), "--out", str(out)]) == 0
    capsys.readouterr()
    name, raw = _split_spec(kind)
    prices = parse_model(model)
    plan = _adversary_plan(name, prices, parse_strategy(strategy, prices),
                           {k: _value(v) for k, v in raw.items()})
    expected = plan.materialize(count)
    back = parse_plan(out.read_text()).cycles
    assert [(c.members, c.start, c.end) for c in back] == \
        [(c.members, c.start, c.end) for c in expected]


def test_unknown_adversary_exits_two(capsys):
    assert run(["adversary", "sideways"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["good-index", "--model", "inverse-square", "--cycles", "-1"],
    ["v2b-blocks", "--cycles", "0"],
    ["v1b-ceiling:leader_cap=0", "--model", "inverse-square"],
    ["v1b-ceiling:leader_cap=-1", "--model", "inverse-square"],
    ["v1d-chooser:leader_cap=0", "--model", "inverse-square"],
], ids=["negative-cycles", "zero-cycles", "zero-leader-cap",
        "negative-leader-cap", "zero-chooser-leader-cap"])
def test_adversary_cycle_counts_below_one_exit_two(argv):
    # an empty dump with exit 0 would read as a guard that emitted nothing,
    # and so would a stream capped before its first leader
    proc = subprocess.run(
        [sys.executable, "-m", "prisoners.cli", "adversary"] + argv,
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_good_index_refuses_an_uncertified_total_at_once(capsys):
    # no amount of constant1 falls below a price tail past position 1, so
    # unrefused, the stream would test a million positions before failing
    start = time.perf_counter()
    code = run(["adversary", "good-index", "--model", "inverse-square",
                "--strategy", "constant1", "--cycles", "3"])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert code == 2
    assert "certified finite total" in err and "Traceback" not in err
    assert out == ""


# ---------------------------------------------------------------------------
# analyze

def test_analyze_min_emits_one_tsv_row(capsys):
    assert run(["analyze", "--model", "inverse-square", "--mode", "min",
                "--m", "4"]) == 0
    assert capsys.readouterr().out == "()\t25/12\n"


def test_analyze_min_past_the_factorial_cap_exits_two(capsys):
    assert run(["analyze", "--model", "inverse-square", "--mode", "min",
                "--m", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: exhaustive scans are capped at 9 (asked "
                            "for 10, which means 10! permutations)\n")


def test_analyze_existence_verdicts(capsys):
    run(["analyze", "--model", "geometric", "--mode", "existence"])
    assert capsys.readouterr().out.startswith("Exists\t")
    run(["analyze", "--model", "harmonic", "--mode", "existence"])
    assert capsys.readouterr().out.startswith("NotExists\t")


def test_analyze_dominance_reports_the_descending_minimum(capsys):
    assert run(["analyze", "--model", "inverse-square",
                "--mode", "dominance", "--m", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pass\tchecked=120\tminimum=137/60"
    assert out.splitlines()[1] == "()\t137/60"


def test_analyze_zero_omission_on_a_model_file(tmp_path, capsys):
    model = tmp_path / "alternating.txt"
    model.write_text("".join(f"{2 * k} 1/{2 ** k}\n" for k in range(1, 7))
                     + "tail zero from 13\n")
    assert run(["analyze", "--model", f"@{model}",
                "--mode", "zero-omission", "--m", "4"]) == 0
    assert capsys.readouterr().out == \
        "pass\tmode=even-embedding\tpermutations=24\n"


def test_capability_errors_come_back_verbatim(tmp_path, capsys):
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("2 1/2\n4 1/4\ntail zero from 5\n")
    assert run(["analyze", "--model", f"@{sparse}",
                "--mode", "zero-omission", "--m", "3"]) == 2
    assert "positive" in capsys.readouterr().err


def test_analyze_zero_omission_stops_at_the_cap(capsys):
    assert run(["analyze", "--model", "geometric",
                "--mode", "zero-omission", "--m", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("exhaustive scans are capped at 9 (asked for 10, which means "
            "10! permutations)") in captured.err


def test_analyze_tsv_written_to_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "min.tsv"
    run(["analyze", "--model", "geometric", "--mode", "min", "--m", "3",
         "--out", str(out)])
    capsys.readouterr()
    run(["analyze", "--model", "geometric", "--mode", "min", "--m", "3"])
    assert out.read_text() == capsys.readouterr().out


# ---------------------------------------------------------------------------
# installed entry point

def test_console_script_parity():
    proc = subprocess.run(
        [sys.executable, "-m", "prisoners.cli", "analyze", "--model",
         "inverse-square", "--mode", "min", "--m", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "()\t25/12\n"


def test_an_unexpected_exception_is_an_internal_error_exiting_two(
        monkeypatch, capsys):
    # exit 1 means "counterexample found", so even a bug must not exit 1
    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr("prisoners.cli.cmd_analyze", broken)
    assert run(["analyze", "--model", "inverse-square", "--mode", "min"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("internal error:\nTraceback")
    assert err.endswith("RuntimeError: broken command\n")
    assert out == ""


def test_argparse_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", "geometric", "--mode", "sideways"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--variant", "V1a", "--model", "geometric:ratio=1/0",
     "--strategy", "baseline", "--plan", "random"],
    ["--variant", "V1a", "--model", "geometric",
     "--strategy", "tail-sum:bogus=1", "--plan", "random"],
    ["--variant", "V1a", "--model", "geometric", "--strategy", "baseline",
     "--plan", "random:max_len=abc"],
    ["--variant", "V1c", "--model", "geometric", "--strategy", "baseline",
     "--plan", "random", "--entry-order", "1,2,x"],
    ["--variant", "V1b", "--model", "inverse-square", "--strategy",
     "baseline", "--plan", "v1b-ceiling:leader_cap=0"],
    ["--variant", "V1d", "--model", "inverse-square", "--strategy",
     "baseline", "--plan", "v1d-chooser:leader_cap=0"],
], ids=["zero-denominator", "unknown-keyword", "non-number", "entry-order",
        "zero-leader-cap", "zero-chooser-leader-cap"])
def test_bad_specs_are_usage_errors_without_traceback(flags):
    # scripts read exit 1 as "counterexample found", so a bad spec must
    # never escape as a traceback
    argv = ["simulate", "--horizon", "10"] + flags
    proc = subprocess.run([sys.executable, "-m", "prisoners.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_spends_past_the_int_digit_limit_keep_the_exit_code_contract(
        tmp_path):
    # at ratio 1/1024 and horizon 1500 a spend's denominator has about
    # 4500 decimal digits, past the interpreter's default limit of 4300
    out = tmp_path / "r.json"
    argv = ["simulate", "--variant", "V1a", "--model",
            "geometric:ratio=1/1024", "--strategy", "bounded-length:k=3",
            "--plan", "random:max_len=3", "--horizon", "1500",
            "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "prisoners.cli"] + argv,
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    payload = json.loads(out.read_text())
    assert proc.returncode == (0 if payload["verdict"] == "PatternConfirmed"
                               else 1)
    assert f"verdict={payload['verdict']}" in proc.stdout
    assert max(len(part) for o in payload["outcomes"]
               for part in o["spent"].split("/")) > 4300


# ---------------------------------------------------------------------------
# plan files: every cycle in one membership index

ODD = " ".join(str(n) for n in range(1, 10_000, 2)) + "\n"
EVEN = " ".join(str(n) for n in range(2, 10_001, 2)) + "\n"


def simulate_plan_file(tmp_path, text, horizon, model="geometric"):
    plan = tmp_path / "plan.txt"
    plan.write_text(text)
    out = tmp_path / "r.json"
    code = run(["simulate", "--variant", "V1a", "--model", model,
                "--strategy", "baseline", "--plan", f"@{plan}",
                "--horizon", str(horizon), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("text", [ODD, ODD + EVEN],
                         ids=["odd-line", "odd-and-even-lines"])
def test_cycles_of_more_than_4096_members_are_scored(tmp_path, capsys,
                                                     text):
    # geometric prices would write every walk of a 5000-member cycle, a
    # 200 MB report; at harmonic prices each walk stops at its first box
    code, out = simulate_plan_file(tmp_path, text, 10_000, "harmonic")
    payload = json.loads(out.read_text())
    assert code == (0 if payload["verdict"] == "PatternConfirmed" else 1)
    assert [o["prisoner"] for o in payload["outcomes"]] == \
        list(range(1, 10_001))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text, horizon", [
    (ODD + "3 4\n", 20),
    ("range 100 1000\n150 151\n", 1000),
    ("150 151\nrange 100 1000\n", 1000),
], ids=["long-explicit-and-short", "range-then-explicit",
        "explicit-then-range"])
def test_plan_files_with_an_index_in_two_cycles_exit_two(tmp_path, capsys,
                                                         text, horizon):
    code, out = simulate_plan_file(tmp_path, text, horizon)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the exit-code contract over generated command lines

@pytest.mark.parametrize("argv", [
    ["simulate", "--variant", "V1a", "--model", "geometric", "--strategy",
     "cycle-informed:k=3", "--plan", "two-cycle", "--horizon", "20"],
    ["adversary", "v1d-chooser", "--model", "geometric", "--cycles", "4"],
    ["simulate", "--variant", "V2a", "--model", "harmonic", "--strategy",
     "log-shift:K=2", "--plan", "two-cycle", "--horizon", "11"],
], ids=["cycle-informed-against-an-adversary", "index-past-digit-limit",
        "two-cycle-against-a-divergent-total"])
def test_generated_failures_are_usage_errors(capsys, argv):
    # the fourth v1d-chooser block against halving prices ends at an index
    # of about two million bits, which has no decimal plan line
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--model", "--strategy"])
@pytest.mark.parametrize("table", [
    "tail\n", "tail zero from x\n", "1 abc\ntail zero from 2\n",
    "1 1/0\ntail zero from 2\n", "tail zero from 3 junk\n",
    "1 1/2\ntail geometric 1/2 from 3 4 5\n",
], ids=["bare-tail", "non-integer-tail-start", "non-number-price",
        "zero-denominator", "extra-zero-tail-token",
        "extra-geometric-tail-tokens"])
def test_malformed_table_files_exit_two(tmp_path, capsys, flag, table):
    path = tmp_path / "table.txt"
    path.write_text(table)
    flags = {"--model": "geometric", "--strategy": "baseline",
             flag: f"@{path}"}
    assert run(["simulate", "--variant", "V1a", "--plan", "random",
                "--horizon", "5", *(x for kv in flags.items() for x in kv)
                ]) == 2
    assert capsys.readouterr().err.startswith("error: bad table line")


_VALUES = st.one_of(
    st.integers(1, 6).map(str),
    st.sampled_from(["0", "-1", "1/2", "3/4", "5/4", "-1/2", "1/0", "abc",
                     ""]))


def _spec(names, keys):
    return st.builds("{}:{}={}".format, st.sampled_from(names),
                     st.sampled_from(keys), _VALUES)


def _specs(table: dict):
    """Spec strings over the names and keys in table: 'name', 'name:key=
    value' with a key the name takes, or any name with any key."""
    keys = sorted({key for keys in table.values() for key in keys})
    return st.one_of(
        st.sampled_from(list(table)),
        *(_spec([name], keys) for name, keys in table.items() if keys),
        _spec([*table, "sideways"], [*keys, "bogus"]))


_MODELS = st.one_of(
    st.sampled_from(["geometric", "inverse-square", "harmonic"]),
    st.sampled_from(["1/2", "2/3", "1/5", "1/1024", "3/2", "0", "1/0"]).map(
        "geometric:ratio={}".format),
    st.sampled_from(["quartic", "harmonic:ratio=1/2", "geometric:bogus=1"]))
_STRATEGIES = _specs({
    "baseline": [], "tail-sum": ["total"], "bounded-length": ["k", "total"],
    "bounded-diameter": ["d", "total"], "cycle-informed": ["k", "total"],
    "constant1": [], "harmonic-prefix": [], "shifted-harmonic": ["k"],
    "scaled": ["c"], "log-shift": ["K"]})
# variant, model and strategy that fit together, so that generated runs get
# past the configuration checks
_SCENARIOS = [
    ("V1a", "geometric", "baseline"), ("V1a", "geometric", "tail-sum"),
    ("V1a", "inverse-square", "bounded-length:k=2"),
    ("V1b", "geometric", "bounded-diameter:d=2"),
    ("V1b", "inverse-square", "baseline"),
    ("V1c", "geometric", "bounded-length:k=3"),
    ("V1d", "inverse-square", "cycle-informed:k=2"),
    ("V2a", "harmonic", "harmonic-prefix"), ("V2a", "harmonic", "constant1"),
    ("V2a", "harmonic", "log-shift:K=2"),
    ("V2b", "harmonic", "shifted-harmonic:k=3"),
    ("V2b", "harmonic", "scaled:c=1/2"),
]
_ADVERSARY_KINDS = _specs({
    "v1b-ceiling": ["leader_cap"], "v1d-chooser": ["leader_cap", "total"],
    "v2a-blocks": ["exact_end_cap", "exponent_cap"],
    "v2b-blocks": ["exact_end_cap", "exponent_cap"],
    "two-cycle": ["search_horizon"], "good-index": ["search_horizon"]})
_PLAN_SOURCES = st.one_of(
    _specs({"random": ["max_len"], "banded": ["d"]}), _ADVERSARY_KINDS)
_PLAN_LINES = st.lists(st.one_of(
    st.lists(st.integers(-1, 40), min_size=1, max_size=5).map(
        lambda ms: " ".join(map(str, ms))),
    st.builds(lambda a, b: f"range {a} {b}",
              st.integers(-1, 200), st.integers(-1, 400)),
    st.sampled_from(["identity-from 30", "# note", "", "range 5",
                     "1 x", "range a b", "2 1  # swap"])), max_size=5)
# model and allocation table files: index and value lines and tail lines
_TABLE_LINES = st.lists(st.one_of(
    st.builds("{} {}".format, st.integers(-1, 12),
              st.sampled_from(["1/2", "1/8", "0", "3/2", "-1/4", "1/0",
                               "x"])),
    st.sampled_from(["tail zero from 9", "tail geometric 1/2 from 9",
                     "tail geometric 3/2 from 4",
                     "tail inverse-power 2 from 9", "tail zero from 0",
                     "tail zero", "tail", "# note", ""])), max_size=5)


def _file_bytes(lines):
    """The lines as file bytes, sometimes cut by bytes that are not UTF-8."""
    return st.builds(
        lambda lines, bad: "".join(line + "\n" for line in lines).encode()
        + (b"\xff\xfe" if bad else b""),
        lines, st.booleans())


# registry key -> the parameters its check reads
_VERIFY_PARAMS = {
    "tail-sum-strategy": ["plans", "horizon", "max_len"],
    "rearranged-strategy": ["plans", "horizon", "max_len"],
    "divergence-witness": ["targets"],
    "identity-minimality": ["m"],
    "good-index-adversary": ["cycles"],
    "existence-criterion": ["plans", "horizon"],
    "descending-reduction": ["m"],
    "zero-omission": ["m"],
    "bounded-length-v1a": ["k", "plans", "horizon"],
    "v1b-no-strategy": ["horizon"],
    "bounded-diameter-v1b": ["d", "plans", "horizon"],
    "two-cycle-v1b": ["pairs"],
    "open-boxes-v1c": ["k", "plans", "horizon"],
    "v1d-no-strategy": ["horizon"],
    "v1d-bounded": ["k", "plans", "horizon"],
    "v2a-strategies": ["plans", "horizon", "blocks", "K"],
    "scaled-gap": ["cases"],
    "v2b-no-strategy": ["alloc", "horizon", "blocks"],
}


def test_fuzzed_verify_parameters_name_every_registry_key():
    assert list(_VERIFY_PARAMS) == list(THEOREM_KEYS)


# registry keys whose random plans take their longest cycle from a parameter
_BOX_PARAMS = {"tail-sum-strategy": "max_len", "rearranged-strategy": "max_len",
               "bounded-length-v1a": "k", "bounded-diameter-v1b": "d",
               "open-boxes-v1c": "k", "v1d-bounded": "k"}


@st.composite
def _command_lines(draw):
    """(argv, {placeholder: file bytes}, refused) for one bounded CLI run;
    refused runs draw a count past a cap, so they must exit 2 at once."""
    command = draw(st.sampled_from(["simulate", "verify", "adversary",
                                    "analyze"]))
    files = {}

    def table_file(spec, placeholder):
        # a quarter of the model and strategy specs name a table file
        if draw(st.integers(0, 3)):
            return spec
        files[placeholder] = draw(_file_bytes(_TABLE_LINES))
        return placeholder

    if command == "simulate":
        if draw(st.booleans()):
            files["@PLAN"] = draw(_file_bytes(_PLAN_LINES))
        if draw(st.booleans()):
            variant, model, strategy = draw(st.sampled_from(_SCENARIOS))
        else:
            variant = draw(st.sampled_from([*VARIANTS, "V9"]))
            model, strategy = draw(_MODELS), draw(_STRATEGIES)
        argv = ["simulate", "--variant", variant,
                "--model", table_file(model, "@MODEL"),
                "--strategy", table_file(strategy, "@ALLOC"),
                "--plan", "@PLAN" if "@PLAN" in files else draw(_PLAN_SOURCES),
                "--horizon", str(draw(st.integers(-1, 30))),
                "--seed", str(draw(st.integers(0, 3)))]
        order = draw(st.none() | st.lists(st.integers(0, 12), max_size=4))
        if order is not None:
            argv += ["--entry-order", ",".join(map(str, order))]
        if not draw(st.integers(0, 5)):
            # past the horizon cap, or a random plan whose window could
            # open more boxes than the plans admit
            horizon = draw(st.integers(10 ** 4, 2 * HORIZON_CAP))
            longest = draw(st.integers(OPENED_BOX_CAP // horizon + 1,
                                       10 ** 30))
            argv[argv.index("--plan") + 1] = draw(st.sampled_from(
                ["random:max_len={}", "banded:d={}"])).format(longest)
            argv[argv.index("--horizon") + 1] = str(horizon)
            return argv, files, True
        return argv, files, False
    if command == "verify":
        seed = ["--seed", str(draw(st.integers(0, 3)))]
        if not draw(st.integers(0, 5)):
            # a count past the registry's cap, or a horizon and cycle
            # length under it whose windows could open too many boxes
            key, length = draw(st.sampled_from(sorted(_BOX_PARAMS.items())))
            count = draw(st.integers(registry._COUNT_CAP + 1, 10 ** 30))
            horizon = draw(st.integers(10 ** 4, registry._COUNT_CAP))
            longest = draw(st.integers(OPENED_BOX_CAP // horizon + 1,
                                       registry._COUNT_CAP))
            params = draw(st.sampled_from([
                [f"{draw(st.sampled_from(_VERIFY_PARAMS[key]))}={count}"],
                [f"horizon={horizon}", f"{length}={longest}"]]))
            return ["verify", key, *params, *seed], files, True
        key = draw(st.sampled_from([*_VERIFY_PARAMS, "sideways"]))
        params = draw(st.lists(st.builds(
            lambda k, v: f"{k}={v}",
            st.sampled_from([*_VERIFY_PARAMS.get(key, ()), "bogus"]),
            st.one_of(st.integers(-1, 9).map(str),
                      st.sampled_from(["1/2", "constant1", "scaled:1/2",
                                       "abc"]))),
            max_size=3))
        return ["verify", key, *params, *seed], files, False
    if command == "adversary":
        return ["adversary", draw(_ADVERSARY_KINDS),
                "--model", table_file(draw(_MODELS), "@MODEL"),
                "--strategy", table_file(draw(_STRATEGIES), "@ALLOC"),
                "--cycles", str(draw(st.integers(-1, 6)))], files, False
    return ["analyze", "--model", table_file(draw(_MODELS), "@MODEL"),
            "--mode", draw(st.sampled_from(["min", "existence", "dominance",
                                            "zero-omission", "sideways"])),
            "--m", str(draw(st.integers(-1, 9))),
            "--trials", str(draw(st.integers(0, 40))),
            "--seed", str(draw(st.integers(0, 3)))], files, False


@given(_command_lines())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_command_line_keeps_the_exit_code_contract(case):
    # 0 confirmed, 1 only after a verdict or failed check was printed,
    # 2 for usage errors, and never a traceback
    argv, files, refused = case
    start = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for placeholder, data in files.items():
            path = Path(tmp) / f"{placeholder[1:].lower()}.txt"
            path.write_bytes(data)
            argv = [f"@{path}" if a == placeholder else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse rejects the flags
                code = stop.code
            except Exception:
                pytest.fail(f"{argv} raised\n{traceback.format_exc()}")
    assert code in (0, 1, 2)
    if refused:
        assert code == 2 and time.perf_counter() - start < 1, argv
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == 1:
        printed = out.getvalue()
        assert ('"verdict":' in printed or "\nFAIL " in "\n" + printed
                or printed.startswith("fail\t")), (argv, printed[:200])
