"""Child interpreters started by the CLI tests import this source tree too.

`pythonpath = ["src"]` in pyproject.toml puts the package on the test
process's path; exporting it on PYTHONPATH gives `python -m prisoners.cli`
subprocesses the same package without an install.
"""
import contextlib
import io
import os
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
_inherited = os.environ.get("PYTHONPATH", "")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (SRC, _inherited) if part)


class VerifyAllRun(NamedTuple):
    code: int
    out: str
    reports: list  # (key, VerificationReport) in the order they ran


@pytest.fixture(scope="session")
def verify_all_run() -> VerifyAllRun:
    """One in-process `prisoners verify all`, shared by the tests that
    judge it, with the report behind every line it printed."""
    from prisoners import cli

    reports = []
    real = cli.verify_theorem

    def recording(key, *args, **kwargs):
        report = real(key, *args, **kwargs)
        reports.append((key, report))
        return report

    out = io.StringIO()
    cli.verify_theorem = recording
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "all"])
    finally:
        cli.verify_theorem = real
    return VerifyAllRun(code, out.getvalue(), reports)


@pytest.fixture
def lifted_compressed_price(monkeypatch):
    """Lift the second compressed price by 1/3, so zero omission must fail."""
    from prisoners.numeric import rat
    from prisoners.sequences import OmittedZerosModel

    plain = OmittedZerosModel.term

    def term(self, n):
        value = plain(self, n)
        return value + rat(1, 3) if n == 2 else value

    monkeypatch.setattr(OmittedZerosModel, "term", term)
