"""Child interpreters started by the CLI tests import this source tree too.

`pythonpath = ["src"]` in pyproject.toml puts the package on the test
process's path; exporting it on PYTHONPATH gives `python -m prisoners.cli`
subprocesses the same package without an install.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_inherited = os.environ.get("PYTHONPATH", "")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (SRC, _inherited) if part)
