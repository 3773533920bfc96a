"""Zero runtime dependencies: the package imports and runs every subcommand
with third-party imports blocked, even where numpy or scipy is installed."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
DATA = Path(__file__).parent / "data"

# Runs in a fresh interpreter: a finder at the head of sys.meta_path refuses
# every top-level module outside the standard library except the package.
STDLIB_ONLY = r"""
import contextlib, importlib, importlib.abc, io, pkgutil, sys

src, kb, cases, utilities = sys.argv[1:]
loaded_at_start = set(sys.modules)


class StdlibOnly(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top != "uncertain_dx":
            raise ImportError(f"third-party import {name!r} is not allowed")
        return None


sys.meta_path.insert(0, StdlibOnly())
sys.path.insert(0, src)

import uncertain_dx
from uncertain_dx.cli import main

for module in pkgutil.iter_modules(uncertain_dx.__path__, "uncertain_dx."):
    importlib.import_module(module.name)

commands = [
    ["validate", "--kb", kb, "--cases", cases, "--utilities", utilities],
    ["infer", "--kb", kb, "--cases", cases, "--case", "c1"],
    ["evaluate", "--kb", kb, "--cases", cases, "--utilities", utilities, "--iterations", "1000"],
    ["probe", "--likelihoods", "0.8,0.6,0.2", "--n-max", "5"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)

foreign = sorted(
    name for name in set(sys.modules) - loaded_at_start
    if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "uncertain_dx"
)
assert not foreign, foreign
print("ok")
"""


def test_runs_on_the_standard_library_alone():
    result = subprocess.run(
        [
            sys.executable, "-c", STDLIB_ONLY, str(SRC),
            str(DATA / "fixture_kb.json"), str(DATA / "fixture_cases.json"), str(DATA / "fixture_utilities.json"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
