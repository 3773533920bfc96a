"""Zero runtime dependencies: the package imports and runs every subcommand
with third-party imports blocked, even where numpy or scipy is installed.
And the import graph is the layering: importing a module loads only the
modules beneath it, and importing the package root loads none."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

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


def test_importing_the_cli_loads_no_statistics_module():
    """The rank test's normal tail is computed with ``math.erf``, so starting
    the command line does not pay for importing ``statistics``."""
    script = "import sys; sys.path.insert(0, sys.argv[1]); import uncertain_dx.cli; print('statistics' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script, str(SRC)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# Runs in a fresh interpreter, since pytest has already imported every module of the package.
IMPORT_ONE = r"""
import importlib, sys

sys.path.insert(0, sys.argv[1])
module = importlib.import_module(sys.argv[2])
print(*sorted(name.partition(".")[2] for name in sys.modules if name.startswith("uncertain_dx.")))
print(*(name for name in dir(module) if not name.startswith("_")))
"""


def _import_one(module: str) -> tuple[list[str], list[str]]:
    """The ``uncertain_dx`` submodules a fresh ``import module`` loads, and the module's public names."""
    result = subprocess.run([sys.executable, "-c", IMPORT_ONE, str(SRC), module], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    loaded, public = result.stdout.splitlines()
    return loaded.split(), public.split()


def test_the_package_root_loads_no_module_and_names_nothing():
    """Each public name has one home, its module; the root holds only ``__version__``."""
    assert _import_one("uncertain_dx") == ([], [])


# What a fresh ``import uncertain_dx.<module>`` loads of the package: the module and the layers beneath it.
LAYERS = {
    "errors": ["errors"],
    "kb": ["errors", "kb"],
    "engine": ["engine", "errors", "kb"],
    "decision": ["decision", "errors", "kb"],
    "synth": ["engine", "errors", "kb", "synth"],
    "evaluation": ["decision", "engine", "errors", "evaluation", "kb"],
    "cli": ["cli", "decision", "engine", "errors", "evaluation", "kb", "synth"],
}


@pytest.mark.parametrize("module, loads", LAYERS.items(), ids=list(LAYERS))
def test_importing_a_module_loads_only_the_layers_beneath_it(module, loads):
    assert _import_one(f"uncertain_dx.{module}")[0] == loads


# Runs one command in a fresh interpreter, since pytest and hypothesis load ``fractions`` themselves.
EXACT_INTEGERS_ONLY = r"""
import contextlib, io, sys

sys.path.insert(0, sys.argv[1])
from uncertain_dx.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(code, sorted({"fractions", "decimal", "numbers"} & set(sys.modules)))
"""

FIXTURE = [
    "--kb", str(DATA / "fixture_kb.json"), "--cases", str(DATA / "fixture_cases.json"),
    "--utilities", str(DATA / "fixture_utilities.json"), "--seed", "7", "--iterations", "2000",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", *FIXTURE],
        ["evaluate", *FIXTURE, "--format", "json"],
        ["infer", "--kb", str(DATA / "fixture_kb.json"), "--cases", str(DATA / "fixture_cases.json"),
         "--case", "c1", "--format", "json"],
        ["probe", "--likelihoods", "0.8,0.6,0.5,0.3,0.2", "--n-max", "100"],
    ],
    ids=["evaluate-tsv", "evaluate-json", "infer-json", "probe"],
)
def test_golden_commands_load_no_second_exact_arithmetic(argv):
    """Exact sums and the permutation threshold are integers over one power-of-two
    denominator, so no golden command imports ``fractions``, ``decimal`` or ``numbers``."""
    result = subprocess.run(
        [sys.executable, "-c", EXACT_INTEGERS_ONLY, str(SRC), *argv], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 []\n"
