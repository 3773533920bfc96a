"""The four benchmark workloads: their inputs, commands, set-up and checks.

Each workload is a closed loop of ``uncertain_dx.cli.main`` commands from
one client.  Each ``plan_*`` function builds a workload's inputs from the
seed and returns the commands to cycle through, the set-up to time, and a
check for each command's output against a reference that does not come from
the code under test: the shipped golden report, report invariants, and
the exact ``fractions.Fraction`` oracles of ``tests/support.py``.

Workloads and why they were chosen:

* ``fixture-eval``: the shipped study, dominated by per-test overhead in
  the permutation tests; engine and kb barely run, so it is the
  no-change control for engine and kb work.
* ``study-eval``: a generated 24-case study where the permutation tests
  flip signs over six times as many cases as the shipped study and one
  knowledge-base load serves 72 inferences; the only workload where
  decision and the rank test do measurable work.
* ``wide-infer``: one ``infer`` per generated case on a 40-disease
  knowledge base that every call loads, as a user's command does;
  measures kb and engine, never the permutation code.
* ``probe``: 100 freshly built replicated-evidence knowledge bases, so
  per-knowledge-base set-up is paid at every step; the only workload that
  runs synth.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import generate
from generate import CALCULI
from uncertain_dx import decision, kb, synth
from uncertain_dx.kb import ConditionalTable, Disease, Feature, KnowledgeBase, Observation

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# Engine beliefs must match the exact oracles this closely.
ORACLE_TOL = 1e-9
# Probe beliefs print with 6 decimals.
PRINTED_TOL = 5e-7 + ORACLE_TOL

PROBE_LIKELIHOODS = (0.8, 0.6, 0.5, 0.3, 0.2)
REPORT_SECTIONS = (
    "[decision_theoretic]",
    "[gold_standards]",
    "[expert_ratings]",
    "[significance]",
    "[exclusions]",
)


@dataclass(frozen=True)
class Command:
    argv: list[str]
    # Returns a failure message, or None when the output is correct.
    check: Callable[[str], str | None]


@dataclass
class Plan:
    commands: list[Command]
    setup: Callable[[], None]
    # Rough cost of one command at full size; fixes the traced command count.
    nominal_s: float
    # Commands run once after the timed loop to check more outputs.
    extra: list[Command] = field(default_factory=list)
    inputs: dict[str, str] = field(default_factory=dict)


@functools.cache
def oracles():
    """``tests/support.py``, the exact-arithmetic reference implementations."""
    spec = importlib.util.spec_from_file_location(
        "uncertain_dx_test_support", ROOT / "tests" / "support.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exact_distributions(model_kb: KnowledgeBase, observations: list[Observation]) -> dict:
    """method -> (beliefs, pre-normalization sum) from the Fraction oracles."""
    support = oracles()
    return {
        "simple_bayes": (support.exact_simple_bayes(model_kb, observations), 1.0),
        "odds_likelihood": support.exact_odds_likelihood(model_kb, observations),
        "naive_dempster_shafer": support.exact_naive_ds(model_kb, observations),
    }


def infer_check(model_kb: KnowledgeBase, observations: list[Observation]) -> Callable[[str], str | None]:
    """Check ``infer --format json`` output against the oracles."""

    @functools.cache
    def expected():
        return exact_distributions(model_kb, observations)

    def check(text: str) -> str | None:
        doc = json.loads(text)
        if [entry["method"] for entry in doc] != list(CALCULI):
            return f"methods {[entry['method'] for entry in doc]}"
        for entry in doc:
            method = entry["method"]
            want, want_sum = expected()[method]
            got = entry["beliefs"]
            if list(got) != sorted(got, key=lambda d: (-got[d], d)):
                return f"{method}: beliefs not in descending order"
            if set(got) != set(want):
                return f"{method}: diseases {sorted(got)}"
            for disease, belief in got.items():
                if abs(belief - want[disease]) > ORACLE_TOL:
                    return f"{method}: belief {disease} {belief!r}, oracle {want[disease]!r}"
            if abs(entry["pre_norm_sum"] - want_sum) > ORACLE_TOL * max(1.0, want_sum):
                return f"{method}: pre_norm_sum {entry['pre_norm_sum']!r}, oracle {want_sum!r}"
        return None

    return check


def load_inputs(kb_path: Path, cases_path: Path, utilities_path: Path) -> None:
    """Load and validate an evaluation's input files, as ``evaluate`` does."""
    knowledge = kb.load_kb(kb_path)
    kb.load_cases(cases_path, knowledge)
    violations = decision.utility_coverage_violations(decision.load_utilities(utilities_path), knowledge)
    if violations:
        raise ValueError(f"utility model does not cover the knowledge base: {violations}")


# ---------------------------------------------------------------------------


def plan_fixture_eval(seed: int, smoke: bool, work: Path) -> Plan:
    """The shipped study; its inputs are fixed, so the seed changes nothing."""
    paths = [DATA / name for name in ("fixture_kb.json", "fixture_cases.json", "fixture_utilities.json")]
    golden = (DATA / "golden_report.tsv").read_bytes()

    def check(text: str) -> str | None:
        return None if text.encode("utf-8") == golden else "report differs from golden_report.tsv"

    argv = ["evaluate", "--kb", str(paths[0]), "--cases", str(paths[1]), "--utilities", str(paths[2]),
            "--gold", "informed", "--seed", "7", "--iterations", "2000", "--format", "tsv"]
    return Plan(commands=[Command(argv, check)], setup=lambda: load_inputs(*paths), nominal_s=0.16)


def _study_report_check(cases: int, iterations: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        sections: dict[str, list[list[str]]] = {}
        current = None
        for line in text.splitlines():
            if line.startswith("["):
                current = sections.setdefault(line, [])
            elif current is not None:
                current.append(line.split("\t"))
        if tuple(sections) != REPORT_SECTIONS:
            return f"sections {list(sections)}"
        decision_rows = sections["[decision_theoretic]"][1:]
        gold_rows = sections["[gold_standards]"][1:]
        if len(decision_rows) != 5 or len(gold_rows) != 2 or len(sections["[expert_ratings]"]) != 4:
            return "wrong number of rating rows"
        for row in decision_rows + gold_rows:
            if row[2] != "-" and int(row[2]) < 0:
                return f"negative diff_mean in {row}"
        for row in decision_rows[1:]:
            if not row[4].endswith(f" of {cases}"):
                return f"gold agreement {row[4]!r} is not out of {cases} cases"
        tests = sections["[significance]"][1:]
        if [row[1] for row in tests] != ["monte_carlo_permutation"] * 6 + ["wilcoxon_rank_sum"] * 3:
            return "wrong significance tests"
        for row in tests:
            if not 0.0 < float(row[3]) <= 1.0:
                return f"ASL {row[3]} outside (0, 1]"
        if any(row[5] != str(iterations) for row in tests[:6]):
            return "wrong iteration count"
        if sections["[exclusions]"][1:]:
            return f"unexpected exclusions {sections['[exclusions]'][1:]}"
        return None

    return check


def plan_study_eval(seed: int, smoke: bool, work: Path) -> Plan:
    size = (
        dict(diseases=6, classes=3, features=10, cases=12, observations=4)
        if smoke
        else dict(diseases=24, classes=6, features=60, cases=24, observations=8)
    )
    iterations = 1000 if smoke else 2000
    study = generate.generate_study(seed, work, **size)
    paths = (study.kb_path, study.cases_path, study.utilities_path)
    argv = ["evaluate", "--kb", str(paths[0]), "--cases", str(paths[1]), "--utilities", str(paths[2]),
            "--gold", "informed", "--seed", str(seed), "--iterations", str(iterations), "--format", "tsv"]
    model_kb = study.model.knowledge_base()
    sampled = random.Random(f"study-sample:{seed}").sample(study.cases, 2 if smoke else 8)
    extra = [
        Command(
            ["infer", "--kb", str(paths[0]), "--cases", str(paths[1]), "--case", case.id, "--format", "json"],
            infer_check(model_kb, list(case.observations)),
        )
        for case in sampled
    ]
    return Plan(
        commands=[Command(argv, _study_report_check(size["cases"], iterations))],
        setup=lambda: load_inputs(*paths),
        nominal_s=0.4,
        extra=extra,
        inputs=study.sha256,
    )


def plan_wide_infer(seed: int, smoke: bool, work: Path) -> Plan:
    size = (
        dict(diseases=6, features=8, observations=5, pool=3)
        if smoke
        else dict(diseases=40, features=40, observations=32, pool=8)
    )
    wide = generate.generate_wide(seed, work, **size)
    model_kb = wide.model.knowledge_base()
    commands = [
        Command(
            ["infer", "--kb", str(wide.kb_path), "--format", "json"]
            + [f"{o.feature}={o.value}" for o in case.observations],
            infer_check(model_kb, list(case.observations)),
        )
        for case in wide.cases
    ]
    return Plan(commands=commands, setup=lambda: kb.load_kb(wide.kb_path), nominal_s=0.07,
                inputs=wide.sha256)


def replicated_kb(n: int) -> tuple[KnowledgeBase, list[Observation]]:
    """The probe's knowledge base at ``n`` tokens, built independently of synth."""
    m = len(PROBE_LIKELIHOODS)
    diseases = tuple(Disease(f"h{i + 1}", f"H{i + 1}", 1.0 / m, f"h{i + 1}") for i in range(m))
    features = tuple(Feature(f"e{k + 1}", f"e{k + 1}", ("present", "absent")) for k in range(n))
    entries = {}
    for f in features:
        for d, p in zip(diseases, PROBE_LIKELIHOODS):
            entries[(f.id, "present", d.id)] = p
            entries[(f.id, "absent", d.id)] = 1.0 - p
    knowledge = KnowledgeBase(diseases, features, ConditionalTable(entries))
    return knowledge, [Observation(f.id, "present") for f in features]


def _probe_check(n_max: int, sampled: list[int]) -> Callable[[str], str | None]:
    diseases = [f"h{i + 1}" for i in range(len(PROBE_LIKELIHOODS))]

    @functools.cache
    def expected():
        return {n: exact_distributions(*replicated_kb(n)) for n in sampled}

    def check(text: str) -> str | None:
        lines = text.split("\n")
        if lines[0] != "n\tmethod\tdisease\tbelief" or lines[-1] != "":
            return "bad header or missing final newline"
        rows = [line.split("\t") for line in lines[1:-1]]
        if len(rows) != n_max * len(CALCULI) * len(diseases):
            return f"{len(rows)} rows"
        it = iter(rows)
        for n in range(1, n_max + 1):
            for method in CALCULI:
                group = [next(it) for _ in diseases]
                if [(r[0], r[1], r[2]) for r in group] != [(str(n), method, d) for d in diseases]:
                    return f"rows out of order at n={n} {method}"
                beliefs = [float(r[3]) for r in group]
                if abs(sum(beliefs) - 1.0) > len(diseases) * PRINTED_TOL:
                    return f"n={n} {method}: beliefs sum to {sum(beliefs)!r}"
                if n in sampled:
                    want = expected()[n][method][0]
                    for d, b in zip(diseases, beliefs):
                        if abs(b - want[d]) > PRINTED_TOL:
                            return f"n={n} {method}: belief {d} {b!r}, oracle {want[d]!r}"
        return None

    return check


def plan_probe(seed: int, smoke: bool, work: Path) -> Plan:
    n_max = 8 if smoke else 100
    rng = random.Random(f"probe:{seed}")
    sampled = sorted({1, 2, n_max} | set(rng.sample(range(3, n_max), 2)))
    spec = synth.ReplicatedEvidenceSpec.uniform(PROBE_LIKELIHOODS, n=n_max)
    argv = ["probe", "--likelihoods", ",".join(map(str, PROBE_LIKELIHOODS)), "--n-max", str(n_max)]
    return Plan(commands=[Command(argv, _probe_check(n_max, sampled))],
                setup=lambda: synth.replicate_evidence_kb(spec), nominal_s=0.35)


WORKLOADS: dict[str, Callable[[int, bool, Path], Plan]] = {
    "fixture-eval": plan_fixture_eval,
    "study-eval": plan_study_eval,
    "wide-infer": plan_wide_infer,
    "probe": plan_probe,
}
