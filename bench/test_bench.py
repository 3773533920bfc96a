"""Tests of the benchmark itself, at the smoke size.

Run from the root of a checkout: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import generate
import harness
import spans
import workloads
from uncertain_dx import cli, engine, evaluation, kb, synth

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name: str, trace: bool, work: Path) -> harness.Result:
    return harness.run_workload(name, 1, 0.0, trace, smoke=True, work=work)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (m.name, m.unit) for m in harness.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit) for m in spans.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    result = smoke(name, trace, tmp_path)
    assert result.correct, result.errors
    assert result.attempted >= 2 and result.failed == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [(n, u) for n, (_, u) in result.metrics.items()] == [(m["name"], m["unit"]) for m in wanted]
    summary = result.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(v > 0 for v, _ in result.metrics.values())


def test_traced_run_counts_the_layers_it_runs(tmp_path):
    m = smoke("fixture-eval", True, tmp_path).metrics
    # Two commands; case c5 is excluded from each after simple Bayes fails on it.
    assert m["trace.commands"][0] == 2
    assert m["evaluation.cases"][0] == 10
    assert m["evaluation.excluded_cases"][0] == 2
    assert m["engine.simple_bayes_failed"][0] == 2
    assert m["evaluation.permutation_test_calls"][0] == 12
    assert m["evaluation.sign_flips"][0] == 12 * 2000 * 4
    assert m["synth.kbs_built"][0] == 0
    assert 0.9 < m["trace.coverage"][0] <= 1.0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def _break_report(original):
    return lambda self: original(self).replace("93940", "93941")


# A deliberately wrong program for each workload: (target, attribute, replacement).
WRONG = {
    "fixture-eval": lambda: (evaluation.EvaluationReport, "to_tsv",
                             _break_report(evaluation.EvaluationReport.to_tsv)),
    "study-eval": lambda: (evaluation, "permutation_test", lambda *args: 0.0),
    "wide-infer": lambda: (engine, "odds_likelihood", engine.simple_bayes),
    "probe": lambda: (synth, "naive_dempster_shafer", synth.simple_bayes),
}


@pytest.mark.parametrize("name", list(WRONG))
def test_wrong_output_fails_its_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(*WRONG[name]())
    result = smoke(name, False, tmp_path)
    assert not result.correct
    assert result.failed > 0 and result.failed / result.attempted > 0
    assert result.errors
    assert not result.summary()["correct"]


def test_command_that_exits_nonzero_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "cmd_infer", lambda args: 3)
    result = smoke("wide-infer", False, tmp_path)
    assert result.failed == result.attempted


def test_wrapper_reraises_the_same_exception_and_marks_the_span_failed():
    tracer = spans.Tracer()
    error = ValueError("boom")

    def fails():
        raise error

    with pytest.raises(ValueError) as info:
        tracer.wrap("x.fails", fails)()
    assert info.value is error
    assert [(s.name, s.failed) for s in tracer.spans] == [("x.fails", True)]


def test_install_and_restore_leave_the_program_as_it_was():
    def snapshot():
        return (
            cli.main, cli.load_kb, kb.validate_kb, synth.validate_kb, synth.simple_bayes,
            engine.odds_likelihood, dict(evaluation._INFERENCE), evaluation.permutation_test,
            evaluation.EvaluationReport.to_tsv, synth.replicate_evidence_kb,
        )

    before = snapshot()
    tracer = spans.Tracer()
    spans.install(tracer)
    assert snapshot() != before
    tracer.restore()
    assert snapshot() == before


def test_self_time_and_coverage_subtract_child_spans():
    tree = [
        spans.Span("cli.main", 1, None, 0, 100),
        spans.Span("kb.load_kb", 1, 0, 10, 40),
        spans.Span("kb.validate_kb", 1, 1, 20, 30),
        spans.Span("evaluation.weighted_mean_sd", 1, 0, 50, 60),
        spans.Span("evaluation.expert_rating_summary", 1, 0, 60, 80),
        spans.Span("evaluation.weighted_mean_sd", 1, 4, 65, 70),
    ]
    m = spans.layer_metrics(tree, Counter())
    assert m["cli.main_self_s"] == pytest.approx(40e-9)
    assert m["trace.coverage"] == pytest.approx(0.6)
    assert m["kb.load_kb_s"] == pytest.approx(30e-9)
    assert m["kb.validate_kb_s"] == pytest.approx(10e-9)
    # The nested weighted_mean_sd is inside its group already.
    assert m["evaluation.weighting_s"] == pytest.approx(30e-9)


def test_tail_has_ten_samples_beyond_it_or_falls_back_to_the_maximum():
    assert harness.tail(list(range(30))) == (19, pytest.approx(100 * 20 / 30), 10)
    assert harness.tail([5, 1, 3]) == (5, 100.0, 0)


SMALL = dict(diseases=5, classes=2, features=6, cases=8, observations=3)


def test_generator_is_seeded(tmp_path):
    a = generate.generate_study(5, tmp_path / "a", **SMALL)
    b = generate.generate_study(5, tmp_path / "b", **SMALL)
    c = generate.generate_study(6, tmp_path / "c", **SMALL)
    assert a.sha256 == b.sha256 != c.sha256
    assert (tmp_path / "a" / "kb.json").read_bytes() == (tmp_path / "b" / "kb.json").read_bytes()


def test_generated_study_follows_its_contract(tmp_path):
    study = generate.generate_study(3, tmp_path, **SMALL)
    assert min(study.model.priors.values()) > 0
    assert min(study.model.conditionals.values()) > 0
    for case in json.loads(study.cases_path.read_text()):
        for gold in (case["gold_descriptive"], case["gold_informed"]):
            assert max(gold, key=gold.get) == case["true_diagnosis"]
        assert all(isinstance(r, int) and 0 <= r <= 10 for r in case["expert_ratings"].values())
    utilities = json.loads(study.utilities_path.read_text())
    for entry in utilities["disutility"]:
        assert (entry["micromorts"] == 0) == (entry["true"] == entry["diagnosed"])


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_command_line_prints_the_result_last(tmp_path):
    proc = _bench(["--workload", "fixture-eval", "--seed", "2", "--seconds", "0", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == harness.MIN_COMMANDS
    assert "fail_ratio 0.000000 ratio" in proc.stdout and "evaluate_s" in proc.stdout


def test_smoke_mode_passes_every_workload():
    proc = _bench(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2 * len(workloads.WORKLOADS)
    assert all(json.loads(line.split(": ", 1)[1])["correct"] for line in lines)


def test_command_line_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
