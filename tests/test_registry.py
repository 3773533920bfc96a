"""The registries: ``kb.CALCULI`` names the three calculi once, and every
method list, table and output column follows it in order; ``kb.GOLD_SOURCES``
names the gold standards once, and every gold field, label and choice follows it."""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

from uncertain_dx import engine, evaluation, synth
from uncertain_dx.cli import main
from uncertain_dx.kb import (
    BELIEF_METHODS,
    CALCULI,
    GOLD_SOURCES,
    BeliefDistribution,
    CaseRecord,
    load_cases,
    load_kb,
)

DATA = Path(__file__).parent / "data"
KB, CASES = str(DATA / "fixture_kb.json"), str(DATA / "fixture_cases.json")


def test_tables_follow_calculi():
    assert CALCULI == ("simple_bayes", "odds_likelihood", "naive_dempster_shafer")
    assert engine.CALCULI is CALCULI
    assert BELIEF_METHODS == (*CALCULI, "external")
    assert list(engine._STEPS) == list(CALCULI)
    assert all(len(row) == 2 and all(map(callable, row)) for row in engine._STEPS.values())
    assert list(evaluation._INFERENCE) == list(CALCULI)
    assert [f.name for f in dataclasses.fields(synth.ProbePoint)] == ["n", *CALCULI]


def test_engine_finds_no_step_by_name():
    """Each calculus's steps are read from the engine's one table, never looked up by name."""
    assert not re.search(r"\bglobals\s*\(", inspect.getsource(engine))


def test_every_calculus_is_an_evaluated_method_of_its_own():
    """Expert-rating rows take their labels from these entries."""
    for name in CALCULI:
        label, calculus, uses_meu = evaluation.METHODS[name]
        assert (calculus, uses_meu) == (name, False)
        assert label
    assert {calculus for _, calculus, _ in evaluation.METHODS.values()} == set(CALCULI)


def test_infer_defaults_and_help_follow_calculi(capsys):
    assert main(["infer", "--kb", KB, "--cases", CASES, "--case", "c1", "--format", "json"]) == 0
    assert [entry["method"] for entry in json.loads(capsys.readouterr().out)] == list(CALCULI)

    assert main(["infer", "--kb", KB, "--cases", CASES, "--case", "c1"]) == 0
    headers = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    assert headers == list(CALCULI)

    try:
        main(["infer", "--help"])
    except SystemExit as exit_:
        assert exit_.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"comma-separated subset of: {', '.join(CALCULI)}" in help_text


def test_probe_method_column_follows_calculi_at_every_step():
    spec = synth.ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=4)
    rows = [line.split("\t") for line in synth.probe_tsv(spec).splitlines()[1:]]
    for n in range(1, 5):
        methods = [method for step, method, _, _ in rows if step == str(n)]
        assert methods == [name for name in CALCULI for _ in range(3)]


def test_gold_fields_labels_and_choices_follow_gold_sources(capsys):
    assert GOLD_SOURCES == ("descriptive", "informed")
    fields = [f.name for f in dataclasses.fields(CaseRecord) if f.name.startswith("gold")]
    assert fields == [f"gold_{source}" for source in GOLD_SOURCES]

    marks = {source: BeliefDistribution.from_unnormalized({"d": 1.0}, "external") for source in GOLD_SOURCES}
    case = CaseRecord("c", (), **{f"gold_{source}": mark for source, mark in marks.items()})
    assert all(case.gold(source) is mark for source, mark in marks.items())
    with pytest.raises(ValueError, match=r"^unknown gold source 'peer_review'$"):
        case.gold("peer_review")

    # load_cases fills each gold_<source> field from the file's key of that name.
    doc = json.loads(Path(CASES).read_text())
    for source in GOLD_SOURCES:
        del doc[0][f"gold_{source}"]
    doc[1].pop("gold_descriptive")
    for entry, loaded in zip(doc, load_cases(json.dumps(doc).encode(), load_kb(KB))):
        for source in GOLD_SOURCES:
            if f"gold_{source}" in entry:
                assert loaded.gold(source).beliefs == pytest.approx(entry[f"gold_{source}"], abs=1e-6)
            else:
                assert loaded.gold(source) is None

    assert list(evaluation.GOLD_ROW_LABELS.items()) == [
        ("descriptive", "Descriptive gold standard"),
        ("informed", "Informed gold standard"),
    ]
    assert list(evaluation.GOLD_PAIR_LABELS.items()) == [
        ("descriptive", "Descriptive Gold Standard"),
        ("informed", "Informed Gold Standard"),
    ]

    try:
        main(["evaluate", "--help"])
    except SystemExit as exit_:
        assert exit_.code == 0
    assert f"--gold {{{','.join(GOLD_SOURCES)}}}" in capsys.readouterr().out
