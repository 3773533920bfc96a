"""Command-line behavior: exit codes, output shapes, golden reports."""

from __future__ import annotations

import argparse
import io
import json
import random
import re
import shlex
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from support import never_called, reference_permutation_test

from uncertain_dx import cli, engine, evaluation, synth
from uncertain_dx.cli import _one_line, _plain_args, build_parser, main

KB = "tests/data/fixture_kb.json"
CASES = "tests/data/fixture_cases.json"
UTILITIES = "tests/data/fixture_utilities.json"
EVALUATE = [
    "evaluate", "--kb", KB, "--cases", CASES, "--utilities", UTILITIES,
    "--seed", "7", "--iterations", "2000",
]


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch, data_dir):
    monkeypatch.chdir(data_dir.parent.parent)
    monkeypatch.delenv("UNCERTAIN_DX_SEED", raising=False)


def write_probe_kb(tmp_path):
    """The three-hypothesis shared-token fixture as files."""
    from uncertain_dx.kb import serialize_kb
    from uncertain_dx.synth import ReplicatedEvidenceSpec, replicate_evidence_kb

    kb, observations = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=2))
    path = tmp_path / "kb.json"
    path.write_bytes(serialize_kb(kb))
    return str(path), observations


class TestValidateCommand:
    def test_valid_files(self, capsys):
        assert main(["validate", "--kb", KB, "--cases", CASES, "--utilities", UTILITIES]) == 0
        out = capsys.readouterr().out
        assert out == "kb: OK\ncases: OK\nutilities: OK\n"

    def test_invalid_priors_exit_2(self, tmp_path, capsys):
        doc = json.loads(Path(KB).read_text())
        doc["diseases"][0]["prior"] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--kb", str(bad)]) == 2
        assert "priors must sum to 1" in capsys.readouterr().out

    def test_line_break_in_a_violation_cannot_forge_an_ok_line(self, tmp_path, capsys):
        doc = json.loads(Path(KB).read_text())
        doc["conditionals"].append({"feature": "zz\nkb: OK", "disease": "va", "probs": {"absent": 1.0}})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--kb", str(bad)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("kb: OK") for line in lines)
        assert "kb: conditional (zz\\nkb: OK, absent, va): unknown feature" in lines

    @pytest.mark.parametrize("line_break, escape", [("\x0b", "\\x0b"), ("\u2028", "\\u2028")])
    def test_any_line_break_in_a_violation_cannot_forge_an_ok_line(self, tmp_path, capsys, line_break, escape):
        """VT and U+2028 end a line for str.splitlines() just as LF does."""
        doc = json.loads(Path(KB).read_text())
        doc["conditionals"].append({"feature": f"zz{line_break}kb: OK", "disease": "va", "probs": {"absent": 1.0}})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--kb", str(bad)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("kb: OK") for line in lines)
        assert f"kb: conditional (zz{escape}kb: OK, absent, va): unknown feature" in lines

    @pytest.mark.parametrize(
        "target, edit, lines",
        [
            (
                KB,
                lambda doc: [d.update(prior=1e308) for d in doc["diseases"][:2]],
                [
                    "kb: disease 'va': prior 1e+308 exceeds 1",
                    "kb: disease 'csd': prior 1e+308 exceeds 1",
                    "kb: disease priors must sum to 1 (got inf)",
                ],
            ),
            (
                KB,
                lambda doc: doc["conditionals"][0]["probs"].update(absent=1e308, focal=1e308),
                [
                    "kb: conditional (necrosis, absent, va): probability 1e+308 outside [0, 1]",
                    "kb: conditional (necrosis, focal, va): probability 1e+308 outside [0, 1]",
                    "kb: conditional row (necrosis, va): sums to inf, expected 1",
                ],
            ),
            (
                CASES,
                lambda doc: doc[0]["gold_informed"].update(va=1e308, csd=1e308),
                ["kb: OK", "cases: case 'c1'.gold_informed: probabilities sum to inf, expected 1 within 1e-06"],
            ),
        ],
        ids=["priors", "conditional-row", "gold"],
    )
    def test_overflowing_sum_is_a_violation(self, tmp_path, capsys, target, edit, lines):
        """Two huge values overflow math.fsum; the sum reads as inf, not a traceback."""
        doc = json.loads(Path(target).read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        paths = {KB: KB, CASES: CASES, target: str(bad)}
        assert main(["validate", "--kb", paths[KB], "--cases", paths[CASES]]) == 2
        assert capsys.readouterr().out.splitlines() == lines


# Each input's coverage violations.  "kb": the fixture KB with two diseases
# moved to other classes, 'va' to a class the utility model maps it elsewhere,
# 'fl' to one the utility model lacks.  "utilities": the fixture utility model
# with 'csd' dropped from its expansion, the check that keeps every command
# from pricing with a model that does not cover the KB.
COVERAGE_VIOLATIONS = {
    "kb": [
        "disease 'va': knowledge base class 'hodgkin' differs from utility expansion 'benign'",
        "disease 'fl': knowledge base class 'lymphoma' differs from utility expansion 'nhl'",
        "disease 'fl': equivalence class 'lymphoma' missing from the utility model",
    ],
    "utilities": ["disease 'csd': not mapped in the utility model"],
}


@pytest.mark.parametrize("broken", list(COVERAGE_VIOLATIONS))
@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_utility_coverage_violations_exit_2(command, broken, tmp_path, capsys):
    paths = {"kb": KB, "utilities": UTILITIES}
    doc = json.loads(Path(paths[broken]).read_text())
    if broken == "kb":
        classes = {"va": "hodgkin", "fl": "lymphoma"}
        for disease in doc["diseases"]:
            disease["class"] = classes.get(disease["id"], disease["class"])
    else:
        del doc["expansion"]["csd"]
    paths[broken] = str(tmp_path / f"{broken}.json")
    Path(paths[broken]).write_text(json.dumps(doc))
    assert main([command, "--kb", paths["kb"], "--cases", CASES, "--utilities", paths["utilities"]]) == 2
    out, err = capsys.readouterr()
    violations = COVERAGE_VIOLATIONS[broken]
    if command == "validate":
        assert out.splitlines() == ["kb: OK", "cases: OK", *(f"utilities: {v}" for v in violations)]
    else:
        assert (out, err) == ("", f"ValidationError: {'; '.join(violations)}\n")


def _set_first_prior(value):
    def edit(doc):
        doc["diseases"][0]["prior"] = value
    return edit


def _renamed(doc, old, new):
    """``doc`` with every string and object key equal to ``old`` replaced."""
    if isinstance(doc, dict):
        return {new if k == old else k: _renamed(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_renamed(v, old, new) for v in doc]
    return new if doc == old else doc


MALFORMED = {
    "nan-prior": (KB, _set_first_prior(float("nan"))),
    "overflowing-prior": (KB, _set_first_prior(10**400)),
    # Placeholder for an integer literal longer than json.dumps will write.
    "prior-beyond-int-digit-limit": (KB, _set_first_prior("DIGITS")),
    "disease-not-an-object": (KB, lambda doc: doc.update(diseases=["id"])),
    "diseases-not-an-array": (KB, lambda doc: doc.update(diseases=5)),
    "observations-not-an-array": (CASES, lambda doc: doc[0].update(observations=5)),
    "disutility-entry-not-an-object": (UTILITIES, lambda doc: doc.update(disutility=[1])),
    # Above 1e6 micromorts (certain death); 1e155 overflowed the report's variance.
    "micromorts-beyond-certain-death": (
        UTILITIES,
        lambda doc: [e.update(micromorts=1e155) for e in doc["disutility"] if e["true"] != e["diagnosed"]],
    ),
    # A repeated entry used to replace the earlier one silently.
    "repeated-conditional": (KB, lambda doc: doc["conditionals"].append(dict(doc["conditionals"][0]))),
    "repeated-disutility": (UTILITIES, lambda doc: doc["disutility"].append(dict(doc["disutility"][0]))),
    # Ids print as TSV cells: these would forge an infer column and a report section.
    "disease-id-with-tab": (KB, lambda doc: doc.update(_renamed(doc, "fl", "fl\tx"))),
    "case-id-with-line-break": (CASES, lambda doc: doc[-1].update(id="c5\tall\n[significance]")),
    # A line break in a located key used to split the message over two lines.
    "line-break-in-probs-key": (KB, lambda doc: doc["conditionals"][0]["probs"].update({"x\nkb: OK": "bad"})),
    # str.splitlines() also breaks at NEL (U+0085), VT, FF, U+2028 and others.
    "next-line-in-probs-key": (KB, lambda doc: doc["conditionals"][0]["probs"].update({"x\x85kb: OK": "bad"})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_exits_2(name, tmp_path, capsys):
    """Mistyped containers, non-finite or overflowing numbers, disutilities
    above 1e6 micromorts, and ids that would break TSV are input errors at
    load time: one line on stderr, never a traceback or a false "OK"."""
    target, edit = MALFORMED[name]
    doc = json.loads(Path(target).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"DIGITS"', "9" * 5000))
    paths = {KB: KB, CASES: CASES, UTILITIES: UTILITIES, target: str(bad)}
    files = ["--kb", paths[KB], "--cases", paths[CASES], "--utilities", paths[UTILITIES]]
    for command in (["validate"], ["evaluate", "--iterations", "1000"]):
        assert main(command + files) == 2
        err = capsys.readouterr().err
        assert err.startswith("FileFormatError: ") and err.count("\n") == 1 and len(err.splitlines()) == 1


@pytest.mark.parametrize("option, kind", [("--kb", "knowledge base"), ("--cases", "cases"), ("--utilities", "utilities")])
def test_deep_nesting_exits_2(option, kind, tmp_path, capsys):
    """A file nested past the JSON parser's recursion limit is an input error
    naming the file kind, one line on stderr, not a RecursionError traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    paths = {"--kb": KB, "--cases": CASES, "--utilities": UTILITIES, option: str(deep)}
    files = [token for item in paths.items() for token in item]
    for command in (["validate"], ["evaluate", "--iterations", "1000"]):
        assert main(command + files) == 2
        assert capsys.readouterr().err == f"FileFormatError: {kind}: JSON nested too deeply to parse\n"


def _paths(doc, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
IDS = st.text("xy", min_size=1, max_size=3) | st.text("xy\t\n\r", min_size=1, max_size=3)
SECTIONS = [
    "[decision_theoretic]", "[gold_standards]", "[expert_ratings]", "[significance]", "[exclusions]",
]


# The autouse fixture only changes directory, which every example shares.
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_any_document_exits_0_2_or_3_with_well_formed_tsv(data):
    """Fixture documents with a renamed case, a renamed disease and, in
    half the examples, one drawn JSON value swapped in at a drawn path: ``evaluate`` and
    ``infer --case`` return 0, 2 or 3 and raise nothing, and TSV on
    success has the expected sections and as many fields per row as
    its header."""
    case_id, disease_id = data.draw(IDS), data.draw(IDS)
    docs = {}
    for path in (KB, CASES, UTILITIES):
        doc = json.loads(Path(path).read_text())
        docs[path] = _renamed(_renamed(doc, "c5", case_id), "va", disease_id)
    if data.draw(st.booleans()):
        target = data.draw(st.sampled_from(sorted(docs)))
        *parents, key = data.draw(st.sampled_from(list(_paths(docs[target]))))
        container = docs[target]
        for step in parents:
            container = container[step]
        container[key] = data.draw(JSON_VALUES)

    with tempfile.TemporaryDirectory() as tmp:
        files = {path: str(Path(tmp) / Path(path).name) for path in docs}
        for path, doc in docs.items():
            Path(files[path]).write_text(json.dumps(doc))
        out = Path(tmp) / "out.tsv"
        inputs = ["--kb", files[KB], "--cases", files[CASES]]
        with redirect_stderr(io.StringIO()):
            evaluate = main(["evaluate", *inputs, "--utilities", files[UTILITIES],
                             "--iterations", "1000", "--out", str(out)])
            evaluated = out.read_text() if evaluate == 0 else ""
            infer = main(["infer", *inputs, "--case", case_id, "--out", str(out)])
        assert evaluate in (0, 2, 3) and infer in (0, 2, 3)

        # A row always has a tab, so only a header line equals a section name.
        lines = evaluated.split("\n")[:-1]
        if evaluate == 0:
            assert [line for line in lines if line in SECTIONS] == SECTIONS
            for line in lines:
                if line in SECTIONS:
                    width = None
                elif width is None:
                    width = len(line.split("\t"))
                else:
                    assert len(line.split("\t")) == width, line
        if infer == 0:
            for line in out.read_text().split("\n")[:-1]:
                assert line.startswith("# ") or len(line.split("\t")) == 2, line


def test_one_line_escapes_every_line_break():
    """No code point survives as a line break, and CR and LF keep their
    ``\\r`` and ``\\n`` escapes byte for byte."""
    every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
    assert len(_one_line(every_code_point).splitlines()) == 1
    assert _one_line("a\r\nb\x0cc") == "a\\r\\nb\\x0cc"


class TestInferCommand:
    def test_golden_json_byte_for_byte(self, tmp_path, data_dir):
        """Every belief of case c1 printed in full, so a loaded knowledge base
        that read one entry off by a bit would show."""
        out = tmp_path / "infer.json"
        args = ["infer", "--kb", KB, "--cases", CASES, "--case", "c1", "--format", "json", "--out", str(out)]
        assert main(args) == 0
        assert out.read_bytes() == (data_dir / "golden_infer.json").read_bytes()

    def test_single_observation_all_methods_agree(self, tmp_path, capsys):
        kb_path, _ = write_probe_kb(tmp_path)
        assert main(["infer", "--kb", kb_path, "e1=present"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        blocks = [b for b in out.split("#") if b.strip()]
        assert len(blocks) == 3
        # identical distributions, sorted by descending belief
        for block in blocks:
            rows = [line.split("\t") for line in block.strip().splitlines()[1:]]
            assert [r[0] for r in rows] == ["h1", "h2", "h3"]
            assert [r[1] for r in rows] == ["0.500000", "0.375000", "0.125000"]

    def test_two_observation_odds_pre_norm_sum_printed(self, tmp_path, capsys):
        kb_path, _ = write_probe_kb(tmp_path)
        assert main([
            "infer", "--kb", kb_path, "--methods", "odds_likelihood", "e1=present", "e2=present",
        ]) == 0
        out = capsys.readouterr().out
        assert "pre_norm_sum=1.124487" in out

    def test_unknown_feature_exits_2_naming_it(self, tmp_path, capsys):
        kb_path, _ = write_probe_kb(tmp_path)
        assert main(["infer", "--kb", kb_path, "zz=present"]) == 2
        err = capsys.readouterr().err
        assert "UnknownObservation" in err and "zz" in err

    def test_inference_error_exits_3(self, capsys):
        # extensive necrosis has zero probability under every disease
        assert main(["infer", "--kb", KB, "necrosis=extensive"]) == 3
        assert "AllHypothesesRuledOut" in capsys.readouterr().err

    def test_case_lookup(self, capsys):
        assert main(["infer", "--kb", KB, "--cases", CASES, "--case", "c2", "--methods", "simple_bayes"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("hns\t")

    def test_line_break_in_a_case_violation_stays_on_one_line(self, tmp_path, capsys):
        doc = json.loads(Path(CASES).read_text())
        doc[0]["observations"].append({"feature": "q\ncases: OK", "value": "x"})
        bad = tmp_path / "cases.json"
        bad.write_text(json.dumps(doc))
        assert main(["infer", "--kb", KB, "--cases", str(bad), "--case", "c1"]) == 2
        err = capsys.readouterr().err
        assert err == "ValidationError: case 'c1'.observations[4]: unknown feature 'q\\ncases: OK'\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--cases", CASES, "--case", "c1", "necrosis=absent"], "give either --case or inline observations, not both"),
            (["--case", "c1"], "--case requires --cases"),
        ],
        ids=["case-and-observations", "case-without-cases"],
    )
    def test_case_option_misuse_exits_2(self, capsys, args, message):
        assert main(["infer", "--kb", KB, *args]) == 2
        assert capsys.readouterr().err == f"ValueError: {message}\n"

    def test_missing_case_id(self, capsys):
        assert main(["infer", "--kb", KB, "--cases", CASES, "--case", "zz"]) == 2
        assert "zz" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        kb_path, _ = write_probe_kb(tmp_path)
        assert main(["infer", "--kb", kb_path, "--format", "json", "e1=present"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["method"] for entry in doc] == [
            "simple_bayes", "odds_likelihood", "naive_dempster_shafer",
        ]
        assert doc[0]["beliefs"] == pytest.approx({"h1": 0.5, "h2": 0.375, "h3": 0.125}, abs=1e-12)
        assert list(doc[0]["beliefs"]) == ["h1", "h2", "h3"]  # descending belief

    def test_malformed_observation_token(self, tmp_path, capsys):
        kb_path, _ = write_probe_kb(tmp_path)
        assert main(["infer", "--kb", kb_path, "e1present"]) == 2
        assert "FEATURE=VALUE" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["infer", "--kb", "no/such/file.json", "a=b"]) == 2


class TestEvaluateCommand:
    def test_golden_tsv_byte_for_byte(self, tmp_path, data_dir):
        out = tmp_path / "report.tsv"
        assert main(EVALUATE + ["--out", str(out)]) == 0
        assert out.read_bytes() == (data_dir / "golden_report.tsv").read_bytes()

    def test_golden_json_byte_for_byte(self, tmp_path, data_dir):
        out = tmp_path / "report.json"
        assert main(EVALUATE + ["--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == (data_dir / "golden_report.json").read_bytes()

    def test_report_shape(self, capsys):
        assert main(EVALUATE) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        for label in (
            "Informed gold standard",
            "Simple Bayes-MEU",
            "Simple Bayes",
            "Odds-likelihood",
            "Naive Dempster-Shafer",
            "Descriptive Gold Standard",
            "Informed Gold Standard",
        ):
            assert f"\n{label}\t" in out
        assert "c5\tsimple_bayes: AllHypothesesRuledOut" in out

    def test_seed_env_fallback_matches_flag(self, tmp_path, monkeypatch, data_dir):
        monkeypatch.setenv("UNCERTAIN_DX_SEED", "7")
        out = tmp_path / "env.tsv"
        args = [a for a in EVALUATE if a not in ("--seed", "7")]
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == (data_dir / "golden_report.tsv").read_bytes()

    def test_bad_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv("UNCERTAIN_DX_SEED", "many")
        args = [a for a in EVALUATE if a not in ("--seed", "7")]
        assert main(args) == 2
        assert "UNCERTAIN_DX_SEED" in capsys.readouterr().err

    def test_missing_gold_exits_2(self, tmp_path, capsys):
        doc = json.loads(Path(CASES).read_text())
        for case in doc:
            case.pop("gold_informed", None)
        cases = tmp_path / "cases.json"
        cases.write_text(json.dumps(doc))
        rc = main([
            "evaluate", "--kb", KB, "--cases", str(cases), "--utilities", UTILITIES,
            "--gold", "informed", "--seed", "1", "--iterations", "1000",
        ])
        assert rc == 2
        assert "MissingGoldStandard" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, capsys):
        assert main(EVALUATE + ["--methods", "tea_leaves"]) == 2

    def test_default_iterations_match_the_fsum_reference(self, monkeypatch, capsys):
        """Every golden runs 2,000 iterations; at the default 10,000 the report is the
        one that a ``math.fsum`` per iteration gives, byte for byte."""
        args = EVALUATE[: EVALUATE.index("--iterations")]
        assert main(args) == 0
        report = capsys.readouterr().out
        assert "\tmonte_carlo_permutation\t" in report and "\t7\t10000\n" in report
        monkeypatch.setattr(evaluation, "permutation_test", reference_permutation_test)
        assert main(args) == 0
        assert capsys.readouterr().out == report

    def test_iterations_above_the_cap_exit_2_before_the_draw(self, monkeypatch, capsys):
        monkeypatch.setattr(evaluation, "_flip_patterns", never_called)
        args = EVALUATE[: EVALUATE.index("--iterations")]
        assert main(args + ["--iterations", str(evaluation.MAX_ITERATIONS + 1)]) == 2
        assert capsys.readouterr() == ("", "ValueError: iterations must be at most 1000000, got 1000001\n")

    def test_help_lists_the_golden_report_columns(self, monkeypatch, capsys, data_dir):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        lines = (data_dir / "golden_report.tsv").read_text().splitlines()
        sections = [(line, lines[i + 1]) for i, line in enumerate(lines) if line.startswith("[")]
        assert len(sections) == 5
        for name, header in sections:
            columns = ", ".join(header.split("\t"))
            assert f"{name} ({columns})" in help_text


class TestProbeCommand:
    def test_row_count(self, capsys):
        assert main(["probe", "--likelihoods", "0.8,0.6,0.2", "--n-max", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 450

    def test_golden_probe_byte_for_byte(self, capsys, data_dir):
        """Every belief of every calculus at every step of a 100-token, five-hypothesis
        trajectory, printed to six decimals, as the golden file holds it."""
        assert main(["probe", "--likelihoods", "0.8,0.6,0.5,0.3,0.2", "--n-max", "100"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.encode() == (data_dir / "golden_probe.tsv").read_bytes()

    def test_golden_probe_builds_no_per_step_object(self, monkeypatch, capsys, data_dir):
        """The probe prints each step's beliefs straight from its rows: the golden
        command wraps no row in a distribution and builds no ``ProbePoint``, where
        ``convergence_probe`` on its spec builds 300 and 100."""
        built = Counter()

        def counting(name, build):
            def counted(*args, **kwargs):
                built[name] += 1
                return build(*args, **kwargs)

            return counted

        distribution = counting("distribution", engine._distribution)
        for module in (engine, synth):
            monkeypatch.setattr(module, "_distribution", distribution, raising=False)
        monkeypatch.setattr(synth, "ProbePoint", counting("point", synth.ProbePoint))
        assert main(["probe", "--likelihoods", "0.8,0.6,0.5,0.3,0.2", "--n-max", "100"]) == 0
        assert capsys.readouterr().out.encode() == (data_dir / "golden_probe.tsv").read_bytes()
        assert (built["distribution"], built["point"]) == (0, 0)
        synth.convergence_probe(synth.ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.5, 0.3, 0.2), n=100))
        assert (built["distribution"], built["point"]) == (300, 100)

    def test_out_of_memory_exits_2_with_one_stderr_line(self, monkeypatch, capsys):
        """``str(MemoryError())`` is empty, so the line carries a fixed message."""

        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(synth, "probe_tsv", exhausted)
        assert main(["probe", "--likelihoods", "0.8,0.2", "--n-max", "2"]) == 2
        assert capsys.readouterr() == ("", "MemoryError: the command ran out of memory\n")

    def test_uniform_likelihoods_leave_priors(self, capsys):
        assert main(["probe", "--likelihoods", "0.5,0.5", "--n-max", "3"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert all(row[3] == "0.500000" for row in rows)

    def test_n_max_zero_exits_2(self, capsys):
        assert main(["probe", "--likelihoods", "0.8,0.6,0.2", "--n-max", "0"]) == 2
        assert capsys.readouterr().err == "ValueError: n must be at least 1, got 0\n"

    def test_n_max_above_the_cap_exits_2_before_any_kb(self, monkeypatch, capsys):
        monkeypatch.setattr(synth, "replicate_evidence_kb", never_called)
        assert main(["probe", "--likelihoods", "0.8,0.2", "--n-max", str(synth.MAX_COPIES + 1)]) == 2
        assert capsys.readouterr() == ("", "ValueError: n must be at most 100000, got 100001\n")

    def test_bad_priors_exit_2(self, capsys):
        assert main(["probe", "--likelihoods", "0.8,0.2", "--priors", "0.9,0.2", "--n-max", "2"]) == 2

    @pytest.mark.parametrize("priors", ["1.0000000005,0.0000000001", "nan,nan"])
    def test_priors_outside_unit_interval_exit_2(self, priors, capsys):
        assert main(["probe", "--likelihoods", "0.5,0.4", "--priors", priors, "--n-max", "2"]) == 2
        assert capsys.readouterr().err == "ValueError: priors must be positive and at most 1\n"

    def test_malformed_likelihoods_exit_2(self, capsys):
        assert main(["probe", "--likelihoods", "0.8;0.2", "--n-max", "2"]) == 2

    def test_no_negative_zero_printed(self, tmp_path, capsys):
        """A hypothesis no observation evokes prints belief 0, not -0, in the
        probe's TSV and in ``infer``'s TSV and JSON."""
        assert main(["probe", "--likelihoods", "1,0", "--n-max", "2"]) == 0
        probe = capsys.readouterr().out
        assert "naive_dempster_shafer\th2\t0.000000" in probe
        from uncertain_dx.kb import serialize_kb
        from uncertain_dx.synth import ReplicatedEvidenceSpec, replicate_evidence_kb

        kb, _ = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform((1.0, 0.0), n=2))
        path = tmp_path / "kb.json"
        path.write_bytes(serialize_kb(kb))
        outputs = [probe]
        for fmt in ("tsv", "json"):
            assert main(["infer", "--kb", str(path), "--format", fmt, "e1=present", "e2=present"]) == 0
            outputs.append(capsys.readouterr().out)
        assert json.loads(outputs[-1])[2]["beliefs"]["h2"] == 0.0
        assert all("-0" not in out for out in outputs)

    def test_out_file_gets_trailing_newline(self, tmp_path):
        out = tmp_path / "probe.tsv"
        assert main(["probe", "--likelihoods", "0.8,0.6,0.2", "--n-max", "2", "--out", str(out)]) == 0
        assert out.read_bytes().endswith(b"\n")


class TestPlainCommandLines:
    """``main`` reads a plain command line without argparse's walk; every
    command line must still parse, or fail, exactly as argparse has it."""

    FLAGS = {
        "validate": ["--kb", "--cases", "--utilities"],
        "infer": ["--kb", "--cases", "--case", "--methods", "--format", "--out"],
        "evaluate": [
            "--kb", "--cases", "--utilities", "--methods", "--gold", "--seed", "--iterations", "--format", "--out",
        ],
        "probe": ["--likelihoods", "--priors", "--n-max", "--out"],
    }
    REQUIRED = {"validate": ["--kb"], "infer": ["--kb"], "evaluate": ["--kb", "--cases", "--utilities"],
                "probe": ["--likelihoods", "--n-max"]}
    GOOD = {
        "--format": ["tsv", "json"], "--gold": ["informed", "descriptive"],
        "--seed": ["7", "0", "+3", "1_000", " 7"], "--iterations": ["2000", "1000"],
        "--n-max": ["3", "100"], "--likelihoods": ["0.8,0.2"],
    }
    # Values argparse reads in some other way: bad choices and ints, values
    # that start with "-", empty strings and bare option-like tokens.
    ODD = ["", "xml", "many", "-5", "-x", "--", "-h", "--kb", "f=v", "a b", "-1.5"]
    POSITIONALS = ["f=v", "necrosis=focal", "", "x", "-x", "-5", " 7"]
    EXTRAS = ["-h", "--help", "--", "-x", "--kb=k.json"]

    def random_argv(self, rng: random.Random, command: str) -> list[str]:
        flags, required = self.FLAGS[command], self.REQUIRED[command]
        chosen = required + [f for f in flags if f not in required and rng.random() < 0.4]
        if rng.random() < 0.15:
            chosen.remove(rng.choice(chosen))  # may drop a required option
        if chosen and rng.random() < 0.1:
            chosen.append(rng.choice(chosen))  # a repeated option
        rng.shuffle(chosen)
        chunks = []
        for flag in chosen:
            value = rng.choice(self.GOOD.get(flag, ["p.json", "c1"]) if rng.random() < 0.9 else self.ODD)
            form = rng.random()
            if form < 0.03:
                chunks.append([f"{flag}={value}"])
            elif form < 0.06:
                chunks.append([flag[: rng.randint(3, len(flag) - 1)], value])  # abbreviated, maybe ambiguously
            elif form < 0.08:
                chunks.append([flag])  # no value
            else:
                chunks.append([flag, value])
        if rng.random() < (0.5 if command == "infer" else 0.1):
            run = [rng.choice(self.POSITIONALS) for _ in range(rng.randint(1, 3))]
            cuts = sorted(rng.sample(range(len(chunks) + 1), min(len(chunks) + 1, rng.choice([1, 1, 1, 2]))))
            pieces = [run] if len(cuts) == 1 or len(run) == 1 else [run[:1], run[1:]]  # one run, or split
            for cut, piece in reversed(list(zip(cuts, pieces))):
                chunks.insert(cut, piece)
        if rng.random() < 0.05:
            chunks.insert(rng.randint(0, len(chunks)), [rng.choice(self.EXTRAS)])
        argv = [command] + [token for chunk in chunks for token in chunk]
        if rng.random() < 0.03:
            argv = argv[1:] + argv[:1] if rng.random() < 0.5 else [command[:3]] + argv[1:]
        return argv

    @staticmethod
    def outcome(parse, argv):
        """What ``parse(argv)`` returns, or its exit code with what it printed."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return parse(argv)
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("command", ["validate", "infer", "evaluate", "probe"])
    def test_matches_argparse_on_random_command_lines(self, command, monkeypatch):
        ran = []
        for name in self.FLAGS:
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args: ran.append(args) or 0)
        rng = random.Random(f"argv:{command}")
        plain = 0
        for _ in range(5000):
            argv = self.random_argv(rng, command)
            expected = self.outcome(build_parser().parse_args, argv)
            fast = _plain_args(argv)
            if fast is not None:
                plain += 1
                assert fast == expected, argv
            ran.clear()
            got = self.outcome(main, argv)
            assert (ran[0] if got == 0 else got) == expected, argv
        assert 1000 < plain < 4500

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "-h"],
            ["validate", "--kb=k.json"],
            ["validate", "--k", "k.json"],
            ["validate", "--kb", "a.json", "--kb", "b.json"],
            ["probe", "--likelihoods", "-0.5", "--n-max", "3"],
            ["infer", "--kb", "k.json", "--format", "xml"],
            ["probe", "--likelihoods", "0.5", "--n-max", "three"],
            ["evaluate", "--kb", "k.json", "--cases", "c.json"],
            ["infer", "a=1", "--kb", "k.json", "b=2"],
            ["validate", "--kb", "k.json", "a=1"],
            ["infer", "--kb", "k.json", "--", "a=1"],
            [],
        ],
    )
    def test_other_command_lines_are_left_to_argparse(self, argv):
        assert _plain_args(argv) is None

    def test_every_argument_is_one_the_plain_path_reads(self):
        """``_plain_args`` reads single-value stores (none with a string default
        that a ``type`` would convert) and one untyped ``nargs="*"`` positional;
        another kind of argument needs it extended first."""
        (commands,) = (a.choices for a in build_parser()._actions if a.dest == "command")
        assert sorted(commands) == sorted(self.FLAGS)
        for name, sub in commands.items():
            actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            positionals = [a for a in actions if not a.option_strings]
            assert sorted(f for a in actions for f in a.option_strings) == sorted(self.FLAGS[name])
            assert all(type(a) is argparse._StoreAction and a.const is None for a in actions), name
            options = [a for a in actions if a.option_strings]
            assert all(a.nargs is None and not (a.type and isinstance(a.default, str)) for a in options), name
            assert [(a.nargs, a.type, a.choices, a.default) for a in positionals] in ([], [("*", None, None, None)])
            assert [a.default for a in sub._actions if a.default is argparse.SUPPRESS] == [argparse.SUPPRESS]

    def test_benchmark_ci_and_golden_command_lines_are_plain(self, tmp_path, monkeypatch, data_dir):
        """Only the workflow's deliberate ``--opt=value`` line goes through argparse."""
        root = data_dir.parent.parent
        monkeypatch.syspath_prepend(str(root / "bench"))
        import workloads

        plans = [plan(1, True, tmp_path / name) for name, plan in workloads.WORKLOADS.items()]
        argvs = [command.argv for p in plans for command in p.commands + p.extra]
        argvs += [
            EVALUATE, EVALUATE + ["--format", "json"],
            ["infer", "--kb", KB, "--cases", CASES, "--case", "c1", "--format", "json"],
            ["probe", "--likelihoods", "0.8,0.6,0.5,0.3,0.2", "--n-max", "100"],
        ]
        for argv in argvs:
            assert _plain_args(argv) == build_parser().parse_args(argv), argv
        workflow = (root / ".github/workflows/tests.yml").read_text()
        fixture = shlex.split(workflow.split('fixture="')[1].split('"')[0])
        # Each console-script line up to its redirection of stdout (">") or stderr ("2>").
        ci = [
            shlex.split(re.split(r"\s2?>", line.split("uncertain-dx ", 1)[1])[0].replace("$fixture", " ".join(fixture)))
            for line in workflow.replace("\\\n", " ").splitlines()
            if "uncertain-dx " in line and ">" in line
        ]
        assert len(ci) >= 9
        for argv in ci:
            assert self.outcome(build_parser().parse_args, argv).command in ("validate", "evaluate", "infer", "probe")
        fallback = [argv for argv in ci if _plain_args(argv) is None]
        assert len(fallback) == 1 and fallback[0][1].startswith("--kb="), fallback
