"""Command-line behavior: exit codes, output shapes, golden reports."""

from __future__ import annotations

import json

import pytest

from uncertain_dx.cli import main

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
        doc = json.loads(open(KB).read())
        doc["diseases"][0]["prior"] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--kb", str(bad)]) == 2
        assert "priors must sum to 1" in capsys.readouterr().out


def _set_first_prior(value):
    def edit(doc):
        doc["diseases"][0]["prior"] = value
    return edit


MALFORMED = {
    "nan-prior": (KB, _set_first_prior(float("nan"))),
    "overflowing-prior": (KB, _set_first_prior(10**400)),
    # Placeholder for an integer literal longer than json.dumps will write.
    "prior-beyond-int-digit-limit": (KB, _set_first_prior("DIGITS")),
    "disease-not-an-object": (KB, lambda doc: doc.update(diseases=["id"])),
    "diseases-not-an-array": (KB, lambda doc: doc.update(diseases=5)),
    "observations-not-an-array": (CASES, lambda doc: doc[0].update(observations=5)),
    "disutility-entry-not-an-object": (UTILITIES, lambda doc: doc.update(disutility=[1])),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_exits_2(name, tmp_path, capsys):
    """Mistyped containers and non-finite or overflowing numbers are
    input errors at load time, never a traceback or a false "OK"."""
    target, edit = MALFORMED[name]
    doc = json.loads(open(target).read())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"DIGITS"', "9" * 5000))
    paths = {KB: KB, CASES: CASES, UTILITIES: UTILITIES, target: str(bad)}
    assert main(["validate", "--kb", paths[KB], "--cases", paths[CASES], "--utilities", paths[UTILITIES]]) == 2
    assert "FileFormatError" in capsys.readouterr().err


class TestInferCommand:
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
        doc = json.loads(open(CASES).read())
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


class TestProbeCommand:
    def test_row_count(self, capsys):
        assert main(["probe", "--likelihoods", "0.8,0.6,0.2", "--n-max", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 450

    def test_uniform_likelihoods_leave_priors(self, capsys):
        assert main(["probe", "--likelihoods", "0.5,0.5", "--n-max", "3"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert all(row[3] == "0.500000" for row in rows)

    def test_n_max_zero_exits_2(self, capsys):
        assert main(["probe", "--likelihoods", "0.8,0.6,0.2", "--n-max", "0"]) == 2

    def test_bad_priors_exit_2(self, capsys):
        assert main(["probe", "--likelihoods", "0.8,0.2", "--priors", "0.9,0.2", "--n-max", "2"]) == 2

    def test_malformed_likelihoods_exit_2(self, capsys):
        assert main(["probe", "--likelihoods", "0.8;0.2", "--n-max", "2"]) == 2

    def test_out_file_gets_trailing_newline(self, tmp_path):
        out = tmp_path / "probe.tsv"
        assert main(["probe", "--likelihoods", "0.8,0.6,0.2", "--n-max", "2", "--out", str(out)]) == 0
        assert out.read_bytes().endswith(b"\n")
