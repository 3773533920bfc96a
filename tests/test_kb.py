"""Knowledge-base types, validation, file round-trips, feature clustering."""

from __future__ import annotations

import json
import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import fault_ids, knowledge_bases, reference_table_violations, with_fault
from uncertain_dx.errors import AllHypothesesRuledOut, FileFormatError, ValidationError
from uncertain_dx.kb import (
    BeliefDistribution,
    ConditionalTable,
    Disease,
    Feature,
    KnowledgeBase,
    _table_violations,
    cross_product_feature,
    load_cases,
    load_kb,
    serialize_kb,
    validate_kb,
)

MINIMAL_KB = {
    "diseases": [
        {"id": "d1", "name": "first", "prior": 0.5, "class": "c1"},
        {"id": "d2", "name": "second", "prior": 0.5, "class": "c2"},
    ],
    "features": [{"id": "f1", "name": "token", "values": ["v1", "v2"]}],
    "conditionals": [
        {"feature": "f1", "disease": "d1", "probs": {"v1": 0.8, "v2": 0.2}},
        {"feature": "f1", "disease": "d2", "probs": {"v1": 0.2, "v2": 0.8}},
    ],
}


def kb_bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def build_kb(priors, rows, values=("v1", "v2")) -> KnowledgeBase:
    """Direct construction helper; the knowledge base validates itself."""
    diseases = tuple(
        Disease(id=f"d{i}", name=f"d{i}", prior=p, equivalence_class="c") for i, p in enumerate(priors)
    )
    entries = {}
    for i, row in enumerate(rows):
        for v, p in zip(values, row):
            entries[("f1", v, f"d{i}")] = p
    return KnowledgeBase(
        diseases=diseases,
        features=(Feature(id="f1", name="f1", values=tuple(values)),),
        conditionals=ConditionalTable(entries),
    )


class TestLoadKb:
    def test_minimal_two_disease_file(self):
        kb = load_kb(kb_bytes(MINIMAL_KB))
        assert len(kb.diseases) == 2
        assert len(kb.features) == 1
        assert kb.conditionals.prob("f1", "v1", "d1") == 0.8

    def test_priors_not_summing_to_one_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_KB))
        doc["diseases"][0]["prior"] = 0.4
        with pytest.raises(ValidationError, match="priors must sum to 1"):
            load_kb(kb_bytes(doc))

    def test_parse_error_reports_location(self):
        with pytest.raises(FileFormatError, match="line"):
            load_kb(b'{"diseases": [,]}')

    def test_invalid_utf8_reports_the_decoder_error(self):
        with pytest.raises(FileFormatError) as info:
            load_kb(b'{"diseases": "\xff"}')
        assert str(info.value) == (
            "knowledge base: not valid UTF-8 "
            "('utf-8' codec can't decode byte 0xff in position 14: invalid start byte)"
        )

    def test_missing_key_reports_field(self):
        doc = json.loads(json.dumps(MINIMAL_KB))
        del doc["diseases"][1]["prior"]
        with pytest.raises(FileFormatError, match=r"diseases\[1\].*'prior'"):
            load_kb(kb_bytes(doc))

    def test_repeated_conditional_entry_rejected(self):
        """A later entry for the same (feature, value, disease) used to win
        silently: p(v1 | d1) loaded as 0.9 after an earlier 0.5."""
        doc = json.loads(json.dumps(MINIMAL_KB))
        doc["conditionals"][0]["probs"] = {"v1": 0.5}
        doc["conditionals"].append({"feature": "f1", "disease": "d1", "probs": {"v1": 0.9, "v2": 0.1}})
        with pytest.raises(FileFormatError, match=r"^conditionals\[2\]: repeats entry \('f1', 'v1', 'd1'\)$"):
            load_kb(kb_bytes(doc))

    def test_repeat_is_reported_before_a_later_fault(self):
        """A repeated entry raises where it would be stored, so a fault in a
        later entry (here a mistyped probability) is never reached."""
        doc = json.loads(json.dumps(MINIMAL_KB))
        doc["conditionals"].insert(1, dict(doc["conditionals"][0]))
        doc["conditionals"][2]["probs"] = {"v1": "x", "v2": 0.8}
        with pytest.raises(FileFormatError, match=r"^conditionals\[1\]: repeats entry \('f1', 'v1', 'd1'\)$"):
            load_kb(kb_bytes(doc))

    def test_row_split_over_entries_accepted(self):
        doc = json.loads(json.dumps(MINIMAL_KB))
        doc["conditionals"][0]["probs"] = {"v1": 0.8}
        doc["conditionals"].append({"feature": "f1", "disease": "d1", "probs": {"v2": 0.2}})
        assert load_kb(kb_bytes(doc)).conditionals == load_kb(kb_bytes(MINIMAL_KB)).conditionals

    def test_accepts_file_object(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_bytes(kb_bytes(MINIMAL_KB))
        with open(path, "rb") as fh:
            assert len(load_kb(fh).diseases) == 2


# One document per field with the key missing and one with its value mistyped
# (set to true), each with the message the loaders gave before every field went
# through ``kb._field``.  Optional case fields and array elements have no
# missing-key document.
KB_FIELD_FAULTS = [
    ((), "mistyped", "knowledge base: expected an object"),
    (("diseases",), "missing", "knowledge base: missing key 'diseases'"),
    (("diseases",), "mistyped", "diseases: expected an array"),
    (("diseases", 0), "mistyped", "diseases[0]: expected an object"),
    (("diseases", 0, "id"), "missing", "diseases[0]: missing key 'id'"),
    (("diseases", 0, "id"), "mistyped", "diseases[0].id: expected a string, got True"),
    (("diseases", 0, "name"), "missing", "diseases[0]: missing key 'name'"),
    (("diseases", 0, "name"), "mistyped", "diseases[0].name: expected a string, got True"),
    (("diseases", 0, "prior"), "missing", "diseases[0]: missing key 'prior'"),
    (("diseases", 0, "prior"), "mistyped", "diseases[0].prior: expected a number, got True"),
    (("diseases", 0, "class"), "missing", "diseases[0]: missing key 'class'"),
    (("diseases", 0, "class"), "mistyped", "diseases[0].class: expected a string, got True"),
    (("features",), "missing", "knowledge base: missing key 'features'"),
    (("features",), "mistyped", "features: expected an array"),
    (("features", 0), "mistyped", "features[0]: expected an object"),
    (("features", 0, "id"), "missing", "features[0]: missing key 'id'"),
    (("features", 0, "id"), "mistyped", "features[0].id: expected a string, got True"),
    (("features", 0, "name"), "missing", "features[0]: missing key 'name'"),
    (("features", 0, "name"), "mistyped", "features[0].name: expected a string, got True"),
    (("features", 0, "values"), "missing", "features[0]: missing key 'values'"),
    (("features", 0, "values"), "mistyped", "features[0].values: expected an array"),
    (("features", 0, "values", 0), "mistyped", "features[0].values[0]: expected a string, got True"),
    (("conditionals",), "missing", "knowledge base: missing key 'conditionals'"),
    (("conditionals",), "mistyped", "conditionals: expected an array"),
    (("conditionals", 0), "mistyped", "conditionals[0]: expected an object"),
    (("conditionals", 0, "feature"), "missing", "conditionals[0]: missing key 'feature'"),
    (("conditionals", 0, "feature"), "mistyped", "conditionals[0].feature: expected a string, got True"),
    (("conditionals", 0, "disease"), "missing", "conditionals[0]: missing key 'disease'"),
    (("conditionals", 0, "disease"), "mistyped", "conditionals[0].disease: expected a string, got True"),
    (("conditionals", 0, "probs"), "missing", "conditionals[0]: missing key 'probs'"),
    (("conditionals", 0, "probs"), "mistyped", "conditionals[0].probs: expected an object"),
    (("conditionals", 0, "probs", "v1"), "mistyped", "conditionals[0].probs['v1']: expected a number, got True"),
]
# Numbers written into the JSON text in place of p(v1 | d1) = 0.8.  A row whose
# values are all finite floats is read without ``_number``; these go through it.
PROBS_NUMBER_FAULTS = [
    ("NaN", "conditionals[0].probs['v1']: expected a finite number, got nan"),
    ("Infinity", "conditionals[0].probs['v1']: expected a finite number, got inf"),
    ("1e400", "conditionals[0].probs['v1']: expected a finite number, got inf"),
    ("-Infinity", "conditionals[0].probs['v1']: expected a finite number, got -inf"),
    ("1" + "0" * 400, "conditionals[0].probs['v1']: number too large for a float"),
]
CASE_FILE = [
    {
        "id": "x1",
        "observations": [{"feature": "necrosis", "value": "focal"}],
        "true_diagnosis": "va",
        "gold_descriptive": {"va": 1.0},
        "gold_informed": {"va": 1.0},
        "expert_ratings": {"simple_bayes": 8},
    }
]
CASE_FIELD_FAULTS = [
    ((), "mistyped", "cases: expected an array"),
    ((0,), "mistyped", "cases[0]: expected an object"),
    ((0, "id"), "missing", "cases[0]: missing key 'id'"),
    ((0, "id"), "mistyped", "cases[0].id: expected a string, got True"),
    ((0, "observations"), "missing", "case 'x1': missing key 'observations'"),
    ((0, "observations"), "mistyped", "case 'x1'.observations: expected an array"),
    ((0, "observations", 0), "mistyped", "case 'x1'.observations[0]: expected an object"),
    ((0, "observations", 0, "feature"), "missing", "case 'x1'.observations[0]: missing key 'feature'"),
    ((0, "observations", 0, "feature"), "mistyped", "case 'x1'.observations[0].feature: expected a string, got True"),
    ((0, "observations", 0, "value"), "missing", "case 'x1'.observations[0]: missing key 'value'"),
    ((0, "observations", 0, "value"), "mistyped", "case 'x1'.observations[0].value: expected a string, got True"),
    ((0, "true_diagnosis"), "mistyped", "case 'x1'.true_diagnosis: expected a string, got True"),
    (
        (0, "gold_descriptive"),
        "mistyped",
        "case 'x1'.gold_descriptive: expected an object mapping disease to probability",
    ),
    ((0, "gold_informed", "va"), "mistyped", "case 'x1'.gold_informed['va']: expected a number, got True"),
    ((0, "expert_ratings"), "mistyped", "case 'x1'.expert_ratings: expected an object"),
    (
        (0, "expert_ratings", "simple_bayes"),
        "mistyped",
        "case 'x1'.expert_ratings['simple_bayes']: expected a number, got True",
    ),
]


@pytest.mark.parametrize("path, fault, message", KB_FIELD_FAULTS, ids=fault_ids(KB_FIELD_FAULTS))
def test_kb_field_fault_message(path, fault, message):
    with pytest.raises(FileFormatError) as info:
        load_kb(kb_bytes(with_fault(MINIMAL_KB, path, fault)))
    assert str(info.value) == message


def kb_bytes_with_v1(literal: str) -> bytes:
    text = json.dumps(MINIMAL_KB)
    assert text.count('"v1": 0.8') == 1
    return text.replace('"v1": 0.8', f'"v1": {literal}').encode("utf-8")


@pytest.mark.parametrize(
    "literal, message", PROBS_NUMBER_FAULTS, ids=["nan", "inf", "1e400", "-inf", "401-digits"]
)
def test_kb_probs_number_fault_message(literal, message):
    with pytest.raises(FileFormatError) as info:
        load_kb(kb_bytes_with_v1(literal))
    assert str(info.value) == message


@pytest.mark.parametrize("literal, total", [("1", "1.2"), ("-0.0", "0.2")], ids=["integer", "negative-zero"])
def test_kb_probs_number_read_as_an_entry(literal, total):
    """An integer and -0.0 are entries: only the row sum rejects them."""
    with pytest.raises(ValidationError) as raised:
        load_kb(kb_bytes_with_v1(literal))
    assert raised.value.violations == [f"conditional row (f1, d1): sums to {total}, expected 1"]


def test_kb_probs_integers_are_stored_as_floats():
    doc = json.loads(json.dumps(MINIMAL_KB))
    doc["conditionals"][0]["probs"] = {"v1": 1, "v2": 0}
    entries = load_kb(kb_bytes(doc)).conditionals.entries
    assert [type(entries[("f1", v, "d1")]) for v in ("v1", "v2")] == [float, float]
    assert [entries[("f1", v, "d1")] for v in ("v1", "v2")] == [1.0, 0.0]


@pytest.mark.parametrize("path, fault, message", CASE_FIELD_FAULTS, ids=fault_ids(CASE_FIELD_FAULTS))
def test_case_field_fault_message(path, fault, message, fixture_kb):
    with pytest.raises(FileFormatError) as info:
        load_cases(kb_bytes(with_fault(CASE_FILE, path, fault)), fixture_kb)
    assert str(info.value) == message


_TABLE_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, -0.1, math.nan, math.inf, -math.inf, 1e308, -1e308])


@st.composite
def tables(draw):
    """(features, disease ids, entries) for ``_table_violations``: rows that sum
    to 1, then some entries deleted or changed and some added.  In about half
    the tables feature, value and disease ids may repeat, and added entries
    can name unknown ones."""
    pick = st.sampled_from
    ids = partial(st.lists, min_size=1, max_size=3, unique=not draw(st.booleans()))
    features = tuple(
        Feature(id=feature_id, name="", values=tuple(draw(ids(pick(["a", "b", "c"])))))
        for feature_id in draw(ids(pick(["f0", "f1", "f2"])))
    )
    disease_ids = draw(ids(pick(["d0", "d1", "d2"])))
    entries = {}
    for f in features:
        for dis in disease_ids:
            weights = draw(st.lists(st.integers(1, 4), min_size=len(f.values), max_size=len(f.values)))
            for value, w in zip(f.values, weights):
                entries[(f.id, value, dis)] = w / sum(weights)
    for key in draw(st.lists(pick(sorted(entries)), max_size=3, unique=True)):
        if draw(st.booleans()):
            del entries[key]
        else:
            entries[key] = draw(_TABLE_VALUES)
    for _ in range(draw(st.integers(0, 2))):
        key = (draw(pick(["f0", "f1", "f3"])), draw(pick(["a", "b", "d"])), draw(pick(["d0", "d1", "d3"])))
        entries[key] = draw(_TABLE_VALUES | st.floats(0.0, 1.0))
    return features, disease_ids, entries


class TestValidateKb:
    def test_valid_kb_has_no_violations(self):
        kb = build_kb([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        assert validate_kb(kb) == []

    def test_row_sum_violation_names_the_pair(self):
        with pytest.raises(ValidationError) as raised:
            build_kb([0.5, 0.5], [[0.75, 0.2], [0.2, 0.8]])
        violations = raised.value.violations
        assert len(violations) == 1
        assert "f1" in violations[0] and "d0" in violations[0]

    def test_duplicate_disease_id(self):
        kb = build_kb([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        with pytest.raises(ValidationError) as raised:
            KnowledgeBase(
                diseases=(kb.diseases[0], kb.diseases[0]),
                features=kb.features,
                conditionals=kb.conditionals,
            )
        assert any("duplicate id" in v for v in raised.value.violations)

    def test_zero_prior_rejected(self):
        with pytest.raises(ValidationError) as raised:
            build_kb([1.0, 0.0], [[0.8, 0.2], [0.2, 0.8]])
        assert any("strictly positive" in v for v in raised.value.violations)

    def test_nan_prior_rejected(self):
        with pytest.raises(ValidationError) as raised:
            build_kb([math.nan, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        assert "disease 'd0': prior must be strictly positive" in raised.value.violations
        assert "disease priors must sum to 1 (got nan)" in raised.value.violations

    def test_opposite_infinities_rejected(self):
        """math.fsum raises on inf + -inf; the sums read as nan instead."""
        with pytest.raises(ValidationError) as raised:
            build_kb([math.inf, -math.inf], [[math.inf, -math.inf], [0.2, 0.8]])
        assert raised.value.violations == [
            "disease 'd0': prior inf exceeds 1",
            "disease 'd1': prior must be strictly positive",
            "disease priors must sum to 1 (got nan)",
            "conditional (f1, v1, d0): probability inf outside [0, 1]",
            "conditional (f1, v2, d0): probability -inf outside [0, 1]",
        ]

    def test_single_valued_feature_rejected(self):
        with pytest.raises(ValidationError) as raised:
            build_kb([0.5, 0.5], [[1.0], [1.0]], values=("v1",))
        assert any("at least 2 values" in v for v in raised.value.violations)

    def test_missing_conditional_entry(self):
        kb = build_kb([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        entries = dict(kb.conditionals.entries)
        del entries[("f1", "v1", "d1")]
        with pytest.raises(ValidationError) as raised:
            KnowledgeBase(kb.diseases, kb.features, ConditionalTable(entries))
        assert any("missing value entries" in v for v in raised.value.violations)

    @pytest.mark.parametrize(
        "edit, violations",
        [
            (lambda doc: doc["features"].append(dict(doc["features"][0])), ["feature 'f1': duplicate id"]),
            (lambda doc: doc["features"][0].update(values=["v1", "v2", "v1"]), ["feature 'f1': duplicate value ids"]),
            (
                lambda doc: doc["conditionals"][0]["probs"].update(v3=0.0),
                ["conditional (f1, v3, d1): unknown value"],
            ),
            # Two huge values overflow math.fsum; the sum reads as inf.
            (
                lambda doc: [d.update(prior=1e308) for d in doc["diseases"]],
                [
                    "disease 'd1': prior 1e+308 exceeds 1",
                    "disease 'd2': prior 1e+308 exceeds 1",
                    "disease priors must sum to 1 (got inf)",
                ],
            ),
            (
                lambda doc: doc["conditionals"][0]["probs"].update(v1=1e308, v2=1e308),
                [
                    "conditional (f1, v1, d1): probability 1e+308 outside [0, 1]",
                    "conditional (f1, v2, d1): probability 1e+308 outside [0, 1]",
                    "conditional row (f1, d1): sums to inf, expected 1",
                ],
            ),
        ],
        ids=["duplicate-feature-id", "duplicate-value-ids", "unknown-value", "overflowing-priors", "overflowing-row"],
    )
    def test_violation_messages(self, edit, violations):
        doc = json.loads(json.dumps(MINIMAL_KB))
        edit(doc)
        with pytest.raises(ValidationError) as raised:
            load_kb(kb_bytes(doc))
        assert raised.value.violations == violations

    @pytest.mark.parametrize(
        "priors, rows, violations",
        [
            (
                [-1e308, -1e308, 0.5],
                [[0.8, 0.2]] * 3,
                [
                    "disease 'd0': prior must be strictly positive",
                    "disease 'd1': prior must be strictly positive",
                    "disease priors must sum to 1 (got -inf)",
                ],
            ),
            (
                [0.5, 0.5],
                [[-1e308, -1e308], [0.2, 0.8]],
                [
                    "conditional (f1, v1, d0): probability -1e+308 outside [0, 1]",
                    "conditional (f1, v2, d0): probability -1e+308 outside [0, 1]",
                    "conditional row (f1, d0): sums to -inf, expected 1",
                ],
            ),
            # fsum overflows on the two 1e308 before it meets inf + -inf.
            (
                [1e308, 1e308, math.inf, -math.inf],
                [[0.8, 0.2]] * 4,
                [
                    "disease 'd0': prior 1e+308 exceeds 1",
                    "disease 'd1': prior 1e+308 exceeds 1",
                    "disease 'd2': prior inf exceeds 1",
                    "disease 'd3': prior must be strictly positive",
                    "disease priors must sum to 1 (got nan)",
                ],
            ),
            # An integer past the float range: fsum cannot convert it, the exact sum can.
            (
                [-(10**400), 0.5],
                [[0.8, 0.2]] * 2,
                [
                    "disease 'd0': prior must be strictly positive",
                    "disease priors must sum to 1 (got -inf)",
                ],
            ),
        ],
        ids=["negative-priors", "negative-row", "overflow-then-opposite-infinities", "huge-negative-integer"],
    )
    def test_overflowing_sum_keeps_its_sign(self, priors, rows, violations):
        with pytest.raises(ValidationError) as raised:
            build_kb(priors, rows)
        assert raised.value.violations == violations

    @settings(max_examples=500, deadline=None)
    @given(tables())
    def test_table_check_matches_the_entry_by_entry_reference(self, table):
        features, disease_ids, entries = table
        assert _table_violations(features, disease_ids, entries) == reference_table_violations(
            features, disease_ids, entries
        )

    @settings(max_examples=50, deadline=None)
    @given(knowledge_bases())
    def test_serialize_load_round_trip(self, kb):
        """Any valid knowledge base survives a byte round-trip unchanged."""
        loaded = load_kb(serialize_kb(kb))
        assert validate_kb(loaded) == []
        assert [d.id for d in loaded.diseases] == [d.id for d in kb.diseases]
        assert loaded.diseases == kb.diseases
        assert loaded.conditionals.entries == dict(kb.conditionals.entries)


class TestBeliefDistribution:
    def test_from_unnormalized_records_sum(self):
        dist = BeliefDistribution.from_unnormalized({"a": 0.75, "b": 0.75}, method="external")
        assert dist.pre_norm_sum == 1.5
        assert dist.beliefs == {"a": 0.5, "b": 0.5}

    def test_all_zero_mass_is_an_error(self):
        with pytest.raises(AllHypothesesRuledOut):
            BeliefDistribution.from_unnormalized({"a": 0.0, "b": 0.0}, method="external")

    def test_unnormalized_constructor_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            BeliefDistribution(beliefs={"a": 0.5, "b": 0.4}, pre_norm_sum=0.9, method="external")

    @pytest.mark.parametrize("pre_norm_sum", [math.nan, math.inf, -math.inf])
    def test_non_finite_pre_norm_sum_rejected(self, pre_norm_sum):
        with pytest.raises(ValueError, match="pre_norm_sum must be finite"):
            BeliefDistribution(beliefs={"a": 1.0}, pre_norm_sum=pre_norm_sum, method="external")

    def test_unknown_method_tag_rejected(self):
        with pytest.raises(ValueError, match="method"):
            BeliefDistribution(beliefs={"a": 1.0}, pre_norm_sum=1.0, method="guesswork")

    @pytest.mark.parametrize(
        "beliefs, pre_norm_sum, message",
        [
            # No decision rule needs an empty-input branch: this is rejected first.
            ({}, 0.0, "beliefs sum to 0.0, expected 1 within 1e-09"),
            ({"a": 1.0}, -1.0, "pre_norm_sum must be nonnegative"),
            ({"a": 1.5, "b": -0.5}, 1.0, "belief for 'a' outside [0, 1]: 1.5"),
            ({"a": 0.5, "b": -0.5, "c": 1.0}, 1.0, "belief for 'b' outside [0, 1]: -0.5"),
        ],
        ids=["empty", "negative-pre-norm-sum", "belief-above-one", "negative-belief"],
    )
    def test_invalid_distribution_rejected(self, beliefs, pre_norm_sum, message):
        with pytest.raises(ValueError) as raised:
            BeliefDistribution(beliefs=beliefs, pre_norm_sum=pre_norm_sum, method="external")
        assert str(raised.value) == message

    def test_sorted_items_descending_with_id_tiebreak(self):
        dist = BeliefDistribution(
            beliefs={"b": 0.25, "a": 0.25, "c": 0.5}, pre_norm_sum=1.0, method="external"
        )
        assert dist.sorted_items() == [("c", 0.5), ("a", 0.25), ("b", 0.25)]


class TestLoadCases:
    def test_fixture_cases_load(self, fixture_kb, fixture_cases):
        assert [c.id for c in fixture_cases] == ["c1", "c2", "c3", "c4", "c5"]
        c1 = fixture_cases[0]
        assert c1.true_diagnosis == "va"
        assert c1.gold_informed.belief("va") == pytest.approx(0.55, abs=1e-12)
        assert c1.expert_ratings["simple_bayes"] == 8

    def test_gold_distributions_renormalized(self, fixture_cases):
        for case in fixture_cases:
            for dist in (case.gold_descriptive, case.gold_informed):
                assert abs(sum(dist.beliefs.values()) - 1.0) < 1e-9
                assert dist.method == "external"

    def case_doc(self, **overrides):
        doc = {
            "id": "x1",
            "observations": [{"feature": "necrosis", "value": "focal"}],
            "true_diagnosis": "va",
        }
        doc.update(overrides)
        return [doc]

    def test_gold_sum_violation(self, fixture_kb):
        doc = self.case_doc(gold_informed={"va": 0.5, "csd": 0.4})
        with pytest.raises(ValidationError, match="sum"):
            load_cases(kb_bytes(doc), fixture_kb)

    def test_unknown_feature_violation(self, fixture_kb):
        doc = self.case_doc(observations=[{"feature": "nope", "value": "x"}])
        with pytest.raises(ValidationError, match="unknown feature 'nope'"):
            load_cases(kb_bytes(doc), fixture_kb)

    def test_unknown_value_violation(self, fixture_kb):
        doc = self.case_doc(observations=[{"feature": "necrosis", "value": "nope"}])
        with pytest.raises(ValidationError, match="unknown value 'nope'"):
            load_cases(kb_bytes(doc), fixture_kb)

    def test_duplicate_feature_violation(self, fixture_kb):
        doc = self.case_doc(
            observations=[
                {"feature": "necrosis", "value": "focal"},
                {"feature": "necrosis", "value": "absent"},
            ]
        )
        with pytest.raises(ValidationError, match="multiple observations"):
            load_cases(kb_bytes(doc), fixture_kb)

    def test_rating_out_of_range(self, fixture_kb):
        doc = self.case_doc(expert_ratings={"simple_bayes": 11})
        with pytest.raises(ValidationError, match=r"outside \[0, 10\]"):
            load_cases(kb_bytes(doc), fixture_kb)

    def test_unknown_gold_disease(self, fixture_kb):
        doc = self.case_doc(gold_informed={"nope": 1.0})
        with pytest.raises(ValidationError, match="unknown disease 'nope'"):
            load_cases(kb_bytes(doc), fixture_kb)

    def test_duplicate_case_id(self, fixture_kb):
        with pytest.raises(ValidationError) as raised:
            load_cases(kb_bytes(self.case_doc() * 2), fixture_kb)
        assert raised.value.violations == ["case 'x1': duplicate case id"]

    @pytest.mark.parametrize(
        "overrides, violation",
        [
            ({"true_diagnosis": "nope"}, "case 'x1': unknown true diagnosis 'nope'"),
            ({"gold_informed": {"va": -0.5, "csd": 1.5}}, "case 'x1'.gold_informed: negative probability for 'va'"),
            # Two huge values overflow math.fsum; the sum reads as inf.
            (
                {"gold_informed": {"va": 1e308, "csd": 1e308}},
                "case 'x1'.gold_informed: probabilities sum to inf, expected 1 within 1e-06",
            ),
        ],
        ids=["unknown-true-diagnosis", "negative-gold", "overflowing-gold"],
    )
    def test_violation_message(self, fixture_kb, overrides, violation):
        with pytest.raises(ValidationError) as raised:
            load_cases(kb_bytes(self.case_doc(**overrides)), fixture_kb)
        assert raised.value.violations == [violation]

    def test_optional_fields_may_be_absent(self, fixture_kb):
        doc = [{"id": "bare", "observations": []}]
        (case,) = load_cases(kb_bytes(doc), fixture_kb)
        assert case.true_diagnosis is None
        assert case.gold_descriptive is None and case.gold_informed is None
        assert case.expert_ratings is None


class TestCrossProductFeature:
    def setup_method(self):
        self.size = Feature(id="size", name="necrosis size", values=("nonextensive", "extensive"))
        self.dist = Feature(id="distribution", name="necrosis distribution", values=("focal", "multifocal"))
        joint = {}
        for disease, probs in {
            "d0": (0.4, 0.3, 0.2, 0.1),
            "d1": (0.1, 0.2, 0.3, 0.4),
        }.items():
            for value, p in zip(
                ("nonextensive+focal", "nonextensive+multifocal", "extensive+focal", "extensive+multifocal"),
                probs,
            ):
                joint[("size+distribution", value, disease)] = p
        self.joint = ConditionalTable(joint)

    def test_merged_values_are_ordered_pairs(self):
        merged, table = cross_product_feature(self.size, self.dist, self.joint)
        assert merged.id == "size+distribution"
        assert merged.values == (
            "nonextensive+focal",
            "nonextensive+multifocal",
            "extensive+focal",
            "extensive+multifocal",
        )
        assert table.prob("size+distribution", "extensive+focal", "d0") == 0.2

    def test_value_count_is_product_of_sizes(self):
        merged, _ = cross_product_feature(self.size, self.dist, self.joint)
        assert len(merged.values) == len(self.size.values) * len(self.dist.values)

    def test_merge_with_itself_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            cross_product_feature(self.size, self.size, self.joint)

    def test_joint_row_sum_violation(self):
        entries = dict(self.joint.entries)
        entries[("size+distribution", "extensive+multifocal", "d1")] = 0.5
        with pytest.raises(ValidationError, match="sums to"):
            cross_product_feature(self.size, self.dist, ConditionalTable(entries))

    def test_missing_joint_row_rejected(self):
        entries = dict(self.joint.entries)
        del entries[("size+distribution", "extensive+focal", "d1")]
        with pytest.raises(ValidationError, match="missing value entries"):
            cross_product_feature(self.size, self.dist, ConditionalTable(entries))

    @pytest.mark.parametrize("row", [(1.5, -0.5, 0.0, 0.0), (math.nan, 0.5, 0.25, 0.25)])
    def test_joint_entry_outside_unit_interval_rejected(self, row):
        entries = dict(self.joint.entries)
        d1_keys = [key for key in entries if key[2] == "d1"]
        entries.update(zip(d1_keys, row))
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            cross_product_feature(self.size, self.dist, ConditionalTable(entries))

    def test_colliding_value_pairs_rejected(self):
        a = Feature(id="a", name="a", values=("x", "x+y"))
        b = Feature(id="b", name="b", values=("y+z", "z"))
        with pytest.raises(ValidationError, match="duplicate value ids"):
            cross_product_feature(a, b, ConditionalTable({("a+b", "x+y+z", "d0"): 1.0}))

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="no joint conditional rows"):
            cross_product_feature(self.size, self.dist, ConditionalTable({}))
