"""Decision rules, utility expansion, and micromort conversions."""

from __future__ import annotations

import json
import math
import random
import re
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from support import fault_ids, reference_class_disutility, reference_meu_diagnosis, with_fault
from uncertain_dx.decision import (
    MicromortQuote,
    UtilityMatrix,
    expand_utilities,
    load_utilities,
    max_belief_diagnosis,
    meu_diagnosis,
    offdiagonal_adjust,
    utility_coverage_violations,
    wtp_to_micromorts,
)
from uncertain_dx.errors import (
    FileFormatError,
    LinearityRangeExceeded,
    NonpositiveValueOfLife,
    UnknownDisease,
    UnmappedDisease,
    ValidationError,
)
from uncertain_dx.evaluation import expected_disutility
from uncertain_dx.kb import BeliefDistribution, ConditionalTable, Disease, Feature, KnowledgeBase


def dist(**beliefs) -> BeliefDistribution:
    return BeliefDistribution(beliefs=beliefs, pre_norm_sum=1.0, method="external")


def flat_kb(disease_to_class: dict[str, str]) -> KnowledgeBase:
    n = len(disease_to_class)
    diseases = tuple(
        Disease(id=d, name=d, prior=1.0 / n, equivalence_class=c)
        for d, c in disease_to_class.items()
    )
    entries = {}
    for d in disease_to_class:
        entries[("f", "a", d)] = 0.5
        entries[("f", "b", d)] = 0.5
    return KnowledgeBase(
        diseases=diseases,
        features=(Feature(id="f", name="f", values=("a", "b")),),
        conditionals=ConditionalTable(entries),
    )


def matrix(classes, table, expansion) -> UtilityMatrix:
    return UtilityMatrix(
        classes=tuple(classes),
        class_disutility={k: float(v) for k, v in table.items()},
        expansion=expansion,
    )


BENIGN_LETHAL = matrix(
    ("b", "l"),
    {("b", "b"): 0, ("b", "l"): 1000, ("l", "b"): 800000, ("l", "l"): 0},
    {"benign": "b", "lethal": "l"},
)
BL_KB = flat_kb({"benign": "b", "lethal": "l"})


class TestMaxBelief:
    def test_argmax(self):
        assert max_belief_diagnosis(dist(h1=0.5, h2=0.375, h3=0.125)) == "h1"

    def test_tie_breaks_to_smallest_id(self):
        assert max_belief_diagnosis(dist(b=0.5, a=0.5, c=0.0)) == "a"

    def test_single_disease(self):
        assert max_belief_diagnosis(dist(only=1.0)) == "only"

    @settings(max_examples=500, deadline=None)
    @given(
        st.dictionaries(
            st.text("abAB_0", min_size=1, max_size=3),
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(0.0, 4.0)),
            min_size=1,
            max_size=8,
        )
    )
    @example({"b": 1.0, "a": 1.0, "c": -0.0, "d": 0.0})
    @example({"a": -0.0, "b": 0.0, "c": 2.0})
    def test_matches_a_strict_scan_over_sorted_ids(self, weights):
        """The rule's first form, a strict ``>`` scan over ids in sorted
        order, and the first entry of ``sorted_items`` pick the same
        disease: ties (0.0 and -0.0 included) go to the smallest id."""
        total = math.fsum(weights.values())
        assume(total > 0.0)
        p = BeliefDistribution(
            beliefs={d: w / total for d, w in weights.items()}, pre_norm_sum=1.0, method="external"
        )
        best_id, best = None, -math.inf
        for disease in sorted(p.beliefs):
            if p.beliefs[disease] > best:
                best, best_id = p.beliefs[disease], disease
        assert max_belief_diagnosis(p) == best_id == p.sorted_items()[0][0]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0.001, 1, allow_nan=False), min_size=2, max_size=8),
        st.floats(0.001, 1000, allow_nan=False),
    )
    # Rescaling rounds d0 < d2 into d0 == d2, so the tie-break picks d0.
    @example([0.9999999999999999, 0.328125, 1.0], 0.375)
    def test_scale_invariant(self, values, scale):
        """Multiplying all beliefs by a positive constant cannot demote the
        argmax; the rule needs no probabilistic interpretation.  Rounding is
        monotone but may merge two close beliefs into a tie, which the
        smallest-id rule then breaks differently, so the invariant is that
        both picks are top-believed after rescaling."""
        total = sum(values)
        beliefs = {f"d{i}": v / total for i, v in enumerate(values)}
        raw = BeliefDistribution.from_unnormalized(
            {d: b * scale for d, b in beliefs.items()}, method="external"
        )
        base = BeliefDistribution.from_unnormalized(beliefs, method="external")
        top = raw.beliefs[max_belief_diagnosis(raw)]
        assert raw.beliefs[max_belief_diagnosis(base)] == top


class TestMeuDiagnosis:
    def test_small_lethal_chance_dominates(self):
        """A 40% chance of a lethal disease outweighs a 60% benign call:
        600 expected micromorts against 320000."""
        p = dist(benign=0.6, lethal=0.4)
        assert meu_diagnosis(p, BENIGN_LETHAL, BL_KB) == "lethal"

    def test_point_mass_with_zero_diagonal(self):
        p = dist(benign=1.0, lethal=0.0)
        dx = meu_diagnosis(p, BENIGN_LETHAL, BL_KB)
        assert BENIGN_LETHAL.disease_class(dx) == "b"

    def test_uniform_utilities_tie_break(self):
        u = matrix(("c",), {("c", "c"): 5}, {"x": "c", "y": "c", "z": "c"})
        kb = flat_kb({"z": "c", "y": "c", "x": "c"})
        assert meu_diagnosis(dist(x=0.2, y=0.3, z=0.5), u, kb) == "x"

    def test_unmapped_disease(self):
        u = matrix(("b",), {("b", "b"): 0}, {"benign": "b"})
        with pytest.raises(UnmappedDisease):
            meu_diagnosis(dist(benign=0.5, lethal=0.5), u, BL_KB)

    def test_tables_are_read_only_copies(self):
        """The model keeps the tables it validated: its own maps refuse
        assignment, and NaN written into the caller's dicts afterwards
        changes no pick and no price."""
        table = dict(BENIGN_LETHAL.class_disutility)
        expansion = dict(BENIGN_LETHAL.expansion)
        u = UtilityMatrix(classes=BENIGN_LETHAL.classes, class_disutility=table, expansion=expansion)
        with pytest.raises(TypeError):
            u.class_disutility[("b", "b")] = math.nan
        with pytest.raises(TypeError):
            u.expansion["benign"] = "l"
        for key in table:
            table[key] = math.nan
        expansion["benign"] = "l"
        del expansion["lethal"]
        p = dist(benign=0.6, lethal=0.4)
        assert meu_diagnosis(p, u, BL_KB) == "lethal"
        assert expected_disutility(p, u, "benign", BL_KB) == 0.4 * 800000.0
        assert expected_disutility(p, u, "lethal", BL_KB) == 0.6 * 1000.0

    def test_uncovered_model_names_the_smallest_unmapped_id(self):
        """The error names the smallest unmapped id, not the first unmapped
        disease that p names."""
        u = matrix(("b",), {("b", "b"): 0}, {"a": "b"})
        kb = flat_kb({"a": "b", "b": "b", "c": "b"})
        with pytest.raises(UnmappedDisease) as raised:
            meu_diagnosis(dist(c=0.5, b=0.5), u, kb)
        assert str(raised.value) == "disease 'b' has no equivalence class"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_uncovered_model_raises_whatever_the_distribution(self, seed):
        """A model that leaves KB diseases unmapped raises ``UnmappedDisease``
        naming the smallest unmapped id for every p: whatever its order, the
        diseases it names, or a belief outside the KB."""
        rng = random.Random(seed)
        ids = rng.sample([f"d{i}" for i in range(12)], rng.randint(2, 8))
        expansion = {d: rng.choice(BENIGN_LETHAL.classes) for d in ids}
        unmapped = rng.sample(ids, rng.randint(1, len(ids)))
        mapped = {d: c for d, c in expansion.items() if d not in unmapped}
        u = matrix(BENIGN_LETHAL.classes, BENIGN_LETHAL.class_disutility, mapped)
        named = rng.sample(ids + ["zz"], rng.randint(1, len(ids) + 1))
        weights = [rng.random() + 1e-3 for _ in named]
        p = dist(**{d: w / sum(weights) for d, w in zip(named, weights)})
        with pytest.raises(UnmappedDisease) as raised:
            meu_diagnosis(p, u, flat_kb(expansion))
        assert str(raised.value) == f"disease '{min(unmapped)}' has no equivalence class"

    def test_belief_outside_the_knowledge_base_raises(self):
        """A distribution naming a disease the KB lacks is rejected even when
        the model maps that disease, by the decision rule and by the rating."""
        u = matrix(BENIGN_LETHAL.classes, BENIGN_LETHAL.class_disutility,
                   {**BENIGN_LETHAL.expansion, "other": "b", "zz": "l"})
        p = dist(benign=0.5, zz=0.25, other=0.25)
        with pytest.raises(UnknownDisease) as raised:
            meu_diagnosis(p, u, BL_KB)
        assert str(raised.value) == "unknown disease 'other'"
        for diagnosis in ("benign", "lethal"):
            with pytest.raises(UnknownDisease) as raised:
                expected_disutility(p, u, diagnosis, BL_KB)
            assert str(raised.value) == "unknown disease 'other'"

    def test_empty_knowledge_base_named(self):
        """No knowledge base without diseases reaches the decision rule."""
        with pytest.raises(ValidationError, match="knowledge base has no diseases"):
            KnowledgeBase(diseases=(), features=(), conditionals=ConditionalTable({}))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_affine_invariance(self, data):
        """Scaling all disutilities by a positive factor and shifting them
        by a constant cannot change the minimizing diagnosis."""
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        n_classes = rng.randint(2, 4)
        classes = [f"k{i}" for i in range(n_classes)]
        diseases = [f"d{i}" for i in range(rng.randint(2, 6))]
        expansion = {d: rng.choice(classes) for d in diseases}
        table = {(i, j): rng.uniform(0, 1e6) for i in classes for j in classes}
        u = matrix(classes, table, expansion)
        scale = rng.uniform(0.01, 100.0)
        shift = rng.uniform(0.0, 1e5)
        u2 = matrix(classes, {k: v * scale + shift for k, v in table.items()}, expansion)
        kb = flat_kb(expansion)
        weights = [rng.random() + 1e-3 for _ in diseases]
        total = sum(weights)
        p = dist(**{d: w / total for d, w in zip(diseases, weights)})
        assert meu_diagnosis(p, u, kb) == meu_diagnosis(p, u2, kb)

    def test_each_class_priced_once(self):
        """A decision reads each class's column over the diseases once, C*D
        table entries, and prices a distribution from them alone, so it
        costs O(C*D), not O(D^2)."""
        rng = random.Random(5)
        classes = [f"k{i}" for i in range(4)]
        expansion = {f"d{i:02d}": classes[i % 4] for i in range(12)}
        reads = []

        class CountingTable(dict):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        table = {(i, j): rng.uniform(1.0, 1e6) for i in classes for j in classes}
        u = UtilityMatrix(classes=tuple(classes), class_disutility=table, expansion=expansion)
        # The model's read-only copy, swapped for a counting one with the same entries.
        object.__setattr__(u, "class_disutility", CountingTable(u.class_disutility))
        p = dist(**{d: 1 / 12 for d in expansion})
        kb = flat_kb(expansion)
        dx = meu_diagnosis(p, u, kb)
        assert sorted(reads) == sorted((expansion[d], c) for d in expansion for c in classes)
        assert dx == reference_meu_diagnosis(p, u, kb)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tied_classes_pick_as_per_disease_scan(self, seed):
        """Two classes with equal expected disutility: the pick is the one a
        scan pricing every disease in sorted-id order with a strict ``<``
        makes, the smallest id across both classes."""
        rng = random.Random(seed)
        classes = [f"k{i}" for i in range(rng.randint(2, 5))]
        tied = rng.sample(classes, 2)
        ids = rng.sample([f"d{i}" for i in range(20)], rng.randint(2, 9))
        expansion = {d: tied[i] if i < 2 else rng.choice(classes) for i, d in enumerate(ids)}
        # The tied classes share one column of utilities below every other column.
        column = {i: rng.uniform(0, 1e5) for i in classes}
        table = {(i, j): column[i] if j in tied else rng.uniform(1e5, 1e6) for i in classes for j in classes}
        u = matrix(classes, table, expansion)
        weights = [rng.random() + 1e-3 for _ in ids]
        p = dist(**{d: w / sum(weights) for d, w in zip(ids, weights)})
        kb = flat_kb(expansion)

        best_id, best = None, math.inf
        for candidate in sorted(expansion):
            expected = reference_class_disutility(p, u, u.disease_class(candidate))
            if expected < best:
                best, best_id = expected, candidate
        assert meu_diagnosis(p, u, kb) == best_id == min(d for d in ids if expansion[d] in tied)


class TestExpandUtilities:
    def test_expansion_counts_at_clinical_scale(self):
        """51 diseases in 26 classes: 676 class assessments expand to 2601
        disease-pair entries."""
        classes = [f"k{i}" for i in range(26)]
        expansion = {f"d{i}": classes[i % 26] for i in range(51)}
        table = {(i, j): float(hash((i, j)) % 1000) for i in classes for j in classes}
        u = matrix(classes, table, expansion)
        kb = flat_kb(expansion)
        assert len(u.class_disutility) == 676
        expanded = expand_utilities(u, kb)
        assert len(expanded) == 2601

    def test_single_class_block_is_constant(self):
        """Nine subtypes sharing one class share all 81 pairwise entries."""
        classes = ["hodgkin", "other"]
        expansion = {f"h{i}": "hodgkin" for i in range(9)}
        expansion["x"] = "other"
        table = {
            ("hodgkin", "hodgkin"): 150000.0,
            ("hodgkin", "other"): 400000.0,
            ("other", "hodgkin"): 90000.0,
            ("other", "other"): 1000.0,
        }
        u = matrix(classes, table, expansion)
        kb = flat_kb(expansion)
        expanded = expand_utilities(u, kb)
        intra = [expanded[(f"h{i}", f"h{j}")] for i in range(9) for j in range(9)]
        assert len(intra) == 81
        assert set(intra) == {150000.0}

    def test_one_class_means_constant_matrix(self):
        u = matrix(("c",), {("c", "c"): 7.0}, {"a": "c", "b": "c"})
        kb = flat_kb({"a": "c", "b": "c"})
        assert set(expand_utilities(u, kb).values()) == {7.0}

    def test_regrouping_recovers_class_matrix(self):
        u = BENIGN_LETHAL
        expanded = expand_utilities(u, BL_KB)
        for (di, dj), value in expanded.items():
            assert value == u.class_disutility[(u.disease_class(di), u.disease_class(dj))]

    def test_unmapped_disease(self):
        u = matrix(("b",), {("b", "b"): 0}, {"benign": "b"})
        with pytest.raises(UnmappedDisease):
            expand_utilities(u, BL_KB)


class TestUtilityMatrixValidation:
    def test_dense_requirement(self):
        with pytest.raises(ValidationError, match="missing disutility"):
            matrix(("a", "b"), {("a", "a"): 0, ("a", "b"): 1, ("b", "b"): 0}, {})

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            matrix(("a",), {("a", "a"): -1}, {})

    @pytest.mark.parametrize("micromorts", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, micromorts):
        with pytest.raises(ValidationError, match=r"\(a, b\): micromorts .* not finite"):
            matrix(("a", "b"), {("a", "a"): 0, ("a", "b"): micromorts, ("b", "a"): 1, ("b", "b"): 0}, {})

    def test_expansion_to_unknown_class_rejected(self):
        with pytest.raises(ValidationError, match="unknown class"):
            matrix(("a",), {("a", "a"): 0}, {"d": "zzz"})

    @pytest.mark.parametrize(
        "classes, table, violation",
        [
            (("a", "a"), {("a", "a"): 0}, "duplicate equivalence-class ids"),
            (("a",), {("a", "a"): 0, ("a", "z"): 1}, "disutility entry (a, z): unknown class"),
        ],
        ids=["duplicate-class", "unknown-class"],
    )
    def test_violation_message(self, classes, table, violation):
        with pytest.raises(ValidationError) as raised:
            matrix(classes, table, {})
        assert raised.value.violations == [violation]

    def test_load_utilities_file(self, data_dir):
        u = load_utilities(data_dir / "fixture_utilities.json")
        assert u.class_disutility[("hodgkin", "benign")] == 350000
        assert u.disease_class("hns") == "hodgkin"

    def test_repeated_disutility_entry_rejected(self, data_dir):
        """A later entry for the same (true, diagnosed) pair used to win silently."""
        doc = json.loads((data_dir / "fixture_utilities.json").read_text())
        doc["disutility"].append({"true": "benign", "diagnosed": "hodgkin", "micromorts": 1})
        where = len(doc["disutility"]) - 1
        message = rf"^utilities\.disutility\[{where}\]: repeats entry \('benign', 'hodgkin'\)$"
        with pytest.raises(FileFormatError, match=message):
            load_utilities(json.dumps(doc).encode())

    def test_coverage_violations(self, fixture_kb, fixture_utilities):
        assert utility_coverage_violations(fixture_utilities, fixture_kb) == []
        smaller = UtilityMatrix(
            classes=fixture_utilities.classes,
            class_disutility=fixture_utilities.class_disutility,
            expansion={k: v for k, v in fixture_utilities.expansion.items() if k != "fl"},
        )
        assert any("'fl'" in v for v in utility_coverage_violations(smaller, fixture_kb))


# One document per field with the key missing and one with its value mistyped
# (set to true), each with the message ``load_utilities`` gave before every
# field went through ``kb._field``.  Array elements and expansion values have
# no missing-key document.
UTILITY_FILE = {
    "classes": ["c1"],
    "expansion": {"d1": "c1"},
    "disutility": [{"true": "c1", "diagnosed": "c1", "micromorts": 0}],
}
UTILITY_FIELD_FAULTS = [
    ((), "mistyped", "utilities: expected an object"),
    (("classes",), "missing", "utilities: missing key 'classes'"),
    (("classes",), "mistyped", "utilities.classes: expected an array"),
    (("classes", 0), "mistyped", "utilities.classes[0]: expected a string, got True"),
    (("expansion",), "missing", "utilities: missing key 'expansion'"),
    (("expansion",), "mistyped", "utilities.expansion: expected an object"),
    (("expansion", "d1"), "mistyped", "utilities.expansion['d1']: expected a string, got True"),
    (("disutility",), "missing", "utilities: missing key 'disutility'"),
    (("disutility",), "mistyped", "utilities.disutility: expected an array"),
    (("disutility", 0), "mistyped", "utilities.disutility[0]: expected an object"),
    (("disutility", 0, "true"), "missing", "utilities.disutility[0]: missing key 'true'"),
    (("disutility", 0, "true"), "mistyped", "utilities.disutility[0].true: expected a string, got True"),
    (("disutility", 0, "diagnosed"), "missing", "utilities.disutility[0]: missing key 'diagnosed'"),
    (("disutility", 0, "diagnosed"), "mistyped", "utilities.disutility[0].diagnosed: expected a string, got True"),
    (("disutility", 0, "micromorts"), "missing", "utilities.disutility[0]: missing key 'micromorts'"),
    (("disutility", 0, "micromorts"), "mistyped", "utilities.disutility[0].micromorts: expected a number, got True"),
]


@pytest.mark.parametrize("path, fault, message", UTILITY_FIELD_FAULTS, ids=fault_ids(UTILITY_FIELD_FAULTS))
def test_utility_field_fault_message(path, fault, message):
    with pytest.raises(FileFormatError) as info:
        load_utilities(json.dumps(with_fault(UTILITY_FILE, path, fault)).encode())
    assert str(info.value) == message


class TestWtpToMicromorts:
    def test_hundred_dollars_at_hundred_million(self):
        assert wtp_to_micromorts(100.0, 100_000_000.0).amount == 1.0

    def test_ten_dollars_at_ten_million(self):
        assert wtp_to_micromorts(10.0, 10_000_000.0).amount == 1.0

    def test_zero_dollars(self):
        assert wtp_to_micromorts(0.0, 5_000_000.0).amount == 0.0

    def test_nonpositive_value_of_life(self):
        with pytest.raises(NonpositiveValueOfLife):
            wtp_to_micromorts(100.0, 0.0)
        with pytest.raises(NonpositiveValueOfLife):
            wtp_to_micromorts(100.0, -1.0)

    def test_linearity_warning_over_the_small_risk_range(self):
        with pytest.warns(LinearityRangeExceeded):
            quote = wtp_to_micromorts(200_000.0, 100_000_000.0)
        assert quote.amount == 2000.0  # still converted, just flagged

    def test_no_warning_inside_the_range(self, recwarn):
        wtp_to_micromorts(100_000.0, 100_000_000.0)
        assert not recwarn.list

    @pytest.mark.parametrize("dollars, value_of_life", [(10.0, 5e-324), (0.0, 5e-324), (10.0, 1e-310)])
    def test_subnormal_value_of_life_rejected_before_any_warning(self, dollars, value_of_life, recwarn):
        """A micromort's price, V / 1e6, underflows to 0 or leaves the quote infinite."""
        with pytest.raises(ValueError, match=re.escape(f"small-risk value of life of {value_of_life!r}")) as info:
            wtp_to_micromorts(dollars, value_of_life)
        assert "\n" not in str(info.value)
        assert not recwarn.list

    @pytest.mark.filterwarnings("ignore::uncertain_dx.errors.LinearityRangeExceeded")
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e300), st.floats(sys.float_info.min, 1e300))
    def test_normal_inputs_keep_their_bits(self, dollars, value_of_life):
        expected = dollars / (value_of_life / 1e6)
        if math.isinf(expected):
            with pytest.raises(ValueError, match="cannot price"):
                wtp_to_micromorts(dollars, value_of_life)
        else:
            assert wtp_to_micromorts(dollars, value_of_life).amount == expected

    @pytest.mark.filterwarnings("ignore::uncertain_dx.errors.LinearityRangeExceeded")
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 20))
    def test_linear_on_dyadic_rates(self, a, b, k):
        """f(a+b) = f(a) + f(b) and f(2^k a) = 2^k f(a), exact when the
        dollars-per-micromort rate is a power of two."""
        vol = 1e6 * 2.0**3
        f = lambda x: wtp_to_micromorts(float(x), vol).amount
        assert f(a) + f(b) == f(a + b)
        assert 2.0**k * f(a) == f(a * 2**k)

    @pytest.mark.filterwarnings("ignore::uncertain_dx.errors.LinearityRangeExceeded")
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False))
    def test_linear_within_rounding_generally(self, a, b):
        vol = 10_000_000.0
        f = lambda x: wtp_to_micromorts(x, vol).amount
        assert f(a) + f(b) == pytest.approx(f(a + b), rel=1e-12, abs=1e-15)


class TestOffdiagonalAdjust:
    def test_antibiotics_example(self):
        """A correct-diagnosis assessment plus a $100 consequence priced at
        $10 per micromort."""
        delta = wtp_to_micromorts(100.0, 10_000_000.0)
        assert offdiagonal_adjust(1000.0, delta) == 1010.0

    def test_zero_delta(self):
        assert offdiagonal_adjust(42.0, MicromortQuote(0.0)) == 42.0

    def test_zero_base(self):
        assert offdiagonal_adjust(0.0, MicromortQuote(1.0)) == 1.0

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            offdiagonal_adjust(-1.0, MicromortQuote(0.0))

    def test_overflowing_sum_rejected(self):
        with pytest.raises(ValueError, match="adjusted disutility must be finite"):
            offdiagonal_adjust(1e308, MicromortQuote(1e308))

    def test_negative_quote_rejected(self):
        with pytest.raises(ValueError):
            MicromortQuote(-0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: MicromortQuote(math.nan),
        lambda: MicromortQuote(math.inf),
        lambda: wtp_to_micromorts(math.nan, 1e6),
        lambda: wtp_to_micromorts(10.0, math.nan),
        lambda: wtp_to_micromorts(10.0, math.inf),
        lambda: offdiagonal_adjust(math.nan, MicromortQuote(1.0)),
        lambda: offdiagonal_adjust(math.inf, MicromortQuote(1.0)),
    ],
    ids=["quote-nan", "quote-inf", "wtp-nan-dollars", "wtp-nan-value-of-life",
         "wtp-infinite-value-of-life", "adjust-nan-base", "adjust-infinite-base"],
)
def test_non_finite_micromort_inputs_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()
