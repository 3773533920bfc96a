"""Rating arithmetic, case weighting, significance tests, report pipeline."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import reference_permutation_test

from uncertain_dx import evaluation
from uncertain_dx.decision import UtilityMatrix, max_belief_diagnosis, meu_diagnosis
from uncertain_dx.engine import naive_dempster_shafer, odds_likelihood, simple_bayes
from uncertain_dx.errors import (
    MissingGoldStandard,
    UncertainDxError,
    MissingRatings,
    MissingTrueDiagnosis,
    UnknownObservation,
    ValidationError,
)
from uncertain_dx.evaluation import (
    CaseWeight,
    case_weights,
    evaluate_methods,
    expected_disutility,
    expert_rating_summary,
    permutation_test,
    weighted_mean_sd,
    wilcoxon_rank_test,
)
from uncertain_dx.kb import (
    BeliefDistribution,
    CaseRecord,
    ConditionalTable,
    Disease,
    Feature,
    KnowledgeBase,
    Observation,
)


MAX_FLOAT = 1.7976931348623157e308
EDGE_MICROMORTS = (0.0, 5e-324, 1e-310, 1.0, 1e6, 1e300, 1.7e302, MAX_FLOAT)
BAD_MICROMORTS = (-1.0, -5e-324, math.inf, math.nan)
MICROMORTS = st.sampled_from(EDGE_MICROMORTS + BAD_MICROMORTS) | st.floats(0.0, MAX_FLOAT)


def report_numbers(report: evaluation.EvaluationReport) -> list[float]:
    """Every float in the report's JSON rendering."""
    numbers = []

    def collect(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                collect(item)
        elif isinstance(node, float):
            numbers.append(node)

    collect(json.loads(report.to_json()))
    return numbers


def dist(**beliefs) -> BeliefDistribution:
    return BeliefDistribution(beliefs=beliefs, pre_norm_sum=1.0, method="external")


def uniform_weights(n: int) -> list[CaseWeight]:
    return [CaseWeight(case_id=f"c{i:02d}", weight=1.0 / n) for i in range(n)]


BENIGN_LETHAL = UtilityMatrix(
    classes=("b", "l"),
    class_disutility={("b", "b"): 0.0, ("b", "l"): 1000.0, ("l", "b"): 800000.0, ("l", "l"): 0.0},
    expansion={"benign": "b", "lethal": "l"},
)
BL_KB = KnowledgeBase(
    diseases=(
        Disease(id="benign", name="benign", prior=0.5, equivalence_class="b"),
        Disease(id="lethal", name="lethal", prior=0.5, equivalence_class="l"),
    ),
    features=(Feature(id="f", name="f", values=("a", "b")),),
    conditionals=ConditionalTable(
        {("f", "a", "benign"): 0.5, ("f", "b", "benign"): 0.5, ("f", "a", "lethal"): 0.5, ("f", "b", "lethal"): 0.5}
    ),
)


class TestExpectedDisutility:
    def test_point_mass_correct_class_is_free(self):
        p = dist(benign=1.0)
        assert expected_disutility(p, BENIGN_LETHAL, "benign", BL_KB) == 0.0

    def test_missed_lethal_mass(self):
        p = dist(benign=0.9, lethal=0.1)
        assert expected_disutility(p, BENIGN_LETHAL, "benign", BL_KB) == pytest.approx(80000.0, abs=1e-9)

    def test_within_class_spread_is_free_on_zero_diagonal(self, fixture_kb, fixture_utilities):
        zero_diag = UtilityMatrix(
            classes=fixture_utilities.classes,
            class_disutility={
                k: (0.0 if k[0] == k[1] else v) for k, v in fixture_utilities.class_disutility.items()
            },
            expansion=fixture_utilities.expansion,
        )
        p = dist(va=0.4, csd=0.35, sh=0.25)
        assert expected_disutility(p, zero_diag, "csd", fixture_kb) == 0.0


class TestCaseWeights:
    def make_cases(self, *true_ids):
        return [
            CaseRecord(id=f"c{i}", observations=(), true_diagnosis=t)
            for i, t in enumerate(true_ids)
        ]

    def test_normalized_priors(self):
        kb = KnowledgeBase(
            diseases=(
                Disease(id="rare", name="", prior=0.02, equivalence_class="c"),
                Disease(id="common", name="", prior=0.08, equivalence_class="c"),
                Disease(id="rest", name="", prior=0.90, equivalence_class="c"),
            ),
            features=(Feature(id="f", name="", values=("a", "b")),),
            conditionals=ConditionalTable(
                {(f, v, d): 0.5 for f in ("f",) for v in ("a", "b") for d in ("rare", "common", "rest")}
            ),
        )
        weights = case_weights(self.make_cases("rare", "common"), kb)
        assert weights[0].weight == pytest.approx(0.2, abs=1e-12)
        assert weights[1].weight == pytest.approx(0.8, abs=1e-12)

    def test_equal_priors_give_uniform_weights(self):
        weights = case_weights(self.make_cases("benign", "lethal"), BL_KB)
        assert [w.weight for w in weights] == [0.5, 0.5]

    def test_single_case(self):
        (w,) = case_weights(self.make_cases("benign"), BL_KB)
        assert w.weight == 1.0

    def test_missing_true_diagnosis(self):
        with pytest.raises(MissingTrueDiagnosis, match="c0"):
            case_weights([CaseRecord(id="c0", observations=())], BL_KB)

    def test_weights_sum_to_one(self):
        rng = random.Random(5)
        cases = self.make_cases(*[rng.choice(["benign", "lethal"]) for _ in range(17)])
        weights = case_weights(cases, BL_KB)
        assert sum(w.weight for w in weights) == pytest.approx(1.0, abs=1e-12)


class TestWeightedMeanSd:
    def test_two_point(self):
        mean, sd = weighted_mean_sd([0.0, 10.0], uniform_weights(2))
        assert (mean, sd) == (5.0, 5.0)

    def test_constant_values(self):
        mean, sd = weighted_mean_sd([3.0, 3.0, 3.0], uniform_weights(3))
        assert (mean, sd) == (3.0, 0.0)

    def test_single_value(self):
        assert weighted_mean_sd([7.5], uniform_weights(1)) == (7.5, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            weighted_mean_sd([1.0], uniform_weights(2))

    def test_weights_not_summing_to_one_rejected(self):
        """Eight weights of 1 would overflow the deviation scaling, which
        assumes normalized weights; the sum is rejected instead."""
        values = [0.0] * 4 + [1.9 * 2.0**508] * 4
        weights = [CaseWeight(f"c{i}", 1.0) for i in range(8)]
        with pytest.raises(ValueError, match=r"weights sum to 8\.0, expected 1"):
            weighted_mean_sd(values, weights)

    def test_deviations_too_large_to_square(self):
        """Squaring 1e160 overflows; the power-of-two scaling gives the
        exact answer instead."""
        assert weighted_mean_sd([0.0, 2e160], uniform_weights(2)) == (1e160, 1e160)
        assert weighted_mean_sd([0.0, 2.0**1023], uniform_weights(2)) == (2.0**1022, 2.0**1022)

    @given(
        st.lists(st.just(0.0) | st.floats(2.0**-100, 2.0**510), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_scaling_leaves_the_bits(self, values, seed):
        """With normalized weights, as ``case_weights`` makes them: below the
        threshold nothing is scaled, and above it the scaled result equals
        the unscaled one computed a power of two lower."""
        rng = random.Random(seed)
        raw = [rng.random() + 1e-3 for _ in values]
        weights = [CaseWeight(f"c{i}", r / math.fsum(raw)) for i, r in enumerate(raw)]
        mean = math.fsum(w.weight * v for v, w in zip(values, weights))
        variance = math.fsum(w.weight * (v - mean) ** 2 for v, w in zip(values, weights))
        assert weighted_mean_sd(values, weights) == (mean, math.sqrt(max(variance, 0.0)))
        big = [math.ldexp(v, 512) for v in values]
        sd = math.sqrt(max(variance, 0.0))
        assert weighted_mean_sd(big, weights) == (math.ldexp(mean, 512), math.ldexp(sd, 512))


@st.composite
def paired_samples(draw):
    """(diffs, weights) of 1 to 40 cases (up to 5 bytes of flip bits): whole
    micromort differences, which tie often, mixed with floats from subnormal
    to 1e300 in magnitude."""
    n = draw(st.integers(1, 40))
    diff = st.integers(-3, 3).map(lambda k: 1000.0 * k) | st.floats(-1e300, 1e300)
    weight = st.sampled_from([1.0, 0.5, 1.0 / n]) | st.floats(0.0, 1.0)
    return draw(st.lists(diff, min_size=n, max_size=n)), draw(st.lists(weight, min_size=n, max_size=n))


class TestPermutationTest:
    def test_all_zero_diffs_give_asl_one(self):
        asl = permutation_test([0.0] * 6, uniform_weights(6), iterations=1000, seed=1)
        assert asl == 1.0

    def test_constant_positive_diffs_are_significant(self):
        asl = permutation_test([1.0] * 20, uniform_weights(20), iterations=10000, seed=3)
        assert asl <= 0.001

    def test_seed_determinism_is_bit_exact(self):
        rng = random.Random(11)
        diffs = [rng.gauss(0.5, 1.0) for _ in range(15)]
        weights = uniform_weights(15)
        first = permutation_test(diffs, weights, iterations=2000, seed=42)
        second = permutation_test(diffs, weights, iterations=2000, seed=42)
        assert first == second

    def test_pair_order_does_not_matter(self):
        rng = random.Random(12)
        diffs = [rng.gauss(0.3, 1.0) for _ in range(12)]
        weights = [CaseWeight(f"case{i:02d}", 1.0 / 12) for i in range(12)]
        baseline = permutation_test(diffs, weights, iterations=1500, seed=9)
        paired = list(zip(diffs, weights))
        rng.shuffle(paired)
        shuffled = permutation_test([d for d, _ in paired], [w for _, w in paired], iterations=1500, seed=9)
        assert shuffled == baseline

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="1000"):
            permutation_test([1.0], uniform_weights(1), iterations=999, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            permutation_test([], [], iterations=1000, seed=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_diffs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            permutation_test([1.0, bad], uniform_weights(2), iterations=1000, seed=0)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25, 40])
    def test_sign_flips_are_byte_columns_of_each_draw(self, n):
        """Byte i of column j is byte j, little-endian, of iteration i's
        ``getrandbits(n)``, drawn from the RNG seeded (seed << 32) + i."""
        iterations, seed = 1001, 5
        columns = evaluation._sign_flips(n, iterations, seed)
        assert len(columns) == -(-n // 8)
        assert all(type(c) is bytes and len(c) == iterations for c in columns)
        for i in range(iterations):
            bits = random.Random((seed << 32) + i).getrandbits(n)
            assert bytes(c[i] for c in columns) == bits.to_bytes(len(columns), "little")

    @settings(max_examples=200, deadline=None)
    @given(sample=paired_samples(), seed=st.integers(0, 3), iterations=st.sampled_from([1000, 1001, 2000]))
    # Flips of 1000 and -1000 tie the observed statistic.
    @example(sample=([1000.0, -1000.0, 5000.0, 0.0], [0.25] * 4), seed=0, iterations=1000)
    # Flipping the last term gives 1 + 2**-53, the midpoint below the observed
    # 1 + 2**-52, whose last bit is odd: round-half-even goes down, no hit.
    @example(sample=([1.0, 3 * 2.0**-54, 2.0**-54], [1.0] * 3), seed=0, iterations=1000)
    # Flipping both small terms gives 1 - 2**-54, the midpoint below the
    # observed 1.0, whose last bit is even: round-half-even goes up, a hit.
    @example(sample=([1.0, 2.0**-55, 2.0**-55], [1.0] * 3), seed=0, iterations=1000)
    @example(sample=([5e-324, 1e300, -1e300, -5e-324, 1e-310], [1.0, 1.0, 0.5, 1.0, 0.25]), seed=1, iterations=1000)
    @example(sample=([2.5], [1.0]), seed=0, iterations=1000)
    @example(sample=([1000.0 * (k % 3 - 1) for k in range(8)], [1 / 8] * 8), seed=2, iterations=1000)
    @example(sample=([1000.0 * (k % 4) for k in range(9)], [1 / 9] * 9), seed=3, iterations=1000)
    @example(sample=([1000.0 * (k % 5 - 2) for k in range(24)], [1 / 24] * 24), seed=0, iterations=1000)
    @example(sample=([float(k) - 12.0 for k in range(25)], [1 / 25] * 25), seed=1, iterations=1000)
    # Five byte columns of flip bits, with an odd iteration count.
    @example(sample=([1000.0 * (k % 7 - 3) for k in range(40)], [1 / 40] * 40), seed=2, iterations=1001)
    def test_matches_the_fsum_reference(self, sample, seed, iterations):
        """The exact-integer hit rule finds the same hits as one ``math.fsum``
        per iteration, so every ASL equals the reference's."""
        diffs, values = sample
        weights = [CaseWeight(f"c{i:02d}", w) for i, w in enumerate(values)]
        expected = reference_permutation_test(diffs, weights, iterations, seed)
        assert permutation_test(diffs, weights, iterations, seed) == expected


def exact_rank_sum_asl(a: list[float], b: list[float]) -> float:
    """Enumeration oracle: fraction of equal-size regroupings whose rank
    sum meets or exceeds the observed one."""
    pooled = a + b
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2
        i = j + 1
    observed = sum(ranks[: len(a)])
    splits = list(combinations(range(len(pooled)), len(a)))
    hits = sum(1 for split in splits if sum(ranks[i] for i in split) >= observed)
    return hits / len(splits)


class TestWilcoxonRankTest:
    def test_identical_samples(self):
        assert wilcoxon_rank_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5, abs=1e-12)

    def test_all_tied_samples(self):
        assert wilcoxon_rank_test([4.0, 4.0], [4.0, 4.0]) == 0.5

    def test_clearly_separated_samples(self):
        a, b = [8.0, 9.0, 10.0, 9.0], [1.0, 0.0, 2.0, 1.0]
        asl = wilcoxon_rank_test(a, b)
        assert asl < 0.05
        # Exact enumeration over the C(8,4) regroupings agrees: only the
        # observed split reaches the observed rank sum.
        assert exact_rank_sum_asl(a, b) == pytest.approx(1 / 70, abs=1e-12)

    def test_single_element_samples(self):
        asl = wilcoxon_rank_test([1.0], [0.0])
        assert asl > 0.05
        assert exact_rank_sum_asl([1.0], [0.0]) == 0.5

    def test_direction_is_one_sided(self):
        high, low = [5.0, 6.0, 7.0], [1.0, 2.0, 3.0]
        assert wilcoxon_rank_test(high, low) < 0.5 < wilcoxon_rank_test(low, high)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_test([], [1.0])


class TestExpertRatingSummary:
    def rated_case(self, i, **ratings):
        return CaseRecord(id=f"c{i:02d}", observations=(), expert_ratings=ratings or None)

    def test_all_tens(self):
        cases = [self.rated_case(i, simple_bayes=10.0) for i in range(3)]
        summary = expert_rating_summary(cases, uniform_weights(3), ["simple_bayes"])
        assert summary["simple_bayes"] == (10.0, 0.0)

    def test_two_point_spread(self):
        cases = [self.rated_case(0, simple_bayes=10.0), self.rated_case(1, simple_bayes=0.0)]
        summary = expert_rating_summary(cases, uniform_weights(2), ["simple_bayes"])
        assert summary["simple_bayes"] == (5.0, 5.0)

    def test_one_row_per_method(self):
        cases = [self.rated_case(i, simple_bayes=8.0, odds_likelihood=6.0) for i in range(2)]
        summary = expert_rating_summary(cases, uniform_weights(2), ["simple_bayes", "odds_likelihood"])
        assert set(summary) == {"simple_bayes", "odds_likelihood"}
        assert all(len(v) == 2 for v in summary.values())

    def test_missing_rating_names_case_and_method(self):
        cases = [self.rated_case(0, simple_bayes=8.0), self.rated_case(1)]
        with pytest.raises(MissingRatings, match="c01.*simple_bayes"):
            expert_rating_summary(cases, uniform_weights(2), ["simple_bayes"])


class TestEvaluateMethods:
    def run(self, fixture_kb, fixture_cases, fixture_utilities, **kwargs):
        kwargs.setdefault("methods", ["simple_bayes_meu", "simple_bayes", "odds_likelihood", "naive_dempster_shafer"])
        kwargs.setdefault("gold_source", "informed")
        kwargs.setdefault("seed", 7)
        kwargs.setdefault("iterations", 2000)
        methods = kwargs.pop("methods")
        gold_source = kwargs.pop("gold_source")
        return evaluate_methods(fixture_kb, fixture_cases, fixture_utilities, methods, gold_source, **kwargs)

    def test_huge_disutilities_give_finite_numbers(self, fixture_kb, fixture_cases, fixture_utilities):
        """Disutilities built in code may exceed the loader's 1e6 bound; at
        1e151 times the fixture's the squared deviations overflowed."""
        huge = UtilityMatrix(
            classes=fixture_utilities.classes,
            class_disutility={k: v * 1e151 for k, v in fixture_utilities.class_disutility.items()},
            expansion=fixture_utilities.expansion,
        )
        report = self.run(fixture_kb, fixture_cases, huge)
        numbers = report_numbers(report)
        assert numbers and all(math.isfinite(x) for x in numbers)
        assert max(numbers) > 1e155

    @settings(max_examples=500, deadline=None)
    @given(
        values=st.lists(MICROMORTS, min_size=9, max_size=9),
        tie=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
        scale=st.none() | st.sampled_from(EDGE_MICROMORTS),
    )
    @example(values=[0.0 if i == j else MAX_FLOAT for i in range(3) for j in range(3)], tie=None, scale=None)
    @example(values=[0.0] * 9, tie=None, scale=1e300)
    @example(values=[0.0] * 9, tie=None, scale=1.7e302)
    @example(values=[0.0] * 9, tie=None, scale=5e-324)
    @example(values=[0.0] * 9, tie=None, scale=0.0)
    @example(values=[0.0] * 9, tie=(0, 2), scale=MAX_FLOAT)
    def test_code_built_utilities_are_rejected_or_reported(
        self, fixture_kb, fixture_cases, fixture_utilities, values, tie, scale
    ):
        """Any code-built utility matrix over the fixture's classes either
        raises an error naming a bad value or gives a finite, well-formed
        report.  ``scale`` multiplies the fixture's own table instead of
        using ``values``; ``tie`` copies one diagnosed-class column onto another."""
        classes = fixture_utilities.classes
        pairs = [(i, j) for i in classes for j in classes]
        table = dict(zip(pairs, values))
        if scale is not None:
            table = {pair: fixture_utilities.class_disutility[pair] * scale for pair in pairs}
        if tie is not None:
            source, target = classes[tie[0]], classes[tie[1]]
            for true_class in classes:
                table[(true_class, target)] = table[(true_class, source)]
        try:
            utilities = UtilityMatrix(classes, table, fixture_utilities.expansion)
            report = self.run(fixture_kb, fixture_cases, utilities, iterations=1000)
        except (UncertainDxError, ValueError) as exc:
            message = str(exc)
            assert "\n" not in message
            assert any(repr(v) in message for v in table.values() if not 0.0 <= v < math.inf), message
            return
        assert all(0.0 <= v < math.inf for v in table.values())
        assert all(math.isfinite(x) for x in report_numbers(report))
        sections = report.to_tsv().split("\n[")
        assert [section.split("]", 1)[0].lstrip("[") for section in sections] == list(evaluation.REPORT_COLUMNS)
        for section in sections:
            header, *rows = section.rstrip("\n").split("\n")[1:]
            assert all(len(row.split("\t")) == len(header.split("\t")) for row in rows)

    def test_row_labels_and_order(self, fixture_kb, fixture_cases, fixture_utilities):
        report = self.run(fixture_kb, fixture_cases, fixture_utilities)
        assert [row.row for row in report.decision_rows] == [
            "Informed gold standard",
            "Simple Bayes-MEU",
            "Simple Bayes",
            "Odds-likelihood",
            "Naive Dempster-Shafer",
        ]
        assert [row.row for row in report.gold_rows] == [
            "Informed Gold Standard",
            "Descriptive Gold Standard",
        ]

    def test_hand_computed_aggregates(self, fixture_kb, fixture_cases, fixture_utilities):
        """Frozen from exact decimal arithmetic over the fixture: gold
        ratings (23940, 151100, 178100, 165500) with weights
        (1/2, 1/5, 1/6, 2/15); the Bayes-family methods differ from gold
        only on c4 (by 17500) and the combination rule also on c4
        (by 177150)."""
        report = self.run(fixture_kb, fixture_cases, fixture_utilities)
        rows = {row.row: row for row in report.decision_rows}
        assert rows["Informed gold standard"].absolute_mean_micromorts == pytest.approx(93940.0, abs=1e-6)
        for label in ("Simple Bayes-MEU", "Simple Bayes", "Odds-likelihood"):
            assert rows[label].diff_mean == pytest.approx(17500 * 2 / 15, abs=1e-6)
        assert rows["Naive Dempster-Shafer"].diff_mean == pytest.approx(177150 * 2 / 15, abs=1e-6)
        assert rows["Simple Bayes-MEU"].gold_agreement == "3 of 4"
        assert rows["Naive Dempster-Shafer"].gold_agreement == "1 of 4"
        assert report.gold_rows[1].diff_mean == pytest.approx(17500 * 2 / 15, abs=1e-6)

    def test_poisoned_case_excluded_with_reason(self, fixture_kb, fixture_cases, fixture_utilities):
        report = self.run(fixture_kb, fixture_cases, fixture_utilities)
        assert report.case_count == 4
        assert [(e.case, e.reason) for e in report.exclusions] == [
            ("c5", "simple_bayes: AllHypothesesRuledOut")
        ]

    def test_no_cases_remain_after_exclusions(self, fixture_kb, fixture_cases, fixture_utilities):
        with pytest.raises(ValidationError) as raised:
            self.run(fixture_kb, [fixture_cases[4]], fixture_utilities)
        assert raised.value.violations == ["no cases remain after exclusions"]

    def test_each_row_is_a_named_tuple_of_its_section_columns(self, fixture_kb, fixture_cases, fixture_utilities):
        """``REPORT_COLUMNS`` alone defines a row: each section's row type has
        exactly its columns as fields, and the report pairs each section
        with rows of that type only.  The fixture report fills every section."""
        row_types = {
            "decision_theoretic": evaluation.DecisionRow,
            "gold_standards": evaluation.GoldRow,
            "expert_ratings": evaluation.ExpertRow,
            "significance": evaluation.SignificanceResult,
            "exclusions": evaluation.Exclusion,
        }
        report = self.run(fixture_kb, fixture_cases, fixture_utilities)
        sections = report._sections()
        assert [name for name, _, _ in sections] == list(evaluation.REPORT_COLUMNS) == list(row_types)
        for name, columns, rows in sections:
            assert row_types[name]._fields == columns == evaluation.REPORT_COLUMNS[name]
            assert rows and all(type(row) is row_types[name] for row in rows)

    def test_gold_never_beaten_on_fixture(self, fixture_kb, fixture_cases, fixture_utilities):
        """Recompute the per-case identity with public operations: the gold
        diagnosis minimizes expected disutility, so every method rating is
        at least the gold rating, with equality when diagnoses coincide."""
        engines = {
            "simple_bayes": simple_bayes,
            "odds_likelihood": odds_likelihood,
            "naive_dempster_shafer": naive_dempster_shafer,
        }
        for case in fixture_cases[:4]:
            p_gold = case.gold_informed
            dx_gold = meu_diagnosis(p_gold, fixture_utilities, fixture_kb)
            r_gold = expected_disutility(p_gold, fixture_utilities, dx_gold, fixture_kb)
            for run in engines.values():
                dx = max_belief_diagnosis(run(fixture_kb, case.observations))
                r = expected_disutility(p_gold, fixture_utilities, dx, fixture_kb)
                assert r >= r_gold
                if dx == dx_gold:
                    assert r == r_gold

    def test_diffs_zero_when_methods_match_gold(self):
        kb = KnowledgeBase(
            diseases=(
                Disease(id="benign", name="", prior=0.5, equivalence_class="b"),
                Disease(id="lethal", name="", prior=0.5, equivalence_class="l"),
            ),
            features=(Feature(id="f", name="", values=("a", "b")),),
            conditionals=ConditionalTable(
                {("f", "a", "benign"): 0.9, ("f", "b", "benign"): 0.1, ("f", "a", "lethal"): 0.1, ("f", "b", "lethal"): 0.9}
            ),
        )
        utilities = UtilityMatrix(
            classes=("b", "l"),
            class_disutility={("b", "b"): 0.0, ("b", "l"): 100.0, ("l", "b"): 10.0, ("l", "l"): 0.0},
            expansion={"benign": "b", "lethal": "l"},
        )
        gold = {"benign": 0.9, "lethal": 0.1}
        cases = [
            CaseRecord(
                id=f"c{i}",
                observations=(Observation("f", "a"),),
                true_diagnosis="benign",
                gold_informed=BeliefDistribution.from_unnormalized(gold, method="external"),
            )
            for i in range(3)
        ]
        report = evaluate_methods(
            kb, cases, utilities, ["simple_bayes", "naive_dempster_shafer"], "informed", seed=0, iterations=1000
        )
        for row in report.decision_rows[1:]:
            assert row.diff_mean == 0.0
            assert row.gold_agreement == "3 of 3"
        assert all(r.asl == 1.0 for r in report.significance if r.test == "monte_carlo_permutation")

    def test_descriptive_gold_source(self, fixture_kb, fixture_cases, fixture_utilities):
        report = self.run(fixture_kb, fixture_cases, fixture_utilities, gold_source="descriptive")
        assert report.decision_rows[0].row == "Descriptive gold standard"
        assert [row.row for row in report.gold_rows] == [
            "Descriptive Gold Standard",
            "Informed Gold Standard",
        ]

    def test_expert_rows_cover_distribution_methods(self, fixture_kb, fixture_cases, fixture_utilities):
        report = self.run(fixture_kb, fixture_cases, fixture_utilities)
        assert [row.method for row in report.expert_rows] == [
            "Simple Bayes",
            "Odds-likelihood",
            "Naive Dempster-Shafer",
        ]
        by_label = {r.method: r for r in report.expert_rows}
        assert by_label["Simple Bayes"].mean == pytest.approx(8.2333333, abs=1e-6)
        assert by_label["Odds-likelihood"].mean == pytest.approx(7.3333333, abs=1e-6)
        assert by_label["Naive Dempster-Shafer"].mean == pytest.approx(0.6333333, abs=1e-6)

    def test_expert_section_omitted_without_ratings(self, fixture_kb, fixture_cases, fixture_utilities):
        stripped = [dataclasses.replace(c, expert_ratings=None) for c in fixture_cases]
        report = self.run(fixture_kb, stripped, fixture_utilities)
        assert report.expert_rows == ()
        assert all(r.test != "wilcoxon_rank_sum" for r in report.significance)

    def test_partial_ratings_are_an_error(self, fixture_kb, fixture_cases, fixture_utilities):
        cases = list(fixture_cases)
        cases[1] = dataclasses.replace(cases[1], expert_ratings=None)
        with pytest.raises(MissingRatings, match="c2"):
            self.run(fixture_kb, cases, fixture_utilities)

    def test_missing_gold_is_an_input_error(self, fixture_kb, fixture_cases, fixture_utilities):
        cases = list(fixture_cases)
        cases[2] = dataclasses.replace(cases[2], gold_informed=None)
        with pytest.raises(MissingGoldStandard, match="c3"):
            self.run(fixture_kb, cases, fixture_utilities)

    def test_every_case_is_inferred_before_any_is_rated(self, fixture_kb, fixture_cases, fixture_utilities):
        """An input error in the last case's inference wins over a rating error
        that the first case would raise: with "fl" unmapped, rating any case
        raises UnmappedDisease, but no case is rated before all are inferred."""
        unmapped = dataclasses.replace(
            fixture_utilities,
            expansion={d: c for d, c in fixture_utilities.expansion.items() if d != "fl"},
        )
        last = CaseRecord(
            id="zz",
            observations=(Observation(feature="nope", value="x"),),
            true_diagnosis="va",
            gold_informed=fixture_cases[0].gold_informed,
        )
        with pytest.raises(UnknownObservation, match=r"^unknown feature 'nope'$"):
            self.run(fixture_kb, [*fixture_cases, last], unmapped, iterations=1000)

    @pytest.mark.parametrize("methods", [["simple_bayes"], ["simple_bayes", "odds_likelihood"]])
    def test_iterations_below_the_floor_rejected_before_inference(
        self, methods, fixture_kb, fixture_cases, fixture_utilities
    ):
        """With one method no permutation test runs, and -3 iterations used to
        reach the report.  The floor is checked before any case is inferred:
        the last case here would fail inference."""
        last = CaseRecord(
            id="zz",
            observations=(Observation(feature="nope", value="x"),),
            true_diagnosis="va",
            gold_informed=fixture_cases[0].gold_informed,
        )
        with pytest.raises(ValueError, match=r"^iterations must be at least 1000, got -3$"):
            self.run(fixture_kb, [*fixture_cases, last], fixture_utilities, methods=methods, iterations=-3)

    def test_gold_pair_requires_both_everywhere(self, fixture_kb, fixture_cases, fixture_utilities):
        cases = list(fixture_cases)
        cases[2] = dataclasses.replace(cases[2], gold_descriptive=None)
        report = self.run(fixture_kb, cases, fixture_utilities)
        assert report.gold_rows == ()

    def test_method_validation(self, fixture_kb, fixture_cases, fixture_utilities):
        with pytest.raises(ValueError, match="unknown method"):
            self.run(fixture_kb, fixture_cases, fixture_utilities, methods=["guesswork"])
        with pytest.raises(ValueError, match="no methods"):
            self.run(fixture_kb, fixture_cases, fixture_utilities, methods=[])
        with pytest.raises(ValueError, match="duplicate"):
            self.run(fixture_kb, fixture_cases, fixture_utilities, methods=["simple_bayes", "simple_bayes"])
        with pytest.raises(ValueError, match="gold source"):
            self.run(fixture_kb, fixture_cases, fixture_utilities, gold_source="peer_review")

    def test_report_is_seed_deterministic(self, fixture_kb, fixture_cases, fixture_utilities):
        a = self.run(fixture_kb, fixture_cases, fixture_utilities)
        b = self.run(fixture_kb, fixture_cases, fixture_utilities)
        assert a.to_tsv() == b.to_tsv()
        assert a.to_json() == b.to_json()

    def test_subset_of_methods(self, fixture_kb, fixture_cases, fixture_utilities):
        report = self.run(fixture_kb, fixture_cases, fixture_utilities, methods=["simple_bayes"])
        assert [row.row for row in report.decision_rows] == [
            "Informed gold standard",
            "Simple Bayes",
        ]
        assert all(r.test != "monte_carlo_permutation" for r in report.significance)

    def test_sign_flips_drawn_once_per_evaluation(
        self, fixture_kb, fixture_cases, fixture_utilities, monkeypatch
    ):
        """The six pair tests share one (n, iterations, seed), so their
        sign-flip bits come from one draw of one RNG per iteration."""
        constructed = 0

        class CountingRandom(random.Random):
            def __init__(self, *args):
                nonlocal constructed
                constructed += 1
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)
        evaluation._sign_flips.cache_clear()
        report = self.run(fixture_kb, fixture_cases, fixture_utilities, iterations=1000)
        assert sum(r.test == "monte_carlo_permutation" for r in report.significance) == 6
        assert constructed == 1000
