"""Rating arithmetic, case weighting, significance tests, report pipeline."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import (
    never_called,
    random_kb,
    reference_class_disutility,
    reference_expected_disutility,
    reference_flip_threshold,
    reference_meu_diagnosis,
    reference_permutation_test,
    reference_rating_pass,
)

from uncertain_dx import evaluation
from uncertain_dx.decision import UtilityMatrix, max_belief_diagnosis, meu_diagnosis
from uncertain_dx.engine import naive_dempster_shafer, odds_likelihood, simple_bayes
from uncertain_dx.errors import (
    InferenceError,
    MissingGoldStandard,
    UncertainDxError,
    MissingRatings,
    MissingTrueDiagnosis,
    UnknownDisease,
    UnknownObservation,
    UnmappedDisease,
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
    CALCULI,
    GOLD_SOURCES,
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

    def test_unknown_diagnosis_rejected(self):
        with pytest.raises(UnknownDisease) as raised:
            expected_disutility(dist(benign=1.0), BENIGN_LETHAL, "nope", BL_KB)
        assert str(raised.value) == "unknown diagnosis 'nope'"


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

    @pytest.mark.parametrize("weight", [-0.1, 1.5, math.nan])
    def test_weight_outside_unit_interval_rejected(self, weight):
        with pytest.raises(ValueError) as raised:
            CaseWeight("c0", weight)
        assert str(raised.value) == f"weight for 'c0' outside [0, 1]: {weight!r}"

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

    def test_empty_rejected(self):
        with pytest.raises(ValueError) as raised:
            weighted_mean_sd([], [])
        assert str(raised.value) == "empty sample"

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
    @example([0.0, 1.787289733202862e76], 0)
    def test_scaling_leaves_the_bits(self, values, seed):
        """With normalized weights, as ``case_weights`` makes them: below the
        threshold nothing is scaled, and above it the scaled result equals
        the unscaled one computed a power of two lower. Squares are taken as
        products: ``d ** 2`` goes through libm's pow, which misrounds the
        example's second deviation by one ulp, so scaling would move it."""
        rng = random.Random(seed)
        raw = [rng.random() + 1e-3 for _ in values]
        weights = [CaseWeight(f"c{i}", r / math.fsum(raw)) for i, r in enumerate(raw)]
        mean = math.fsum(w.weight * v for v, w in zip(values, weights))
        variance = math.fsum(w.weight * ((v - mean) * (v - mean)) for v, w in zip(values, weights))
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

    def test_iteration_cap_is_checked_before_the_draw(self, monkeypatch):
        """One past the cap is rejected before any draw; the cap itself passes the check
        (it is not run: the draw alone would take seconds)."""
        monkeypatch.setattr(evaluation, "_flip_patterns", never_called)
        with pytest.raises(ValueError, match=r"^iterations must be at most 1000000, got 1000001$"):
            permutation_test([1.0], uniform_weights(1), iterations=evaluation.MAX_ITERATIONS + 1, seed=0)
        evaluation._check_iterations(evaluation.MAX_ITERATIONS)

    @pytest.mark.parametrize("diffs", [[0.0] * 5, [-1.0, -2.5, -1e-300, -3000.0]])
    def test_every_draw_hits_without_a_draw(self, diffs, monkeypatch):
        """When even the sum of the negative terms reaches the threshold, every flip hits,
        and the ASL is 1 before any sign flip is drawn."""
        monkeypatch.setattr(evaluation, "_flip_patterns", never_called)
        assert permutation_test(diffs, uniform_weights(len(diffs)), iterations=1000, seed=0) == 1.0

    @pytest.fixture
    def exact_draws(self, monkeypatch):
        """How many draws each call of the exact-table fallback scores."""
        scored = []
        exact_hits = evaluation._exact_hits

        def counting(terms, threshold, columns, counts, unsure):
            scored.append(unsure.count(1))
            return exact_hits(terms, threshold, columns, counts, unsure)

        monkeypatch.setattr(evaluation, "_exact_hits", counting)
        return scored

    def test_exact_fallback_scores_only_draws_the_high_parts_leave_open(
        self, exact_draws, fixture_kb, fixture_cases, fixture_utilities
    ):
        """The lanes decide every draw of the fixture's six tests and of a 24-case sample
        whose integer range is under 2**60; high parts that tie leave some to the exact
        tables.  A count that sent every draw to the tables would keep every ASL."""
        report = evaluate_methods(
            fixture_kb, fixture_cases, fixture_utilities, list(evaluation.METHODS), "informed", seed=7, iterations=2000
        )
        assert sum(r.test == "monte_carlo_permutation" for r in report.significance) == 6
        assert sum(exact_draws) == 0

        diffs = [1000.0 * (k % 5 - 2) + k / 2**44 for k in range(24)]
        weights = [CaseWeight(f"c{i:02d}", 1 / 32) for i in range(24)]
        terms, _ = evaluation._flip_threshold([w.weight * d for d, w in zip(diffs, weights)], 0.0)
        assert 2**58 <= sum(map(abs, terms)) < 2**60
        expected = reference_permutation_test(diffs, weights, 2000, 3)
        assert 0.0 < permutation_test(diffs, weights, 2000, 3) == expected < 1.0
        assert sum(exact_draws) == 0

        # Flips of the two 1e300 terms cancel in the high parts, leaving the subnormals to decide.
        diffs, weights = [1e300, -1e300, 5e-324, 5e-324], [CaseWeight(f"c{i}", 1.0) for i in range(4)]
        assert permutation_test(diffs, weights, 1000, 0) == reference_permutation_test(diffs, weights, 1000, 0)
        assert sum(exact_draws) > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            permutation_test([], [], iterations=1000, seed=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError) as raised:
            permutation_test([1.0], uniform_weights(2), iterations=1000, seed=0)
        assert str(raised.value) == "1 diffs but 2 weights"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_diffs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            permutation_test([1.0, bad], uniform_weights(2), iterations=1000, seed=0)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25, 40])
    def test_sign_flips_are_byte_columns_of_each_draw(self, n):
        """Byte k of column j is byte j, little-endian, of the k-th distinct
        ``getrandbits(n)`` in draw order, iteration i's drawn from the RNG
        seeded (seed << 32) + i."""
        iterations, seed = 1001, 5
        draws = [random.Random((seed << 32) + i).getrandbits(n) for i in range(iterations)]
        columns, counts = evaluation._flip_patterns(n, iterations, seed)
        width = -(-n // 8)
        assert len(columns) == width
        assert all(type(c) is bytes and len(c) == len(counts) for c in columns)
        first_seen = list(dict.fromkeys(draws))
        assert [bytes(c[k] for c in columns) for k in range(len(counts))] == [
            bits.to_bytes(width, "little") for bits in first_seen
        ]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25, 40])
    def test_flip_patterns_count_each_distinct_draw(self, n):
        """Each distinct draw once, with counts that add up to the iterations
        and, repeated, give back the multiset of the RNGs' draws."""
        iterations, seed = 1001, 5
        draws = [random.Random((seed << 32) + i).getrandbits(n) for i in range(iterations)]
        columns, counts = evaluation._flip_patterns(n, iterations, seed)
        patterns = [int.from_bytes(bytes(pattern), "little") for pattern in zip(*columns)]
        assert len(set(patterns)) == len(patterns) == len(counts)
        assert sum(counts) == iterations and min(counts) >= 1
        assert counts == tuple(map(draws.count, patterns))
        assert sorted(p for p, k in zip(patterns, counts) for _ in range(k)) == sorted(draws)
        if n <= 8:
            assert len(patterns) <= 2**n

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
    # The threshold is at most the sum of the negative terms: every draw hits before any lane is built.
    @example(sample=([0.0] * 5, [0.2] * 5), seed=0, iterations=1000)
    @example(sample=([-1.0, -2.5, -1e-300, -3000.0], [0.25] * 4), seed=1, iterations=1000)
    # Integer ranges 2**60 - 1 and 2**60: the first fills the lanes unshifted, the second shifts by 1.
    @example(sample=([2.0**60 - 2**10, 500.0, 300.0, 200.0, -20.0, -3.0], [1.0] * 6), seed=0, iterations=1000)
    @example(sample=([2.0**60 - 2**10, 500.0, 300.0, 200.0, -20.0, -4.0], [1.0] * 6), seed=0, iterations=1000)
    # The 1e300 terms' high parts tie when their flips cancel, so the exact tables score those draws.
    @example(sample=([1e300, -1e300, 5e-324, 5e-324], [1.0] * 4), seed=0, iterations=1000)
    def test_matches_the_fsum_reference(self, sample, seed, iterations):
        """The exact-integer hit rule finds the same hits as one ``math.fsum``
        per iteration, so every ASL equals the reference's."""
        diffs, values = sample
        weights = [CaseWeight(f"c{i:02d}", w) for i, w in enumerate(values)]
        expected = reference_permutation_test(diffs, weights, iterations, seed)
        assert permutation_test(diffs, weights, iterations, seed) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        weighted=st.lists(st.integers(-3, 3).map(float) | st.floats(-1e300, 1e300), min_size=1, max_size=8),
        observed=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    )
    # observed 0.0: the float below it is -5e-324.
    @example(weighted=[1.0, -1.0], observed=None)
    # observed -max: no float lies below it, so the midpoint is taken with -2**1024.
    @example(weighted=[-sys.float_info.max], observed=None)
    # observed a power of two: the float below it has half its ulp.
    @example(weighted=[0.5, 0.25, 0.25], observed=None)
    # Every term subnormal.
    @example(weighted=[5e-324, -1e-310, 2e-320], observed=None)
    # Flipped sums on the midpoint below an observed whose last significand bit is odd, then even.
    @example(weighted=[1.0, 3 * 2.0**-54, 2.0**-54], observed=None)
    @example(weighted=[1.0, 2.0**-55, 2.0**-55], observed=None)
    def test_flip_threshold_matches_the_fraction_reference(self, weighted, observed):
        """The integer midpoint gives the ``Fraction`` reference's terms and
        threshold (``observed`` None is the unflipped ``math.fsum``), and on
        every flip pattern the threshold decides a hit as ``math.fsum`` does."""
        observed = math.fsum(weighted) if observed is None else observed
        terms, threshold = evaluation._flip_threshold(weighted, observed)
        assert (terms, threshold) == reference_flip_threshold(weighted, observed)
        for bits in range(2 ** len(weighted)):
            kept = sum(a for k, a in enumerate(terms) if bits >> k & 1)
            flipped = math.fsum(v if bits >> k & 1 else -v for k, v in enumerate(weighted))
            assert (kept >= threshold) == (flipped >= observed)


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2, 2.0]) | st.floats(-3.0, 3.0), min_size=1, max_size=40))
    def test_midranks_sum_share_and_count_ties(self, pooled):
        """The ranks sum to exactly n(n + 1)/2, equal values share one rank, and
        the tie term is the sum of t^3 - t over the multiplicity t of each value."""
        ranks, tie_sum = evaluation._midranks(pooled)
        n = len(pooled)
        assert math.fsum(ranks) == n * (n + 1) / 2
        for x in pooled:
            assert len({rank for y, rank in zip(pooled, ranks) if y == x}) == 1
        assert tie_sum == sum(t**3 - t for t in Counter(pooled).values())


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

    def test_rank_test_puts_the_better_rated_method_first(self, fixture_kb, fixture_cases, fixture_utilities):
        """Odds-likelihood rated above simple Bayes, which comes first in
        ``CALCULI``, swaps the pair: the row reads odds-likelihood first, with
        the rank sum and ASL of its ratings against simple Bayes's."""
        cases = [
            dataclasses.replace(
                c, expert_ratings={"simple_bayes": 2.0 + i, "odds_likelihood": 6.0 + i, "naive_dempster_shafer": 1.0}
            )
            for i, c in enumerate(fixture_cases)
        ]
        report = self.run(fixture_kb, cases, fixture_utilities)
        excluded = {e.case for e in report.exclusions}
        included = [c for c in cases if c.id not in excluded]
        odds = [c.expert_ratings["odds_likelihood"] for c in included]
        bayes = [c.expert_ratings["simple_bayes"] for c in included]
        ranks = {r.comparison: r for r in report.significance if r.test == "wilcoxon_rank_sum"}
        assert list(ranks) == [
            "Odds-likelihood vs Simple Bayes",
            "Simple Bayes vs Naive Dempster-Shafer",
            "Odds-likelihood vs Naive Dempster-Shafer",
        ]
        row = ranks["Odds-likelihood vs Simple Bayes"]
        assert (row.statistic, row.asl) == evaluation._rank_sum_test(odds, bayes)
        assert row.asl < 0.5 < evaluation._rank_sum_test(bayes, odds)[1]

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
        evaluation._flip_patterns.cache_clear()
        report = self.run(fixture_kb, fixture_cases, fixture_utilities, iterations=1000)
        assert sum(r.test == "monte_carlo_permutation" for r in report.significance) == 6
        assert constructed == 1000


def random_rating_pass_inputs(rng: random.Random):
    """A random (KB, utilities, gold source, inferred cases, rules) draw for the rating pass.

    Classes are coarser than diseases, and a model may have just one.
    Micromorts mix 0.0, -0.0 and denormal entries with uniform ones, and two
    classes may share one diagnosed column, so their prices tie.  The
    expansion may leave diseases unmapped.  Gold distributions omit
    diseases, put their mass on one disease, carry -0.0 beliefs, or name a
    disease outside the KB.
    """
    base = random_kb(rng, rng.randint(1, 7), 1, max_values=2)
    classes = [f"k{i}" for i in range(rng.randint(1, min(4, len(base.diseases))))]
    expansion = {d.id: rng.choice(classes) for d in base.diseases}
    kb = KnowledgeBase(
        diseases=tuple(dataclasses.replace(d, equivalence_class=expansion[d.id]) for d in base.diseases),
        features=base.features,
        conditionals=base.conditionals,
    )
    palette = (0.0, -0.0, 5e-324, 1.0, 1e6)
    table = {
        (i, j): rng.choice(palette) if rng.random() < 0.5 else rng.uniform(0.0, 1e6)
        for i in classes
        for j in classes
    }
    if len(classes) > 1 and rng.random() < 0.5:
        source, tied = rng.sample(classes, 2)
        for i in classes:
            table[(i, tied)] = table[(i, source)]
    outside = rng.random() < 0.1
    if outside:
        expansion["zz"] = rng.choice(classes)
    if rng.random() < 0.3:  # diseases dropped from the expansion go unmapped
        for d in rng.sample(sorted(expansion), rng.randint(1, len(expansion))):
            del expansion[d]
    utilities = UtilityMatrix(classes=tuple(classes), class_disutility=table, expansion=expansion)
    ids = [d.id for d in kb.diseases]

    def distribution(method: str, over: list[str]) -> BeliefDistribution:
        if rng.random() < 0.2:  # a point mass, the other diseases at 0.0 or left out
            top = rng.choice(over)
            raw = {d: float(d == top) for d in over} if rng.random() < 0.5 else {top: 1.0}
        else:
            raw = {d: 0.0 if rng.random() < 0.3 else rng.random() for d in over}
            raw[rng.choice(over)] = rng.random() + 1e-3
        p = BeliefDistribution.from_unnormalized(raw, method=method)
        if method == "external" and rng.random() < 0.5:
            p = dataclasses.replace(p, beliefs={d: b or -0.0 for d, b in p.beliefs.items()})
        return p

    def gold() -> BeliefDistribution:
        over = rng.sample(ids, rng.randint(1, len(ids)))
        return distribution("external", over + ["zz"] if outside and rng.random() < 0.5 else over)

    gold_source, other_source = rng.sample(GOLD_SOURCES, 2)
    inferred = []
    for i in range(rng.randint(1, 5)):
        golds = {gold_source: gold(), other_source: gold() if rng.random() < 0.8 else None}
        case = CaseRecord(
            id=f"c{i}",
            observations=(),
            true_diagnosis=rng.choice(ids),
            **{f"gold_{source}": p for source, p in golds.items()},
        )
        dists = {calculus: distribution(calculus, ids) for calculus in CALCULI}
        inferred.append((case, {other_source: golds[other_source], **dists}))
    return kb, utilities, gold_source, inferred, rating_rules(inferred, other_source)


def rating_rules(inferred, other_source: str) -> dict[str, tuple[str, bool]]:
    """Each rated row's (source, whether it diagnoses by MEU), as ``evaluate_methods`` sets them
    for every method: the other gold is a row when every case has it."""
    rules = {m: evaluation.METHODS[m][1:] for m in evaluation.METHODS}
    if all(dists[other_source] is not None for _, dists in inferred):
        rules[other_source] = (other_source, True)
    return rules


def decision_outcome(decide, *args):
    """A decision rule's diagnosis, or the type and message it raised."""
    try:
        return decide(*args)
    except Exception as exc:  # any error is an outcome to compare
        return type(exc), str(exc)


def rated_hex(rate, *args):
    """A rating as ``float.hex``, so 0.0 and -0.0 differ."""
    return rate(*args).hex()


def rating_outcome(rate, *args):
    """A rating pass's result with every float as ``float.hex``, or the type and message it raised."""
    try:
        gold_ratings, ratings, agreement = rate(*args)
    except Exception as exc:  # any error is an outcome to compare
        return type(exc), str(exc)
    return [r.hex() for r in gold_ratings], {row: [r.hex() for r in rated] for row, rated in ratings.items()}, agreement


def inference_pass(kb, cases, gold_source):
    """(inferred cases, rules) as ``evaluate_methods`` builds them for every method."""
    other_source = next(source for source in GOLD_SOURCES if source != gold_source)
    inferred = []
    for case in sorted(cases, key=lambda c: c.id):
        try:
            dists = {calculus: evaluation._INFERENCE[calculus](kb, case.observations) for calculus in CALCULI}
        except InferenceError:
            continue
        inferred.append((case, {other_source: case.gold(other_source), **dists}))
    return inferred, rating_rules(inferred, other_source)


class TestRatingPass:
    """The rating pass prices from a per-evaluation table; the reference makes
    one MEU decision and one pricing call per row, as the rules define them."""

    def test_matches_the_per_decision_reference_bit_for_bit(self):
        rng = random.Random(16)
        draws = [random_rating_pass_inputs(rng) for _ in range(400)]
        outcomes = [rating_outcome(reference_rating_pass, *args) for args in draws]
        for args, expected in zip(draws, outcomes):
            assert rating_outcome(evaluation._rating_pass, *args) == expected
        # The draws reach every edge the table must price as the reference does.
        ties = zero_prices = single_class = outside = 0
        for kb, utilities, gold_source, inferred, rules in draws:
            single_class += len(utilities.classes) == 1
            outside += "zz" in utilities.expansion
            for case, _ in inferred:
                p = case.gold(gold_source)
                if not p.beliefs.keys() <= utilities.expansion.keys():
                    continue
                prices = [reference_class_disutility(p, utilities, c) for c in set(utilities.expansion.values())]
                zero_prices += 0.0 in prices
                ties += len(set(prices)) < len(prices)
        errors = Counter(outcome[0] for outcome in outcomes if isinstance(outcome[0], type))
        assert set(errors) == {UnmappedDisease, UnknownDisease}
        assert min(ties, zero_prices, single_class, outside, *errors.values()) > 10

    def test_meu_diagnosis_matches_the_scan_reference(self):
        """``meu_diagnosis`` against the per-candidate scan it replaced on every
        distribution of random rating-pass draws, unmapped diseases and
        beliefs outside the KB among them: the same id, or the same error
        class and message, on over 40,000 decisions, over 10,000 of which
        raise.  ``expected_disutility`` of one KB disease per decision gives
        the reference's bits or error too."""
        rng = random.Random(20)
        outcomes = []
        while len(outcomes) < 40_000:
            kb, utilities, gold_source, inferred, _ = random_rating_pass_inputs(rng)
            ids = sorted(kb.disease_index)
            for case, dists in inferred:
                for p in (case.gold(gold_source), *filter(None, dists.values())):
                    expected = decision_outcome(reference_meu_diagnosis, p, utilities, kb)
                    assert decision_outcome(meu_diagnosis, p, utilities, kb) == expected
                    outcomes.append(expected)
                    dx = ids[len(outcomes) % len(ids)]
                    expected = decision_outcome(rated_hex, reference_expected_disutility, p, utilities, dx, kb)
                    assert decision_outcome(rated_hex, expected_disutility, p, utilities, dx, kb) == expected
        errors = Counter(outcome[0] for outcome in outcomes if isinstance(outcome, tuple))
        assert sum(errors.values()) >= 10_000
        assert set(errors) == {UnmappedDisease, UnknownDisease}
        assert min(errors[UnmappedDisease], errors[UnknownDisease]) > 100

    def test_reference_agrees_on_the_fixture(self, fixture_kb, fixture_cases, fixture_utilities):
        for gold_source in GOLD_SOURCES:
            inferred, rules = inference_pass(fixture_kb, fixture_cases, gold_source)
            args = (fixture_kb, fixture_utilities, gold_source, inferred, rules)
            assert rating_outcome(evaluation._rating_pass, *args) == rating_outcome(reference_rating_pass, *args)

    @pytest.mark.parametrize("unmapped", [("csd",), ("va",), ("fl", "va"), ("hmc", "va"), ("hns", "sh")])
    @pytest.mark.parametrize("gold_source", GOLD_SOURCES)
    def test_unmapped_disease_raises_as_the_reference(
        self, unmapped, gold_source, fixture_kb, fixture_cases, fixture_utilities
    ):
        """A utility model missing KB diseases: ``evaluate_methods`` raises the
        UnmappedDisease the per-decision pass raises, message and all, naming
        the smallest unmapped id whatever order the golds list diseases in."""
        utilities = dataclasses.replace(
            fixture_utilities,
            expansion={d: c for d, c in fixture_utilities.expansion.items() if d not in unmapped},
        )
        inferred, rules = inference_pass(fixture_kb, fixture_cases, gold_source)
        expected = rating_outcome(reference_rating_pass, fixture_kb, utilities, gold_source, inferred, rules)
        assert expected == (UnmappedDisease, f"disease '{min(unmapped)}' has no equivalence class")
        with pytest.raises(UnmappedDisease) as raised:
            evaluate_methods(fixture_kb, fixture_cases, utilities, list(evaluation.METHODS), gold_source, iterations=1000)
        assert str(raised.value) == expected[1]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("entries", ["all", "one_diagnosed_column", "one_true_row", "one"])
    def test_caller_table_changed_after_construction_changes_no_rating(
        self, value, entries, fixture_kb, fixture_cases, fixture_utilities
    ):
        """Entries of the caller's table set to NaN or inf after validation:
        the model holds its own copy, so the pass rates as it does on the
        unchanged model, bit for bit, and as the reference does."""
        table = dict(fixture_utilities.class_disutility)
        utilities = dataclasses.replace(fixture_utilities, class_disutility=table)
        classes = sorted(utilities.classes)
        for true, diagnosed in list(table):
            if (
                entries == "all"
                or (entries == "one_diagnosed_column" and diagnosed == classes[0])
                or (entries == "one_true_row" and true == classes[-1])
                or (entries == "one" and (true, diagnosed) == (classes[0], classes[-1]))
            ):
                table[(true, diagnosed)] = value
        inferred, rules = inference_pass(fixture_kb, fixture_cases, "informed")
        expected = rating_outcome(evaluation._rating_pass, fixture_kb, fixture_utilities, "informed", inferred, rules)
        assert isinstance(expected[0], list)
        args = (fixture_kb, utilities, "informed", inferred, rules)
        assert rating_outcome(evaluation._rating_pass, *args) == expected
        assert rating_outcome(reference_rating_pass, *args) == expected
