"""Inference-method behavior: worked examples, limit conventions, invariants.

Derived expectations are frozen from the exact-fraction oracles in
support.py, which reproduce each method's documented arithmetic in
rational arithmetic with no shared code path.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (
    exact_naive_ds,
    exact_odds_likelihood,
    exact_simple_bayes,
    kb_with_observations,
    knowledge_bases,
    random_kb,
    random_observations,
    reference_evoking_strength,
    reference_marginal,
    reference_naive_dempster_shafer,
    reference_negation_conditional,
    reference_odds_likelihood,
    reference_simple_bayes,
)
from uncertain_dx import engine
from uncertain_dx.engine import (
    barnett_combine,
    cf_parallel_combine,
    evoking_strength,
    marginal,
    naive_dempster_shafer,
    negation_conditional,
    odds_likelihood,
    simple_bayes,
)
from uncertain_dx.errors import (
    AllHypothesesRuledOut,
    ConflictingObservations,
    DegeneratePrior,
    EmptyEvidence,
    InferenceError,
    UnknownObservation,
    ValidationError,
    ZeroMarginal,
)
from uncertain_dx.kb import (
    CALCULI,
    PROB_SUM_TOL,
    BeliefDistribution,
    ConditionalTable,
    Disease,
    Feature,
    KnowledgeBase,
    Observation,
)
from uncertain_dx.synth import ReplicatedEvidenceSpec, convergence_probe, replicate_evidence_kb


def assert_dist(dist, expected, tol=1e-6):
    assert set(dist.beliefs) == set(expected)
    for disease, value in expected.items():
        assert dist.beliefs[disease] == pytest.approx(value, abs=tol)


def two_disease_kb(priors, likelihoods):
    """Two diseases, one binary feature with p(v1|d) as given."""
    diseases = tuple(
        Disease(id=f"d{i}", name=f"d{i}", prior=p, equivalence_class="c")
        for i, p in enumerate(priors)
    )
    entries = {}
    for i, p in enumerate(likelihoods):
        entries[("f1", "v1", f"d{i}")] = p
        entries[("f1", "v2", f"d{i}")] = 1.0 - p
    return KnowledgeBase(
        diseases=diseases,
        features=(Feature(id="f1", name="f1", values=("v1", "v2")),),
        conditionals=ConditionalTable(entries),
    )


class TestSimpleBayes:
    def test_single_observation(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        dist = simple_bayes(kb, observations)
        assert_dist(dist, {"h1": 0.5, "h2": 0.375, "h3": 0.125}, tol=1e-12)
        assert dist.pre_norm_sum == 1.0
        assert dist.method == "simple_bayes"

    def test_empty_observations_return_priors(self, three_hypotheses_one_token):
        kb, _ = three_hypotheses_one_token
        assert_dist(simple_bayes(kb, []), {"h1": 1 / 3, "h2": 1 / 3, "h3": 1 / 3}, tol=1e-12)

    def test_two_copies_of_the_token(self, three_hypotheses_two_tokens):
        kb, observations = three_hypotheses_two_tokens
        dist = simple_bayes(kb, observations)
        # (0.64, 0.36, 0.04) / 1.04
        assert_dist(dist, {"h1": 0.615385, "h2": 0.346154, "h3": 0.038462})
        assert_dist(dist, exact_simple_bayes(kb, observations), tol=1e-14)

    def test_all_hypotheses_ruled_out(self):
        kb = two_disease_kb([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(AllHypothesesRuledOut):
            simple_bayes(kb, [Observation("f1", "v1")])

    def test_unknown_feature_and_value(self, three_hypotheses_one_token):
        kb, _ = three_hypotheses_one_token
        with pytest.raises(UnknownObservation, match="nope"):
            simple_bayes(kb, [Observation("nope", "present")])
        with pytest.raises(UnknownObservation, match="sideways"):
            simple_bayes(kb, [Observation("e1", "sideways")])

    def test_duplicate_feature_rejected(self, three_hypotheses_two_tokens):
        kb, _ = three_hypotheses_two_tokens
        twice = [Observation("e1", "present"), Observation("e1", "absent")]
        with pytest.raises(ConflictingObservations):
            simple_bayes(kb, twice)


class TestMarginal:
    def test_three_hypothesis_token(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        assert marginal(kb, observations[0]) == pytest.approx(1.6 / 3, abs=1e-15)

    def test_certain_observation(self):
        kb = two_disease_kb([0.5, 0.5], [1.0, 1.0])
        assert marginal(kb, Observation("f1", "v1")) == 1.0

    def test_impossible_observation(self):
        kb = two_disease_kb([0.5, 0.5], [0.0, 0.0])
        assert marginal(kb, Observation("f1", "v1")) == 0.0


class TestNegationConditional:
    def test_worked_values(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        obs = observations[0]
        # (1.6/3 - L/3) / (2/3) for L in (0.8, 0.6, 0.2)
        assert negation_conditional(kb, obs, "h1") == pytest.approx(0.4, abs=1e-15)
        assert negation_conditional(kb, obs, "h2") == pytest.approx(0.5, abs=1e-15)
        assert negation_conditional(kb, obs, "h3") == pytest.approx(0.7, abs=1e-15)

    def test_impossible_under_other_diseases(self):
        kb = two_disease_kb([0.5, 0.5], [0.6, 0.0])
        assert negation_conditional(kb, Observation("f1", "v1"), "d0") == 0.0

    def test_degenerate_prior(self):
        kb = two_disease_kb([1.0], [0.5])
        with pytest.raises(DegeneratePrior):
            negation_conditional(kb, Observation("f1", "v1"), "d0")


class TestOddsLikelihood:
    def test_single_observation_matches_simple_bayes(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        dist = odds_likelihood(kb, observations)
        assert_dist(dist, {"h1": 0.5, "h2": 0.375, "h3": 0.125}, tol=1e-10)
        assert dist.pre_norm_sum == pytest.approx(1.0, abs=1e-10)
        assert dist.method == "odds_likelihood"

    def test_two_copies_of_the_token(self, three_hypotheses_two_tokens):
        kb, observations = three_hypotheses_two_tokens
        dist = odds_likelihood(kb, observations)
        # Pre-normalization beliefs are (2/3, 0.72/1.72, 2/51); their sum
        # exceeds 1 because every hypothesis is updated twice.
        assert dist.pre_norm_sum == pytest.approx(1.124487, abs=1e-6)
        expected, pre_norm = exact_odds_likelihood(kb, observations)
        assert dist.pre_norm_sum == pytest.approx(pre_norm, abs=1e-12)
        assert_dist(dist, expected, tol=1e-12)
        assert_dist(dist, {"h1": 0.592863, "h2": 0.372263, "h3": 0.034874})

    def test_empty_observations_return_priors(self, three_hypotheses_one_token):
        kb, _ = three_hypotheses_one_token
        assert_dist(odds_likelihood(kb, []), {"h1": 1 / 3, "h2": 1 / 3, "h3": 1 / 3}, tol=1e-12)

    def test_zero_likelihood_rules_a_disease_out(self):
        kb = two_disease_kb([0.5, 0.5], [0.6, 0.0])
        dist = odds_likelihood(kb, [Observation("f1", "v1")])
        assert dist.beliefs["d1"] == 0.0

    def test_infinite_odds_take_all_mass(self):
        # v1 is impossible under d1, so p(v1 | not-d0) = 0: infinite odds
        # for d0, and d1 itself is ruled out by its zero likelihood.
        kb = two_disease_kb([0.5, 0.5], [1.0, 0.0])
        dist = odds_likelihood(kb, [Observation("f1", "v1")])
        assert dist.beliefs == {"d0": 1.0, "d1": 0.0}
        assert dist.pre_norm_sum == 1.0

    def test_all_hypotheses_ruled_out(self):
        kb = two_disease_kb([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(AllHypothesesRuledOut):
            odds_likelihood(kb, [Observation("f1", "v1")])

    def test_single_exhaustive_hypothesis(self):
        kb = two_disease_kb([1.0], [0.5])
        dist = odds_likelihood(kb, [Observation("f1", "v1")])
        assert dist.beliefs == {"d0": 1.0}


class TestEvokingStrength:
    def test_single_observation_posterior(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        masses = evoking_strength(kb, observations[0])
        assert masses["h1"] == pytest.approx(0.5, abs=1e-12)
        assert masses["h2"] == pytest.approx(0.375, abs=1e-12)
        assert masses["h3"] == pytest.approx(0.125, abs=1e-12)

    def test_unique_support_takes_all_mass(self):
        kb = two_disease_kb([0.5, 0.5], [0.7, 0.0])
        masses = evoking_strength(kb, Observation("f1", "v1"))
        assert masses == {"d0": 1.0, "d1": 0.0}

    def test_uninformative_observation_is_uniform(self):
        kb = two_disease_kb([0.5, 0.5], [0.3, 0.3])
        masses = evoking_strength(kb, Observation("f1", "v1"))
        assert masses["d0"] == pytest.approx(0.5, abs=1e-15)
        assert masses["d1"] == pytest.approx(0.5, abs=1e-15)

    def test_zero_marginal(self):
        kb = two_disease_kb([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ZeroMarginal):
            evoking_strength(kb, Observation("f1", "v1"))


class TestNaiveDempsterShafer:
    def test_single_observation_equals_evoking_strength(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        dist = naive_dempster_shafer(kb, observations)
        assert_dist(dist, {"h1": 0.5, "h2": 0.375, "h3": 0.125}, tol=1e-12)
        assert dist.pre_norm_sum == pytest.approx(1.0, abs=1e-12)

    def test_two_copies_of_the_token(self, three_hypotheses_two_tokens):
        kb, observations = three_hypotheses_two_tokens
        dist = naive_dempster_shafer(kb, observations)
        # 1 - (1 - ES)^2 per disease: (0.75, 0.609375, 0.234375)
        assert dist.pre_norm_sum == pytest.approx(1.59375, abs=1e-9)
        assert_dist(dist, {"h1": 0.470588, "h2": 0.382353, "h3": 0.147059})
        expected, pre_norm = exact_naive_ds(kb, observations)
        assert dist.pre_norm_sum == pytest.approx(pre_norm, abs=1e-12)
        assert_dist(dist, expected, tol=1e-12)

    def test_empty_observations_rejected(self, three_hypotheses_one_token):
        kb, _ = three_hypotheses_one_token
        with pytest.raises(EmptyEvidence):
            naive_dempster_shafer(kb, [])

    def test_zero_mass_observation_leaves_unnormalized_belief_unchanged(self):
        """An observation evoking a disease with strength zero does not move
        that disease's combined belief at all."""
        kb, observations = replicate_evidence_kb(
            ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.0), n=3)
        )
        short = naive_dempster_shafer(kb, observations[:2])
        full = naive_dempster_shafer(kb, observations)
        assert short.belief("h3") == 0.0
        assert full.belief("h3") == 0.0
        # Unnormalized beliefs agree exactly; only the shared normalizer moves.
        assert full.belief("h3") * full.pre_norm_sum == short.belief("h3") * short.pre_norm_sum

    @pytest.mark.parametrize("likelihoods", [(1.0, 0.0), (0.8, 0.6, 0.0), (0.8, 0.0, 0.0)])
    def test_no_belief_is_negative_zero(self, likelihoods):
        """A disease evoked with strength zero by every observation combines to
        1 - exp(0.0) = -0.0; its belief is 0.0, in every calculus."""
        kb, observations = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform(likelihoods, n=2))
        for calculus in (simple_bayes, odds_likelihood, naive_dempster_shafer):
            beliefs = calculus(kb, observations).beliefs.values()
            assert all(math.copysign(1.0, b) == 1.0 for b in beliefs)

    def test_zero_marginal_propagates(self):
        kb = two_disease_kb([0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ZeroMarginal):
            naive_dempster_shafer(kb, [Observation("f1", "v1")])


class TestCfParallelCombine:
    def test_worked_example(self):
        assert cf_parallel_combine(0.5, 0.375) == pytest.approx(0.6875, abs=1e-15)

    def test_zero_is_identity(self):
        for x in (0.0, 0.125, 0.7, 1.0):
            assert cf_parallel_combine(x, 0.0) == x
            assert cf_parallel_combine(0.0, x) == x

    def test_one_is_absorbing(self):
        for x in (0.0, 0.3, 1.0):
            assert cf_parallel_combine(x, 1.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_commutative_and_associative(self, x, y, z):
        assert cf_parallel_combine(x, y) == pytest.approx(cf_parallel_combine(y, x), abs=1e-12)
        left = cf_parallel_combine(cf_parallel_combine(x, y), z)
        right = cf_parallel_combine(x, cf_parallel_combine(y, z))
        assert left == pytest.approx(right, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=8))
    def test_fold_equals_barnett_combination(self, masses):
        """Folding pairwise parallel combination reproduces the one-shot
        combination rule 1 - prod(1 - m)."""
        folded = reduce(cf_parallel_combine, masses, 0.0)
        direct = 1.0 - math.prod(1.0 - m for m in masses)
        assert folded == pytest.approx(direct, abs=1e-12)
        assert barnett_combine(masses) == pytest.approx(direct, abs=1e-12)

    def test_barnett_combine_zero_mass_exact(self):
        values = [0.3, 0.6, 0.123456]
        assert barnett_combine(values + [0.0]) == barnett_combine(values)

    @pytest.mark.parametrize("masses", [[], [0.0], [0.0, 0.0]], ids=["empty", "one-zero", "two-zeros"])
    def test_barnett_combine_of_no_evidence_is_positive_zero(self, masses):
        assert math.copysign(1.0, barnett_combine(masses)) == 1.0

    @pytest.mark.parametrize("masses", [[1.0], [0.3, 1.0, 0.2]], ids=["one", "among-others"])
    def test_barnett_combine_mass_of_one_absorbs_exactly(self, masses):
        assert barnett_combine(masses) == 1.0

    @pytest.mark.parametrize(
        "masses",
        [[-0.5], [1.5], [math.nan], [0.5, -0.5], [1.0, -math.inf], [0.0, 1.5], [1.0, math.nan]],
        ids=["negative", "above-one", "nan", "negative-after-mass", "minus-inf-after-one", "above-one-after-zero",
             "nan-after-one"],
    )
    def test_barnett_combine_rejects_a_mass_outside_the_unit_interval(self, masses):
        with pytest.raises(ValueError, match=r"^masses must lie in \[0, 1\]$"):
            barnett_combine(masses)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0, 1), st.sampled_from((0.0, 1.0, 5e-324, 1.0 - 2**-53))), max_size=8))
    def test_barnett_combine_keeps_its_bits_on_the_unit_interval(self, masses):
        """Masses in [0, 1] give what the combination gave before it checked them."""
        logs = [-math.inf if m >= 1.0 else math.log1p(-m) for m in masses]
        assert barnett_combine(iter(masses)).hex() == (-math.expm1(math.fsum(logs)) + 0.0).hex()


class TestCrossMethodProperties:
    @settings(max_examples=60, deadline=None)
    @given(kb_with_observations(max_observations=1))
    def test_single_observation_agreement(self, kb_obs):
        """With one observation all three methods coincide and the
        odds-form beliefs sum to one before renormalization."""
        kb, observations = kb_obs
        sb = simple_bayes(kb, observations)
        ol = odds_likelihood(kb, observations)
        ds = naive_dempster_shafer(kb, observations)
        for disease in sb.beliefs:
            assert abs(sb.beliefs[disease] - ol.beliefs[disease]) < 1e-10
            assert abs(sb.beliefs[disease] - ds.beliefs[disease]) < 1e-10
        assert abs(ol.pre_norm_sum - 1.0) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(kb_with_observations(max_observations=4), st.randoms(use_true_random=False))
    def test_order_invariance(self, kb_obs, rng):
        kb, observations = kb_obs
        shuffled = list(observations)
        rng.shuffle(shuffled)
        for method in (simple_bayes, odds_likelihood, naive_dempster_shafer):
            a = method(kb, observations)
            b = method(kb, shuffled)
            for disease in a.beliefs:
                assert abs(a.beliefs[disease] - b.beliefs[disease]) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kb_with_observations(max_observations=4))
    def test_every_distribution_sums_to_one(self, kb_obs):
        kb, observations = kb_obs
        for method in (simple_bayes, odds_likelihood, naive_dempster_shafer):
            dist = method(kb, observations)
            assert abs(math.fsum(dist.beliefs.values()) - 1.0) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(kb_with_observations(max_observations=4))
    def test_simple_bayes_matches_exact_oracle(self, kb_obs):
        kb, observations = kb_obs
        dist = simple_bayes(kb, observations)
        expected = exact_simple_bayes(kb, observations)
        for disease, value in expected.items():
            assert abs(dist.beliefs[disease] - value) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(kb_with_observations(max_observations=3))
    def test_odds_and_ds_match_exact_oracles(self, kb_obs):
        kb, observations = kb_obs
        ol = odds_likelihood(kb, observations)
        expected_ol, pre_norm_ol = exact_odds_likelihood(kb, observations)
        assert ol.pre_norm_sum == pytest.approx(pre_norm_ol, rel=1e-10)
        for disease, value in expected_ol.items():
            assert abs(ol.beliefs[disease] - value) < 1e-10
        ds = naive_dempster_shafer(kb, observations)
        expected_ds, pre_norm_ds = exact_naive_ds(kb, observations)
        assert ds.pre_norm_sum == pytest.approx(pre_norm_ds, rel=1e-10)
        for disease, value in expected_ds.items():
            assert abs(ds.beliefs[disease] - value) < 1e-10


class TestPeakedness:
    def test_simple_bayes_sharpens_and_odds_washes_out(self):
        """Replicated confirmatory evidence drives the simple-Bayes
        posterior to a point mass while the renormalized odds form splits
        the mass over every hypothesis with a confirmatory ratio."""
        kb, observations = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=50))
        sb = simple_bayes(kb, observations)
        assert sb.beliefs["h1"] == pytest.approx(1.0, abs=1e-6)
        assert sb.beliefs["h2"] == pytest.approx(0.0, abs=1e-6)
        assert sb.beliefs["h3"] == pytest.approx(0.0, abs=1e-6)
        ol = odds_likelihood(kb, observations)
        assert ol.beliefs["h1"] == pytest.approx(0.5, abs=1e-3)
        assert ol.beliefs["h2"] == pytest.approx(0.5, abs=1e-3)
        assert ol.beliefs["h3"] == pytest.approx(0.0, abs=1e-3)


class _CountingEntries(dict):
    """A dict that counts the reads of each key, through ``get`` and indexing."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)


def all_three_calculi(kb, observations):
    return [method(kb, observations) for method in (simple_bayes, odds_likelihood, naive_dempster_shafer)]


@pytest.mark.parametrize("method", [simple_bayes, odds_likelihood, naive_dempster_shafer, all_three_calculi])
def test_each_likelihood_read_once(method):
    """Constructing a knowledge base reads each p(feature=value | d) exactly
    once, into the vectors every calculus shares, so inference reads no
    table entry: not on a first call, not on a repeated one."""
    rng = random.Random(3)
    kb = random_kb(rng, n_diseases=12, n_features=9)
    entries = _CountingEntries(kb.conditionals.entries)
    kb = replace(kb, conditionals=ConditionalTable(entries))
    assert entries.reads == Counter(dict.fromkeys(entries, 1))
    assert len(entries) == 12 * sum(len(f.values) for f in kb.features)
    observations = random_observations(rng, kb, 7)
    entries.reads.clear()
    first = method(kb, observations)
    assert not entries.reads
    assert method(kb, list(reversed(observations))) == first
    assert not entries.reads


def table_kb(priors, tables):
    """Diseases d0.. with ``priors``; ``tables[k][i]`` is feature fk's row for
    disease i over values v0, v1, ..."""
    diseases = tuple(
        Disease(id=f"d{i}", name=f"d{i}", prior=p, equivalence_class="c") for i, p in enumerate(priors)
    )
    features, entries = [], {}
    for k, rows in enumerate(tables):
        values = tuple(f"v{j}" for j in range(len(rows[0])))
        features.append(Feature(id=f"f{k}", name=f"f{k}", values=values))
        for d, row in zip(diseases, rows):
            for value, p in zip(values, row):
                entries[(f"f{k}", value, d.id)] = p
    return KnowledgeBase(diseases, tuple(features), ConditionalTable(entries))


def _long_case():
    rng = random.Random(120)
    kb = random_kb(rng, n_diseases=4, n_features=130)
    return kb, random_observations(rng, kb, 130)


def _edge_case(priors, tables):
    """The knowledge base and the observation of value v0 of every feature."""
    kb = table_kb(priors, tables)
    return kb, [Observation(feature=f.id, value="v0") for f in kb.features]


# Engine edge paths next to the exact oracles.  Priors just outside
# _PRIOR_ONE_TOL of 1 are left out: there the negation's 1 - prior cancels.
EDGE_CASES = {
    "zero-likelihood-rules-out": lambda: _edge_case(
        (0.5, 0.3, 0.2),
        [[(0.0, 1.0), (0.6, 0.4), (0.3, 0.7)], [(0.5, 0.5), (0.2, 0.8), (0.9, 0.1)]],
    ),
    "zero-negation-rules-in": lambda: _edge_case(
        (0.5, 0.3, 0.2),
        [[(0.4, 0.6), (0.0, 1.0), (0.0, 1.0)], [(0.5, 0.5), (0.2, 0.8), (0.9, 0.1)]],
    ),
    # p(v0 | d1) = 1e-300 vanishes from f0's marginal, so p(v0 | not-d0) is 0
    # in floating point and d0's odds are infinite; f1 does the same for d1.
    # Two infinite odds share the mass equally.  The exact odds stay finite.
    "several-ruled-in-share": lambda: _edge_case(
        (0.5, 0.5), [[(0.5, 0.5), (1e-300, 1.0)], [(1e-300, 1.0), (0.5, 0.5)]]
    ),
    "prior-one": lambda: _edge_case((1.0, 1e-10), [[(0.3, 0.7), (0.8, 0.2)]]),
    "prior-within-tolerance-of-one": lambda: _edge_case(
        (1.0 - 5e-13, 5e-13), [[(0.3, 0.7), (0.8, 0.2)]]
    ),
    "130-observations": _long_case,
    "every-disease-ruled-out": lambda: _edge_case(
        (0.5, 0.5), [[(0.0, 1.0), (0.5, 0.5)], [(0.5, 0.5), (0.0, 1.0)]]
    ),
    "zero-marginal": lambda: _edge_case((0.5, 0.5), [[(0.0, 1.0), (0.0, 1.0)]]),
}
EDGE_RAISES = {
    "every-disease-ruled-out": {
        "simple_bayes": AllHypothesesRuledOut,
        "odds_likelihood": AllHypothesesRuledOut,
    },
    "zero-marginal": {
        "simple_bayes": AllHypothesesRuledOut,
        "odds_likelihood": AllHypothesesRuledOut,
        "naive_dempster_shafer": ZeroMarginal,
    },
}


def test_prior_one_tolerance_is_pinned_by_literal_priors():
    """A prior 5e-13 below 1 counts as 1: its negation is empty and
    odds-likelihood rules its disease in.  One 1e-10 below 1 does not.
    Literal priors, so the test cannot follow a change of the constant."""
    obs = Observation("f0", "v0")
    kb = table_kb((1.0 - 5e-13, 5e-13), [[(0.3, 0.7), (0.8, 0.2)]])
    with pytest.raises(DegeneratePrior):
        negation_conditional(kb, obs, "d0")
    assert odds_likelihood(kb, [obs]).beliefs == {"d0": 1.0, "d1": 0.0}
    kb = table_kb((1.0 - 1e-10, 1e-10), [[(0.3, 0.7), (0.8, 0.2)]])
    assert math.isfinite(negation_conditional(kb, obs, "d0"))
    beliefs = odds_likelihood(kb, [obs]).beliefs
    assert beliefs["d0"] < 1.0 and beliefs["d1"] > 0.0
    # Odds-likelihood's prior term: finite log odds 1e-10 below 1, infinite 1e-13 below 1.
    p = 1 - 1e-10
    assert engine._prior_log_odds(p) == math.log(p) - math.log1p(-p)
    assert engine._prior_log_odds(1 - 1e-13) == math.inf


@pytest.mark.parametrize("case", EDGE_CASES)
@pytest.mark.parametrize(
    "method, oracle",
    [
        (simple_bayes, lambda kb, obs: (exact_simple_bayes(kb, obs), 1.0)),
        (odds_likelihood, exact_odds_likelihood),
        (naive_dempster_shafer, exact_naive_ds),
    ],
    ids=["simple_bayes", "odds_likelihood", "naive_dempster_shafer"],
)
def test_edge_paths_match_exact_oracles(case, method, oracle):
    kb, observations = EDGE_CASES[case]()
    if (case, method) == ("several-ruled-in-share", odds_likelihood):
        # Rounding rules both diseases in, so the frozen float reference is the oracle.
        assert _outcome(method, kb, observations) == _outcome(reference_odds_likelihood, kb, observations)
        dist = method(kb, observations)
        assert (dist.beliefs, dist.pre_norm_sum) == ({"d0": 0.5, "d1": 0.5}, 2.0)
        return
    expected_error = EDGE_RAISES.get(case, {}).get(method.__name__)
    if expected_error is not None:
        with pytest.raises(expected_error):
            oracle(kb, observations)
        with pytest.raises(expected_error):
            method(kb, observations)
        return
    beliefs, pre_norm_sum = oracle(kb, observations)
    dist = method(kb, observations)
    assert dist.pre_norm_sum == pytest.approx(pre_norm_sum, rel=1e-10)
    for disease, value in beliefs.items():
        assert abs(dist.beliefs[disease] - value) < 1e-10


@pytest.mark.parametrize(
    "method, case, error",
    [
        (naive_dempster_shafer, EDGE_CASES["zero-marginal"], ZeroMarginal),
        (lambda kb, obs: evoking_strength(kb, obs[0]), EDGE_CASES["zero-marginal"], ZeroMarginal),
    ],
    ids=["naive_dempster_shafer", "evoking_strength"],
)
def test_memoized_failure_raises_again(method, case, error):
    """An error met in a finding's terms is raised on every call that
    reaches it, with the same message, reading no table entry: the table
    was read at construction, and the memo keeps terms, not errors."""
    kb, observations = case()
    entries = _CountingEntries(kb.conditionals.entries)
    kb = replace(kb, conditionals=ConditionalTable(entries))
    with pytest.raises(error) as first:
        method(kb, observations)
    entries.reads.clear()
    with pytest.raises(error) as second:
        method(kb, observations)
    assert str(second.value) == str(first.value)
    assert not entries.reads


def _counted_compiles(monkeypatch) -> tuple[list, list]:
    """Wrap ``engine._finding_terms`` and ``engine._check_observation``: the first
    list gets every row compiled, the second every observation checked."""
    rows, checked = [], []

    def counted(row, *prior_vectors, compile_terms=engine._finding_terms):
        rows.append(row)
        return compile_terms(row, *prior_vectors)

    def counted_check(kb, obs, seen, check=engine._check_observation):
        checked.append(obs)
        return check(kb, obs, seen)

    monkeypatch.setattr(engine, "_finding_terms", counted)
    monkeypatch.setattr(engine, "_check_observation", counted_check)
    return rows, checked


def test_probe_compiles_the_shared_row_once(monkeypatch):
    """The golden probe's 100 tokens share one "present" row object, and one
    compile serves all three calculi, so one probe compiles 1 row, not 300.
    Each calculus checks all 100 observations: 300 checks, 100 distinct."""
    compiled, checked = _counted_compiles(monkeypatch)
    points = convergence_probe(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.5, 0.3, 0.2), n=100))
    assert len(points) == 100
    assert len(compiled) == 1
    assert len(checked) == 300 and len(set(checked)) == 100


def test_probe_converts_each_distinct_term_once(monkeypatch):
    """The golden probe's running sums convert each column's distinct terms to
    integers, the prior's and the shared row's: at most 2 per column of the 5
    diseases, where converting every term takes 101.  In simple Bayes' last column
    the prior's log 0.2 is the likelihood's, so the three calculi convert 29 terms."""
    converted = []

    def counted(values):
        converted.append(len(values))
        return exact_integers(values)

    exact_integers = engine._exact_integers
    monkeypatch.setattr(engine, "_exact_integers", counted)
    convergence_probe(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.5, 0.3, 0.2), n=100))
    assert len(converted) == 15 and max(converted) <= 2 and sum(converted) == 29


def test_distinct_rows_compile_once_per_finding(monkeypatch):
    """A knowledge base with a row object per finding compiles each observed
    finding once for all three calculi, and a warm call compiles nothing.
    Every calculus call checks its 7 observations, warm or not."""
    rng = random.Random(5)
    kb = random_kb(rng, n_diseases=6, n_features=8)
    observations = random_observations(rng, kb, 7)
    compiled, checked = _counted_compiles(monkeypatch)
    first = all_three_calculi(kb, observations)
    assert len(compiled) == 7 and len(checked) == 21
    assert all_three_calculi(kb, observations) == first
    assert len(compiled) == 7 and len(checked) == 42


def test_shared_row_failure_names_the_first_observation():
    """Tokens that share a zero-marginal row fail on the first of them in
    order, with the message a row-per-finding table gives."""
    kb, observations = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform((0.0, 0.0), n=3))
    for ordered, first in ((observations, "e1"), (observations[::-1], "e3")):
        with pytest.raises(ZeroMarginal) as raised:
            naive_dempster_shafer(kb, ordered)
        assert str(raised.value) == f"observation ('{first}', 'present') has zero marginal probability"


@dataclass
class _MutableObservation:
    """Observation-like, but unhashable: no memo can look it up."""

    feature: str
    value: str


@pytest.mark.parametrize("method", [simple_bayes, odds_likelihood, naive_dempster_shafer])
def test_unhashable_observation_raises_after_the_full_check(method):
    """An unhashable observation of a known finding raises TypeError, but only
    once every observation is checked: an unknown one after it raises first."""
    kb, _ = EDGE_CASES["zero-likelihood-rules-out"]()
    unhashable = _MutableObservation("f0", "v0")
    with pytest.raises(TypeError) as raised:
        method(kb, [unhashable])
    assert str(raised.value) == "unhashable type: '_MutableObservation'"
    with pytest.raises(UnknownObservation) as raised:
        method(kb, [unhashable, Observation("nope", "v0")])
    assert str(raised.value) == "unknown feature 'nope'"


def _outcome(compute, *args):
    """Exception class and message, or every number as float.hex()."""
    try:
        result = compute(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    if isinstance(result, float):
        return result.hex()
    beliefs = result if isinstance(result, dict) else result.beliefs
    hexed = [(d, b.hex()) for d, b in beliefs.items()]
    return hexed if isinstance(result, dict) else (hexed, result.pre_norm_sum.hex(), result.method)


# Entries a valid row may hold at or next to its limits, and what no valid
# knowledge base holds.
_EDGE_ENTRIES = (0.0, 1.0, 1e-300, 5e-324, 1.0 - 1e-12)
_INVALID_ENTRIES = (1.5, -0.5, math.inf, -math.inf, math.nan)
_INVALID_PRIORS = (0.0, 1.2, -0.5, math.nan)


def _odd_kb(rng):
    """A random knowledge base with up to four rows renormalized around an
    edge entry and, in some, a prior of 1 or 1 - 5e-13 with the rest tiny.
    An entry or prior outside [0, 1], or a missing entry, is rejected on
    construction."""
    kb = random_kb(rng, n_diseases=rng.randint(1, 6), n_features=rng.randint(1, 5), max_values=3)
    entries = dict(kb.conditionals.entries)
    rows = sorted({(feature, disease) for feature, _, disease in entries})
    for feature, disease in rng.sample(rows, min(len(rows), rng.randint(0, 4))):
        values = kb.feature_index[feature].values
        edge_value, edge = rng.choice(values), rng.choice(_EDGE_ENTRIES)
        rest = math.fsum(entries[(feature, v, disease)] for v in values if v != edge_value)
        for v in values:
            p = entries[(feature, v, disease)]
            entries[(feature, v, disease)] = edge if v == edge_value else p * (1.0 - edge) / rest
    diseases = list(kb.diseases)
    if rng.random() < 0.3:
        top = rng.randrange(len(diseases))
        tiny = rng.choice((1e-13, 1e-300, 5e-324))
        for i, d in enumerate(diseases):
            diseases[i] = replace(d, prior=rng.choice((1.0, 1.0 - 5e-13)) if i == top else tiny)
    odd = replace(kb, diseases=tuple(diseases), conditionals=ConditionalTable(entries))

    broken = dict(entries)
    key = rng.choice(sorted(broken))
    if rng.random() < 0.2:
        del broken[key]
    else:
        broken[key] = rng.choice(_INVALID_ENTRIES)
    with pytest.raises(ValidationError):
        replace(odd, conditionals=ConditionalTable(broken))
    i = rng.randrange(len(diseases))
    diseases[i] = replace(diseases[i], prior=rng.choice(_INVALID_PRIORS))
    with pytest.raises(ValidationError):
        replace(odd, diseases=tuple(diseases))
    return odd


def _odd_case(rng, kb):
    observations = random_observations(rng, kb, rng.randint(0, len(kb.features)))
    if observations and rng.random() < 0.15:
        observations.insert(rng.randrange(len(observations) + 1), rng.choice(observations))
    if rng.random() < 0.1:
        observations.insert(rng.randrange(len(observations) + 1), Observation("unknown", "v0"))
    if rng.random() < 0.1:
        observations.append(Observation(kb.features[0].id, "unknown"))
    return observations


def test_compiled_terms_match_the_row_by_row_reference():
    """On 1,232 (knowledge base, case) pairs the three calculi and the three
    views give the same bits, or the same exception class and message, as
    the row-by-row reference in support.py.  Every knowledge base serves at
    least four cases, so most terms come from the memo."""
    rng = random.Random(2024)
    knowledge_bases = [random_kb(rng, rng.randint(1, 6), rng.randint(1, 5), 3) for _ in range(125)]
    knowledge_bases += [_odd_kb(rng) for _ in range(175)]
    knowledge_bases += [make()[0] for make in EDGE_CASES.values()]
    calculi = [
        (simple_bayes, reference_simple_bayes),
        (odds_likelihood, reference_odds_likelihood),
        (naive_dempster_shafer, reference_naive_dempster_shafer),
    ]
    views = [
        (marginal, reference_marginal),
        (evoking_strength, reference_evoking_strength),
        (negation_conditional, reference_negation_conditional),
    ]
    pairs = 0
    for kb in knowledge_bases:
        cases = [[Observation(f.id, "v0") for f in kb.features]] + [_odd_case(rng, kb) for _ in range(3)]
        for observations in cases:
            pairs += 1
            for method, reference in calculi:
                assert _outcome(method, kb, observations) == _outcome(reference, kb, observations)
            for obs in observations[:2]:
                disease = rng.choice([d.id for d in kb.diseases] + ["unknown"])
                for view, reference in views:
                    args = (kb, obs, disease)[: 3 if view is negation_conditional else 2]
                    assert _outcome(view, *args) == _outcome(reference, *args)
    assert pairs >= 1000


def _with_zero_marginal_feature(kb):
    """``kb`` plus a feature "zero" whose value v0 no disease can show, so that
    observing it has zero marginal probability."""
    entries = dict(kb.conditionals.entries)
    for d in kb.diseases:
        entries[("zero", "v0", d.id)], entries[("zero", "v1", d.id)] = 0.0, 1.0
    zero = Feature(id="zero", name="zero", values=("v0", "v1"))
    return replace(kb, features=(*kb.features, zero), conditionals=ConditionalTable(entries))


def test_each_calculus_owns_its_errors_in_every_order():
    """The three calculi share one compile per finding, yet in each of the 6
    orders of ``CALCULI`` each gives what the row-by-row reference in
    support.py gives, bit for bit, or the same error class and message: on
    one warm knowledge base and on a fresh copy of it.  A zero marginal is
    naive Dempster-Shafer's error alone; an unknown finding before or after
    it is every calculus's."""
    rng = random.Random(26)
    base = random_kb(rng, n_diseases=5, n_features=6)
    known = random_observations(rng, base, 4)
    warm = _with_zero_marginal_feature(base)
    zero, unknown = Observation("zero", "v0"), Observation("f0", "unknown")
    cases = [known, [*known[:2], zero, *known[2:]], [zero, unknown], [unknown, zero]]
    references = dict(zip(CALCULI, (reference_simple_bayes, reference_odds_likelihood,
                                    reference_naive_dempster_shafer)))
    seen = Counter()
    for order in permutations(CALCULI):
        for kb in (warm, replace(warm)):
            for observations in cases:
                for calculus in order:
                    outcome = _outcome(getattr(engine, calculus), kb, observations)
                    assert outcome == _outcome(references[calculus], kb, observations), (order, calculus)
                    seen[outcome[0] if isinstance(outcome[0], type) else "result"] += 1
    assert set(seen) == {"result", AllHypothesesRuledOut, ZeroMarginal, UnknownObservation}, seen
    assert seen[ZeroMarginal] == 12 and seen[UnknownObservation] == 72, seen


_PREFIX_FAULTS = ("unknown-feature", "unknown-value", "unhashable-value", "repeated-feature", "zero-marginal")


def _with_faults(rng, kb, observations, faults):
    """``observations`` with up to three faults inserted at random positions.
    Counts each fault, and each list whose zero-marginal finding comes before
    an unknown one: naive Dempster-Shafer must raise for the unknown finding,
    which a check of every observation meets before any term is compiled."""
    observations = list(observations)
    for _ in range(rng.choice((0, 1, 2, 3))):
        fault = rng.choice(_PREFIX_FAULTS)
        if fault == "unknown-feature":
            obs = Observation("unknown", "v0")
        elif fault == "unknown-value":
            obs = Observation(rng.choice(kb.features).id, "unknown")
        elif fault == "unhashable-value":  # unknown too, but no memo can look it up
            obs = Observation(rng.choice(kb.features).id, ["v0"])
        elif fault == "repeated-feature" and (seen := [o for o in observations if o.feature in kb.feature_index]):
            feature = kb.feature_index[rng.choice(seen).feature]  # the same finding again, or another value
            obs = Observation(feature.id, rng.choice(feature.values))
        elif fault == "zero-marginal" and "zero" in kb.feature_index:
            obs = Observation("zero", "v0")
        else:
            continue
        observations.insert(rng.randrange(len(observations) + 1), obs)
        faults[fault] += 1
    unknown = [i for i, o in enumerate(observations) if o.feature not in kb.feature_index or o.value in ("unknown", ["v0"])]
    if unknown and Observation("zero", "v0") in observations[: unknown[-1]]:
        faults["zero-marginal before unknown"] += 1
    return observations


def test_every_prefix_matches_the_row_by_row_reference():
    """Each calculus runs on every prefix of random observation lists on one
    warm knowledge base, in ``CALCULI`` order as the probe runs them, so a
    call meets the terms of the prefix before it in the memo and checks only
    its newest finding one by one.  Faults sit at random positions: an
    unknown feature, an unknown or unhashable value, a repeated feature and
    a zero-marginal finding.  On 2,171 (knowledge base, prefix) pairs every
    result matches the row-by-row reference in support.py bit for bit, and
    every error its class and message."""
    rng = random.Random(17)
    drawn = [(random_kb(rng, rng.randint(1, 6), rng.randint(1, 6), 3), []) for _ in range(50)]
    drawn += [(_odd_kb(rng), []) for _ in range(70)]
    drawn += [(kb, [observations]) for kb, observations in (make() for make in EDGE_CASES.values())]
    calculi = [
        (simple_bayes, reference_simple_bayes),
        (odds_likelihood, reference_odds_likelihood),
        (naive_dempster_shafer, reference_naive_dempster_shafer),
    ]
    faults = dict.fromkeys((*_PREFIX_FAULTS, "zero-marginal before unknown"), 0)
    outcomes = {"result": 0, "error": 0}
    pairs = 0
    for kb, lists in drawn:
        if rng.random() < 0.5:
            kb = _with_zero_marginal_feature(kb)
        lists += [random_observations(rng, kb, rng.randint(1, len(kb.features))) for _ in range(3)]
        for observations in lists:
            observations = _with_faults(rng, kb, observations, faults)
            for n in range(len(observations) + 1):
                prefix = observations[:n]
                pairs += 1
                for method, reference in calculi:
                    outcome = _outcome(method, kb, prefix)
                    assert outcome == _outcome(reference, kb, prefix), (n, method.__name__)
                    outcomes["error" if isinstance(outcome[0], type) else "result"] += 1
    assert pairs >= 1000
    assert min(faults.values()) >= 20 and min(outcomes.values()) >= 500, (faults, outcomes)


@st.composite
def code_built_inputs(draw):
    """A valid knowledge base with some entries set to edge or invalid values
    (the rest of a row rescaled to sum to 1 in some examples), some entries
    dropped, some priors changed, and observations that may repeat a
    feature or name an unknown value."""
    kb = draw(knowledge_bases())
    entries = dict(kb.conditionals.entries)
    rescale = draw(st.booleans())
    for key in draw(st.lists(st.sampled_from(sorted(entries)), max_size=4, unique=True)):
        feature, value, disease = key
        edge = draw(st.sampled_from(_EDGE_ENTRIES + _INVALID_ENTRIES))
        others = [(feature, v, disease) for v in kb.feature_index[feature].values if v != value]
        rest = sum(entries[other] for other in others)  # fsum raises on inf + -inf
        if rescale and rest > 0.0:
            for other in others:
                entries[other] *= (1.0 - edge) / rest
        entries[key] = edge
    for key in draw(st.lists(st.sampled_from(sorted(entries)), max_size=2, unique=True)):
        del entries[key]
    diseases = list(kb.diseases)
    for i in draw(st.lists(st.integers(0, len(diseases) - 1), max_size=2, unique=True)):
        diseases[i] = replace(diseases[i], prior=draw(st.sampled_from((0.0, 1.0, 1.2, math.nan))))
    picks = st.tuples(st.sampled_from(kb.features), st.integers(0, 2))
    observations = [Observation(f.id, f"v{j}") for f, j in draw(st.lists(picks, max_size=4))]
    return tuple(diseases), kb.features, entries, observations


@settings(max_examples=500, deadline=None)
@given(code_built_inputs())
def test_code_built_knowledge_base_is_rejected_or_infers(inputs):
    """A knowledge base built in code either fails to construct with a
    ValidationError, or every calculus returns a distribution summing to 1
    or raises one of the documented errors: never an arithmetic, value,
    key or type error from inside the engine."""
    diseases, features, entries, observations = inputs
    try:
        kb = KnowledgeBase(diseases, features, ConditionalTable(entries))
    except ValidationError:
        return
    for method in (simple_bayes, odds_likelihood, naive_dempster_shafer):
        try:
            dist = method(kb, observations)
        except (InferenceError, UnknownObservation, ConflictingObservations):
            continue
        assert abs(math.fsum(dist.beliefs.values()) - 1.0) <= PROB_SUM_TOL


# Column terms as the calculi make them: logs, so finite terms stay within
# +-1,500 and no prefix can overflow, with subnormals and both infinities.
_TERMS = st.one_of(
    st.floats(-1500, 1500),
    st.floats(-1e-307, 1e-307),
    st.sampled_from((math.inf, -math.inf, 5e-324, -5e-324, 0.0, -0.0)),
)


# Rows as the probe makes them: one row object repeated many times, here among other rows.
_REPLICATED_ROWS = st.integers(1, 5).flatmap(
    lambda d: st.lists(
        st.tuples(st.lists(_TERMS, min_size=d, max_size=d), st.integers(1, 60)), min_size=1, max_size=4
    ).map(lambda runs: [same for row, copies in runs for same in [row] * copies])
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda d: st.lists(st.lists(_TERMS, min_size=d, max_size=d), min_size=1, max_size=40))
    | _REPLICATED_ROWS
)
@example([[0.5, 0.0]] + [[-0.0, -math.inf]] * 40)
@example([[-0.0, 1e-300, -math.inf]] * 40)
def test_prefix_sums_equal_column_sums_on_every_prefix(rows):
    """The running integer sums give ``_column_sums``' bits on every prefix,
    including its rule for columns holding an infinity or both, and on runs
    of one repeated row object, whose terms are converted once."""
    want = [[x.hex() for x in engine._column_sums(*rows[:k])] for k in range(1, len(rows) + 1)]
    assert [[x.hex() for x in sums] for sums in engine._prefix_sums(rows)] == want


def test_prefixes_match_each_prefix_on_random_knowledge_bases():
    """On random and edge knowledge bases, some with a zero-marginal finding,
    each calculus's trajectory row, its beliefs in disease order and its
    pre_norm_sum, equals its public call on every prefix, bit for bit, or
    raises what the first failing prefix raises."""
    rng = random.Random(31)
    knowledge_bases = [random_kb(rng, rng.randint(1, 6), rng.randint(1, 6), 3) for _ in range(60)]
    knowledge_bases += [_odd_kb(rng) for _ in range(90)]
    outcomes = Counter()
    for kb in knowledge_bases:
        if rng.random() < 0.5:
            kb = _with_zero_marginal_feature(kb)
        observations = random_observations(rng, kb, rng.randint(0, len(kb.features)))
        for calculus in CALCULI:
            want = []
            for n in range(1, len(observations) + 1):
                want.append(_outcome(getattr(engine, calculus), kb, observations[:n]))
                if isinstance(want[-1][0], type):
                    want = want[-1]
                    break
            try:
                rows = engine._prefixes(kb, observations, calculus)
            except Exception as exc:  # the class and message are what is compared
                got = type(exc), str(exc)
            else:
                assert all(len(beliefs) == len(kb.diseases) for beliefs, _ in rows)
                got = [([(d, b.hex()) for d, b in zip(kb.disease_index, beliefs)], pre_norm_sum.hex(), calculus)
                       for beliefs, pre_norm_sum in rows]
            assert got == want, calculus
            outcomes["error" if isinstance(want, tuple) else "result"] += 1
    assert min(outcomes.values()) >= 20, outcomes


@settings(max_examples=150, deadline=None)
@given(kb_with_observations(max_observations=4))
def test_calculi_results_pass_the_checks_they_skip(kb_obs):
    """Every result the engine builds without ``BeliefDistribution``'s checks,
    from a public calculus or from a trajectory's rows once ``_distribution``
    wraps them, passes them and compares equal."""
    kb, observations = kb_obs
    results = []
    for calculus in CALCULI:
        try:
            results.append(getattr(engine, calculus)(kb, observations))
            rows = engine._prefixes(kb, observations, calculus)
            results += [engine._distribution(kb, *row, calculus) for row in rows]
        except InferenceError:
            continue
    assert results
    for dist in results:
        assert type(dist) is BeliefDistribution
        assert BeliefDistribution(dist.beliefs, dist.pre_norm_sum, dist.method) == dist
