"""Replicated-evidence construction, brute-force oracle, convergence probe."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from support import random_kb, random_observations
from uncertain_dx.engine import naive_dempster_shafer, odds_likelihood, simple_bayes
from uncertain_dx.errors import AllHypothesesRuledOut
from uncertain_dx.kb import validate_kb
from uncertain_dx.synth import (
    ReplicatedEvidenceSpec,
    brute_force_posterior,
    convergence_probe,
    probe_tsv,
    replicate_evidence_kb,
)

SPEC_PROBE = ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=1)


class TestReplicatedEvidenceSpec:
    def test_uniform_constructor(self):
        spec = ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=5)
        assert spec.priors == (1 / 3, 1 / 3, 1 / 3)
        assert spec.n == 5

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(likelihoods=(0.8, 1.2), priors=(0.5, 0.5), n=1), "likelihoods"),
            (dict(likelihoods=(0.8, 0.2), priors=(0.5, 0.4), n=1), "sum to 1"),
            (dict(likelihoods=(0.8, 0.2), priors=(0.5, 0.5), n=0), "at least 1"),
            (dict(likelihoods=(0.8,), priors=(0.5, 0.5), n=1), "priors"),
            (dict(likelihoods=(), priors=(), n=1), "hypothesis"),
            (dict(likelihoods=(0.8, 0.2), priors=(1.0, 0.0), n=1), "positive"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ReplicatedEvidenceSpec(**kwargs)

    def test_confirmatory_ratio_structure(self):
        """For likelihoods (0.8, 0.6, 0.2) with equal priors, the shared
        token confirms the first two hypotheses and disconfirms the third:
        the implied likelihood ratios are 2, 1.2, and 2/7."""
        l1, l2, l3 = 0.8, 0.6, 0.2
        assert 2 * l1 / (l2 + l3) > 1
        assert 2 * l2 / (l1 + l3) > 1
        assert 2 * l3 / (l1 + l2) < 1


class TestReplicateEvidenceKb:
    def test_structure_and_validity(self):
        kb, observations = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=4))
        assert validate_kb(kb) == []
        assert [d.id for d in kb.diseases] == ["h1", "h2", "h3"]
        assert len(kb.features) == 4
        assert all(f.values == ("present", "absent") for f in kb.features)
        assert [o.value for o in observations] == ["present"] * 4
        assert kb.conditionals.prob("e3", "present", "h1") == 0.8
        assert kb.conditionals.prob("e3", "absent", "h1") == pytest.approx(0.2)

    def test_single_token_posterior(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        dist = simple_bayes(kb, observations)
        assert dist.beliefs["h1"] == pytest.approx(0.5, abs=1e-12)
        assert dist.beliefs["h2"] == pytest.approx(0.375, abs=1e-12)
        assert dist.beliefs["h3"] == pytest.approx(0.125, abs=1e-12)

    def test_two_token_odds_sum(self, three_hypotheses_two_tokens):
        kb, observations = three_hypotheses_two_tokens
        assert odds_likelihood(kb, observations).pre_norm_sum == pytest.approx(1.124487, abs=1e-6)

    def test_single_exhaustive_hypothesis(self):
        for n in (1, 3, 10):
            kb, observations = replicate_evidence_kb(
                ReplicatedEvidenceSpec(likelihoods=(0.4,), priors=(1.0,), n=n)
            )
            for method in (simple_bayes, odds_likelihood, naive_dempster_shafer):
                assert method(kb, observations).beliefs == {"h1": 1.0}


class TestBruteForcePosterior:
    def test_single_observation_equals_single_step_posterior(self, three_hypotheses_one_token):
        kb, observations = three_hypotheses_one_token
        dist = brute_force_posterior(kb, observations)
        assert dist.beliefs["h1"] == pytest.approx(0.5, abs=1e-15)
        assert dist.beliefs["h2"] == pytest.approx(0.375, abs=1e-15)
        assert dist.beliefs["h3"] == pytest.approx(0.125, abs=1e-15)

    def test_two_token_values(self, three_hypotheses_two_tokens):
        kb, observations = three_hypotheses_two_tokens
        dist = brute_force_posterior(kb, observations)
        # (0.64, 0.36, 0.04) / 1.04
        assert dist.beliefs["h1"] == pytest.approx(0.615385, abs=1e-6)
        assert dist.beliefs["h2"] == pytest.approx(0.346154, abs=1e-6)
        assert dist.beliefs["h3"] == pytest.approx(0.038462, abs=1e-6)

    def test_empty_observations_return_priors(self, three_hypotheses_one_token):
        kb, _ = three_hypotheses_one_token
        dist = brute_force_posterior(kb, [])
        assert dist.beliefs["h1"] == pytest.approx(1 / 3, abs=1e-15)

    def test_oracle_guard(self):
        rng = random.Random(0)
        kb = random_kb(rng, n_diseases=65, n_features=1)
        with pytest.raises(ValueError, match="64"):
            brute_force_posterior(kb, [])

    def test_all_zero_is_an_error(self):
        kb, observations = replicate_evidence_kb(
            ReplicatedEvidenceSpec(likelihoods=(0.0, 0.0), priors=(0.5, 0.5), n=1)
        )
        with pytest.raises(AllHypothesesRuledOut):
            brute_force_posterior(kb, observations)

    def test_matches_engine_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(50):
            kb = random_kb(rng, rng.randint(2, 6), rng.randint(1, 5))
            observations = random_observations(rng, kb, rng.randint(0, 5))
            reference = brute_force_posterior(kb, observations)
            dist = simple_bayes(kb, observations)
            for disease, value in reference.beliefs.items():
                assert abs(dist.beliefs[disease] - value) < 1e-10


class TestConvergenceProbe:
    def test_trajectory_limits(self):
        points = convergence_probe(SPEC_PROBE, n_max=50)
        final = points[-1]
        assert final.n == 50
        assert final.simple_bayes.beliefs["h1"] == pytest.approx(1.0, abs=1e-6)
        assert final.simple_bayes.beliefs["h2"] == pytest.approx(0.0, abs=1e-6)
        assert final.odds_likelihood.beliefs["h1"] == pytest.approx(0.5, abs=1e-3)
        assert final.odds_likelihood.beliefs["h2"] == pytest.approx(0.5, abs=1e-3)
        assert final.odds_likelihood.beliefs["h3"] == pytest.approx(0.0, abs=1e-3)
        # The disconfirmed hypothesis keeps a positive combined belief as
        # long as its per-token evoking strength stays positive.
        assert final.naive_dempster_shafer.beliefs["h3"] > 0.0

    def test_trajectory_matches_brute_force(self):
        for point in convergence_probe(SPEC_PROBE, n_max=12):
            kb, observations = replicate_evidence_kb(
                ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=point.n)
            )
            reference = brute_force_posterior(kb, observations)
            for disease, value in reference.beliefs.items():
                assert abs(point.simple_bayes.beliefs[disease] - value) < 1e-10

    @pytest.mark.parametrize(
        "spec",
        [
            SPEC_PROBE,
            ReplicatedEvidenceSpec(likelihoods=(0.0, 1.0, 0.3), priors=(0.2, 0.5, 0.3), n=1),
            ReplicatedEvidenceSpec(likelihoods=(1.0, 1.0), priors=(0.6, 0.4), n=1),
        ],
    )
    def test_trajectory_equals_per_step_knowledge_bases(self, spec):
        """The probe runs step n on the first n tokens of one n_max-token
        knowledge base; each step equals a fresh n-token one bit for bit."""
        for point in convergence_probe(spec, n_max=25):
            kb, observations = replicate_evidence_kb(replace(spec, n=point.n))
            assert point.simple_bayes == simple_bayes(kb, observations)
            assert point.odds_likelihood == odds_likelihood(kb, observations)
            assert point.naive_dempster_shafer == naive_dempster_shafer(kb, observations)

    def test_peakedness_is_monotone_and_dominates_odds(self):
        points = convergence_probe(SPEC_PROBE, n_max=30)
        top = [max(p.simple_bayes.beliefs.values()) for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(top, top[1:]))
        for point in points[1:]:
            assert max(point.simple_bayes.beliefs.values()) >= max(point.odds_likelihood.beliefs.values())

    def test_uninformative_token_returns_priors_at_every_n(self):
        spec = ReplicatedEvidenceSpec(likelihoods=(0.5, 0.5), priors=(0.7, 0.3), n=1)
        for point in convergence_probe(spec, n_max=10):
            for dist in (point.simple_bayes, point.odds_likelihood):
                assert dist.beliefs["h1"] == pytest.approx(0.7, abs=1e-9)
                assert dist.beliefs["h2"] == pytest.approx(0.3, abs=1e-9)

    def test_invalid_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            convergence_probe(SPEC_PROBE, n_max=0)

    def test_probe_tsv_shape(self):
        points = convergence_probe(SPEC_PROBE, n_max=50)
        lines = probe_tsv(points).splitlines()
        assert lines[0] == "n\tmethod\tdisease\tbelief"
        assert len(lines) == 1 + 50 * 3 * 3
        assert lines[1].split("\t") == ["1", "simple_bayes", "h1", "0.500000"]
