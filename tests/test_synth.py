"""Replicated-evidence construction, brute-force oracle, convergence probe."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from support import (
    random_kb,
    random_observations,
    reference_convergence_probe,
    reference_probe_tsv,
    reference_replicate_evidence_kb,
)
from uncertain_dx.engine import naive_dempster_shafer, odds_likelihood, simple_bayes
from uncertain_dx.errors import AllHypothesesRuledOut, ZeroMarginal
from uncertain_dx.kb import CALCULI, load_cases, load_kb, serialize_kb, validate_kb
from uncertain_dx.synth import (
    MAX_COPIES,
    ReplicatedEvidenceSpec,
    brute_force_posterior,
    convergence_probe,
    probe_tsv,
    replicate_evidence_kb,
)

SPEC_PROBE = ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=50)


class TestReplicatedEvidenceSpec:
    def test_uniform_constructor(self):
        spec = ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=5)
        assert spec.priors == (1 / 3, 1 / 3, 1 / 3)
        assert spec.n == 5

    def test_the_cap_itself_is_a_valid_spec(self):
        """A spec is only its numbers; building one at the cap builds no knowledge base."""
        assert ReplicatedEvidenceSpec.uniform((0.8, 0.2), n=MAX_COPIES).n == 100_000

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(likelihoods=(0.8, 1.2), priors=(0.5, 0.5), n=1), "likelihoods"),
            (dict(likelihoods=(0.8, 0.2), priors=(0.5, 0.4), n=1), "sum to 1"),
            (dict(likelihoods=(0.8, 0.2), priors=(0.5, 0.5), n=0), "at least 1"),
            (dict(likelihoods=(0.8, 0.2), priors=(0.5, 0.5), n=100_001), "at most 100000"),
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


SHARED_TABLE_SPECS = [
    ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.5, 0.3, 0.2), n=100),
    ReplicatedEvidenceSpec(likelihoods=(0.0, 1.0, 1e-300), priors=(0.2, 0.5, 0.3), n=7),
    ReplicatedEvidenceSpec(likelihoods=(0.4,), priors=(1.0,), n=1),
]


def outcome(method, kb, observations):
    """A distribution's beliefs and sum as bits, or the exception's class and message."""
    try:
        dist = method(kb, observations)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [(k, v.hex()) for k, v in dist.beliefs.items()], dist.pre_norm_sum.hex(), dist.method


class TestSharedTable:
    """The replicated table is two vectors that every token shares; it reads
    as the one-entry-per-slot dict table that ``reference_replicate_evidence_kb`` builds."""

    @pytest.mark.parametrize("spec", SHARED_TABLE_SPECS)
    def test_tokens_share_the_present_and_absent_vectors(self, spec):
        kb, _ = replicate_evidence_kb(spec)
        first = kb.vectors["e1"]
        assert first["present"] == list(spec.likelihoods)
        assert first["absent"] == [1.0 - p for p in spec.likelihoods]
        for f in kb.features:
            assert kb.vectors[f.id]["present"] is first["present"]
            assert kb.vectors[f.id]["absent"] is first["absent"]

    @pytest.mark.parametrize("spec", SHARED_TABLE_SPECS)
    def test_entries_equal_the_dict_table(self, spec):
        kb, observations = replicate_evidence_kb(spec)
        reference, reference_observations = reference_replicate_evidence_kb(spec)
        entries = kb.conditionals.entries
        assert entries == reference.conditionals.entries
        assert reference.conditionals.entries == entries
        assert len(entries) == 2 * len(spec.likelihoods) * spec.n
        assert kb == reference
        assert observations == reference_observations

    @pytest.mark.parametrize("spec", SHARED_TABLE_SPECS)
    def test_oracle_and_round_trip_match_the_dict_table(self, spec):
        kb, observations = replicate_evidence_kb(spec)
        reference, _ = reference_replicate_evidence_kb(spec)
        assert outcome(brute_force_posterior, kb, observations) == outcome(
            brute_force_posterior, reference, observations
        )
        data = serialize_kb(kb)
        assert data == serialize_kb(reference)
        loaded = load_kb(data)
        assert loaded == kb
        for method in (simple_bayes, odds_likelihood, naive_dempster_shafer):
            assert outcome(method, loaded, observations) == outcome(method, reference, observations)


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

    def test_reads_the_vectors_and_builds_no_dict(self, data_dir):
        """The oracle reads ``kb.vectors``, the table the engine reads, so neither a loaded
        nor a replicated knowledge base builds its (feature, value, disease) dict."""
        loaded = load_kb(data_dir / "fixture_kb.json")
        case = load_cases(data_dir / "fixture_cases.json", loaded)[0]
        replicated = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.5, 0.3, 0.2), n=100))
        for kb, observations in [(loaded, case.observations), replicated]:
            dist = brute_force_posterior(kb, observations)
            assert "_dict" not in vars(kb.conditionals.entries)
            assert dist.beliefs == pytest.approx(simple_bayes(kb, observations).beliefs, abs=1e-12)

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
        points = convergence_probe(SPEC_PROBE)
        assert [p.n for p in points] == list(range(1, 51))
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
        for point in convergence_probe(replace(SPEC_PROBE, n=12)):
            kb, observations = replicate_evidence_kb(
                ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=point.n)
            )
            reference = brute_force_posterior(kb, observations)
            for disease, value in reference.beliefs.items():
                assert abs(point.simple_bayes.beliefs[disease] - value) < 1e-10

    @pytest.mark.parametrize(
        "spec",
        [
            replace(SPEC_PROBE, n=25),
            ReplicatedEvidenceSpec(likelihoods=(0.0, 1.0, 0.3), priors=(0.2, 0.5, 0.3), n=25),
            ReplicatedEvidenceSpec(likelihoods=(1.0, 1.0), priors=(0.6, 0.4), n=25),
        ],
    )
    def test_trajectory_equals_per_step_knowledge_bases(self, spec):
        """The probe runs step n on the first n tokens of one spec.n-token
        knowledge base; each step equals a fresh n-token one bit for bit."""
        for point in convergence_probe(spec):
            kb, observations = replicate_evidence_kb(replace(spec, n=point.n))
            assert point.simple_bayes == simple_bayes(kb, observations)
            assert point.odds_likelihood == odds_likelihood(kb, observations)
            assert point.naive_dempster_shafer == naive_dempster_shafer(kb, observations)

    def test_peakedness_is_monotone_and_dominates_odds(self):
        points = convergence_probe(replace(SPEC_PROBE, n=30))
        top = [max(p.simple_bayes.beliefs.values()) for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(top, top[1:]))
        for point in points[1:]:
            assert max(point.simple_bayes.beliefs.values()) >= max(point.odds_likelihood.beliefs.values())

    def test_uninformative_token_returns_priors_at_every_n(self):
        spec = ReplicatedEvidenceSpec(likelihoods=(0.5, 0.5), priors=(0.7, 0.3), n=10)
        for point in convergence_probe(spec):
            for dist in (point.simple_bayes, point.odds_likelihood):
                assert dist.beliefs["h1"] == pytest.approx(0.7, abs=1e-9)
                assert dist.beliefs["h2"] == pytest.approx(0.3, abs=1e-9)

    def test_probe_tsv_shape(self):
        lines = probe_tsv(SPEC_PROBE).splitlines()
        assert lines[0] == "n\tmethod\tdisease\tbelief"
        assert len(lines) == 1 + 50 * 3 * 3
        assert lines[1].split("\t") == ["1", "simple_bayes", "h1", "0.500000"]


# Likelihoods the probe must carry through exactly: ruling out, ruling in and
# products that underflow.
EDGE_LIKELIHOODS = (0.0, 1.0, 1e-300, 5e-324, 0.5)


def random_probe_spec(rng: random.Random) -> ReplicatedEvidenceSpec:
    m = rng.randint(1, 6)
    shape = rng.random()
    if shape < 0.05:
        likelihoods = (0.0,) * m
    elif shape < 0.1:  # every product p * prior may underflow to 0
        likelihoods = tuple(rng.choice((0.0, 5e-324)) for _ in range(m))
    else:
        likelihoods = tuple(rng.choice(EDGE_LIKELIHOODS) if rng.random() < 0.3 else rng.random() for _ in range(m))
    if m == 1:
        priors = (1.0,)
    elif shape < 0.25:  # one prior within 1e-13 of 1
        rest = rng.choice((1e-13, 5e-14, 2.0**-50))
        priors = (1.0 - rest, *[rest / (m - 1)] * (m - 1))
    else:
        weights = [rng.random() + 1e-3 for _ in range(m)]
        priors = tuple(w / math.fsum(weights) for w in weights)
    return ReplicatedEvidenceSpec(likelihoods, priors, n=rng.choice((1, 2, 3, rng.randint(4, 12), rng.randint(13, 40))))


def tsv_outcome(spec: ReplicatedEvidenceSpec) -> tuple:
    """``probe_tsv(spec)`` and the oracle's TSV of ``convergence_probe(spec)``:
    each the text, or the exception's class and message."""
    outcomes = []
    for render in (probe_tsv, lambda spec: reference_probe_tsv(convergence_probe(spec))):
        try:
            outcomes.append(render(spec))
        except Exception as exc:  # compared, not swallowed
            outcomes.append((type(exc), str(exc)))
    return tuple(outcomes)


def probe_outcome(probe, spec: ReplicatedEvidenceSpec):
    """Every step's distributions as bits, or the exception's class and message."""
    try:
        points = probe(spec)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [
        (p.n, [(name, type(d), d.method, d.pre_norm_sum.hex(), [(k, v.hex()) for k, v in d.beliefs.items()])
               for name, d in ((name, getattr(p, name)) for name in CALCULI)])
        for p in points
    ]


class TestProbeMatchesStepByStep:
    def test_random_specs_match_bit_for_bit(self):
        """Each step's distributions match the step-by-step oracle, and ``probe_tsv``
        prints what the oracle TSV of those distributions prints, or raises what it raises."""
        rng = random.Random(2022)
        outcomes = set()
        for _ in range(1000):
            spec = random_probe_spec(rng)
            want = probe_outcome(reference_convergence_probe, spec)
            assert probe_outcome(convergence_probe, spec) == want, spec
            got_tsv, want_tsv = tsv_outcome(spec)
            assert got_tsv == want_tsv, spec
            outcomes.add(want[0] if isinstance(want, tuple) else "ok")
        assert outcomes == {"ok", AllHypothesesRuledOut, ZeroMarginal}

    @pytest.mark.parametrize(
        "spec",
        [
            ReplicatedEvidenceSpec.uniform((0.0, 0.0), n=3),
            ReplicatedEvidenceSpec.uniform((0.0, 1.0), n=5),
            ReplicatedEvidenceSpec.uniform((1e-300, 0.5), n=30),
            ReplicatedEvidenceSpec.uniform((5e-324, 5e-324), n=3),
            ReplicatedEvidenceSpec((0.3,), (1.0,), n=10),
            ReplicatedEvidenceSpec((0.8, 0.2), (1.0 - 1e-13, 1e-13), n=10),
        ],
        ids=["all-zero", "zero-and-one", "tiny", "underflow", "single", "prior-near-one"],
    )
    def test_edge_specs_match_bit_for_bit(self, spec):
        assert probe_outcome(convergence_probe, spec) == probe_outcome(reference_convergence_probe, spec)
        got_tsv, want_tsv = tsv_outcome(spec)
        assert got_tsv == want_tsv

    def test_all_zero_likelihoods_raise_what_simple_bayes_raises_first(self):
        with pytest.raises(AllHypothesesRuledOut, match="^every disease has zero posterior mass$"):
            convergence_probe(ReplicatedEvidenceSpec.uniform((0.0, 0.0), n=3))
