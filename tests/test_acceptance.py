"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Derived expectations are frozen from exact-fraction oracles (see
support.py); analytic limit values use the replicated-evidence
construction with likelihoods (0.8, 0.6, 0.2) and uniform priors.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from functools import reduce

from support import random_kb, random_observations
from uncertain_dx.cli import main
from uncertain_dx.decision import (
    UtilityMatrix,
    max_belief_diagnosis,
    meu_diagnosis,
    wtp_to_micromorts,
)
from uncertain_dx.engine import (
    barnett_combine,
    cf_parallel_combine,
    naive_dempster_shafer,
    odds_likelihood,
    simple_bayes,
)
from uncertain_dx.evaluation import (
    CaseWeight,
    case_weights,
    expected_disutility,
    permutation_test,
    wilcoxon_rank_test,
)
from uncertain_dx.kb import BeliefDistribution, CaseRecord
from uncertain_dx.synth import (
    ReplicatedEvidenceSpec,
    brute_force_posterior,
    convergence_probe,
    replicate_evidence_kb,
)


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {summary}")
        raise
    else:
        print(f"ACCEPTANCE {number} PASS: {summary}")


@contextmanager
def time_budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds}s budget"


def test_criterion_1_single_observation_agreement():
    """All three methods coincide on one observation, and the odds-form
    beliefs sum to one before renormalization."""
    with criterion(1, "single-observation agreement and odds consistency on 200 random KBs"):
        with time_budget(5.0):
            rng = random.Random(101)
            for _ in range(200):
                kb = random_kb(rng, rng.randint(2, 6), rng.randint(1, 5))
                observations = random_observations(rng, kb, 1)
                sb = simple_bayes(kb, observations)
                ol = odds_likelihood(kb, observations)
                ds = naive_dempster_shafer(kb, observations)
                for disease in sb.beliefs:
                    assert abs(sb.beliefs[disease] - ol.beliefs[disease]) < 1e-10
                    assert abs(sb.beliefs[disease] - ds.beliefs[disease]) < 1e-10
                    assert abs(ol.beliefs[disease] - ds.beliefs[disease]) < 1e-10
                assert abs(ol.pre_norm_sum - 1.0) < 1e-10


def test_criterion_2_oracle_equivalence():
    """Log-space simple Bayes agrees with the linear-space enumeration
    oracle, including long observation sets."""
    with criterion(2, "simple Bayes matches the brute-force oracle on 500 random instances"):
        with time_budget(10.0):
            rng = random.Random(202)
            for trial in range(500):
                n_features = rng.randint(1, 20)
                kb = random_kb(rng, rng.randint(2, 6), n_features)
                count = 20 if trial % 25 == 0 else rng.randint(0, 20)
                observations = random_observations(rng, kb, count)
                reference = brute_force_posterior(kb, observations)
                dist = simple_bayes(kb, observations)
                for disease, value in reference.beliefs.items():
                    assert abs(dist.beliefs[disease] - value) < 1e-10


def test_criterion_3_replicated_evidence_convergence():
    """At 50 tokens the simple-Bayes posterior is a point mass on the
    best-supported hypothesis while the renormalized odds form splits
    belief between the two confirmed hypotheses; a zero evoking strength
    never moves a combined belief."""
    with criterion(3, "peaked/washed-out limits at n=50 plus exact zero-mass invariance"):
        with time_budget(1.0):
            points = convergence_probe(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=50))
            final = points[-1]
            assert abs(final.simple_bayes.beliefs["h1"] - 1.0) < 1e-6
            assert abs(final.simple_bayes.beliefs["h2"]) < 1e-6
            assert abs(final.simple_bayes.beliefs["h3"]) < 1e-6
            assert abs(final.odds_likelihood.beliefs["h1"] - 0.5) < 1e-3
            assert abs(final.odds_likelihood.beliefs["h2"] - 0.5) < 1e-3
            assert abs(final.odds_likelihood.beliefs["h3"]) < 1e-3
            # The disconfirmed hypothesis keeps positive combined belief
            # exactly because its evoking strength stays positive.
            assert final.naive_dempster_shafer.beliefs["h3"] > 0.0

            # Zero-mass invariance, exact: a zero evoking strength leaves
            # the combined belief untouched.
            masses = [0.5, 0.375, 0.042]
            assert barnett_combine(masses + [0.0]) == barnett_combine(masses)
            kb, observations = replicate_evidence_kb(
                ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.0), n=4)
            )
            shorter = naive_dempster_shafer(kb, observations[:3])
            longer = naive_dempster_shafer(kb, observations)
            assert shorter.beliefs["h3"] == 0.0 and longer.beliefs["h3"] == 0.0
            assert (
                longer.beliefs["h3"] * longer.pre_norm_sum
                == shorter.beliefs["h3"] * shorter.pre_norm_sum
            )


def test_criterion_4_hand_derived_two_observation_fixtures():
    """Two copies of the shared token: expectations frozen from exact
    fraction arithmetic over the documented formulas (the odds-form
    renormalized triple is (2/3, 18/43, 2/51) / (2466/2193))."""
    with criterion(4, "two-observation values for all three methods at 1e-6"):
        kb, observations = replicate_evidence_kb(ReplicatedEvidenceSpec.uniform((0.8, 0.6, 0.2), n=2))

        sb = simple_bayes(kb, observations)
        for disease, expected in zip(("h1", "h2", "h3"), (0.615385, 0.346154, 0.038462)):
            assert abs(sb.beliefs[disease] - expected) < 1e-6

        ol = odds_likelihood(kb, observations)
        assert abs(ol.pre_norm_sum - 1.124487) < 1e-6
        for disease, expected in zip(("h1", "h2", "h3"), (0.592863, 0.372263, 0.034874)):
            assert abs(ol.beliefs[disease] - expected) < 1e-6

        ds = naive_dempster_shafer(kb, observations)
        assert abs(ds.pre_norm_sum - 1.59375) < 1e-9
        for disease, expected in zip(("h1", "h2", "h3"), (0.75, 0.609375, 0.234375)):
            assert abs(ds.beliefs[disease] * ds.pre_norm_sum - expected) < 1e-6
        for disease, expected in zip(("h1", "h2", "h3"), (0.470588, 0.382353, 0.147059)):
            assert abs(ds.beliefs[disease] - expected) < 1e-6


def test_criterion_5_cf_parallel_combination_identity():
    """Folding the two-argument parallel combination reproduces the
    one-shot combination rule on random mass vectors."""
    with criterion(5, "pairwise fold equals 1 - prod(1 - m) on 1000 random vectors"):
        rng = random.Random(505)
        for _ in range(1000):
            masses = [rng.random() for _ in range(rng.randint(1, 12))]
            folded = reduce(cf_parallel_combine, masses, 0.0)
            direct = 1.0 - math.prod(1.0 - m for m in masses)
            assert abs(folded - direct) < 1e-12
            assert abs(barnett_combine(masses) - direct) < 1e-12


def test_criterion_6_decision_rule_invariances():
    """Positive scaling cannot move an argmax of beliefs; positive-affine
    disutility transforms cannot move the expected-disutility argmin."""
    from uncertain_dx.kb import ConditionalTable, Disease, Feature, KnowledgeBase

    def flat_kb(expansion):
        n = len(expansion)
        return KnowledgeBase(
            diseases=tuple(
                Disease(id=d, name=d, prior=1.0 / n, equivalence_class=c)
                for d, c in expansion.items()
            ),
            features=(Feature(id="f", name="f", values=("a", "b")),),
            conditionals=ConditionalTable(
                {("f", v, d): 0.5 for v in ("a", "b") for d in expansion}
            ),
        )

    with criterion(6, "argmax scale invariance and argmin affine invariance, 200 instances each"):
        rng = random.Random(606)
        for _ in range(200):
            n = rng.randint(2, 8)
            raw = {f"d{i}": rng.uniform(1e-4, 1.0) for i in range(n)}
            scale = rng.uniform(1e-3, 1e3)
            base = BeliefDistribution.from_unnormalized(raw, method="external")
            scaled = BeliefDistribution.from_unnormalized(
                {d: b * scale for d, b in raw.items()}, method="external"
            )
            assert max_belief_diagnosis(base) == max_belief_diagnosis(scaled)

        for _ in range(200):
            classes = [f"k{i}" for i in range(rng.randint(2, 4))]
            diseases = [f"d{i}" for i in range(rng.randint(2, 6))]
            expansion = {d: rng.choice(classes) for d in diseases}
            table = {(i, j): rng.uniform(0.0, 1e6) for i in classes for j in classes}
            scale, shift = rng.uniform(0.01, 100.0), rng.uniform(0.0, 1e5)
            u1 = UtilityMatrix(classes=tuple(classes), class_disutility=table, expansion=expansion)
            u2 = UtilityMatrix(
                classes=tuple(classes),
                class_disutility={k: v * scale + shift for k, v in table.items()},
                expansion=expansion,
            )
            kb = flat_kb(expansion)
            weights = {d: rng.random() + 1e-3 for d in diseases}
            p = BeliefDistribution.from_unnormalized(weights, method="external")
            assert meu_diagnosis(p, u1, kb) == meu_diagnosis(p, u2, kb)


def test_criterion_7_evaluation_identities(fixture_kb, fixture_cases, fixture_utilities):
    """The gold diagnosis is never beaten, coinciding diagnoses rate
    identically, case weights are a distribution, and the money/risk
    conversion is exact at the documented rate."""
    with criterion(7, "rating bounds, zero diffs on agreement, weight normalization, conversion"):
        # Shipped fixture: recompute the identity with public operations.
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
                    assert r - r_gold == 0.0

        # 200 random cases over random class structures.
        rng = random.Random(707)
        for _ in range(200):
            kb = random_kb(rng, rng.randint(2, 6), rng.randint(1, 4))
            classes = sorted({d.equivalence_class for d in kb.diseases})
            utilities = UtilityMatrix(
                classes=tuple(classes),
                class_disutility={(i, j): rng.uniform(0.0, 1e6) for i in classes for j in classes},
                expansion={d.id: d.equivalence_class for d in kb.diseases},
            )
            p_gold = BeliefDistribution.from_unnormalized(
                {d.id: rng.random() + 1e-6 for d in kb.diseases}, method="external"
            )
            dx_gold = meu_diagnosis(p_gold, utilities, kb)
            r_gold = expected_disutility(p_gold, utilities, dx_gold, kb)
            dist = simple_bayes(kb, random_observations(rng, kb, rng.randint(0, 3)))
            dx = max_belief_diagnosis(dist)
            r = expected_disutility(p_gold, utilities, dx, kb)
            assert r >= r_gold
            if dx == dx_gold:
                assert r == r_gold

            cases = [
                CaseRecord(id=f"c{i}", observations=(), true_diagnosis=rng.choice(kb.diseases).id)
                for i in range(rng.randint(1, 10))
            ]
            weights = case_weights(cases, kb)
            assert abs(math.fsum(w.weight for w in weights) - 1.0) < 1e-12

        assert wtp_to_micromorts(100.0, 100_000_000.0).amount == 1.0


def test_criterion_8_statistics_sanity():
    """The Monte Carlo test is reproducible, roughly uniform under its
    null, and the rank test flags the separated example."""
    with criterion(8, "permutation determinism, null ASL band, rank-test example"):
        with time_budget(30.0):
            rng = random.Random(808)
            diffs = [rng.gauss(0.4, 1.0) for _ in range(14)]
            weights = [CaseWeight(f"c{i:02d}", 1.0 / 14) for i in range(14)]
            assert permutation_test(diffs, weights, 2000, seed=31) == permutation_test(
                diffs, weights, 2000, seed=31
            )

            low = 0
            for trial in range(200):
                trial_rng = random.Random(9000 + trial)
                n = 16
                null_diffs = [trial_rng.gauss(0.0, 1.0) for _ in range(n)]
                trial_weights = [CaseWeight(f"c{i:02d}", 1.0 / n) for i in range(n)]
                asl = permutation_test(null_diffs, trial_weights, 1000, seed=trial)
                low += asl <= 0.1
            assert 0.04 <= low / 200 <= 0.18, f"null ASL <= 0.1 fraction {low / 200}"

            assert wilcoxon_rank_test([8.0, 9.0, 10.0, 9.0], [1.0, 0.0, 2.0, 1.0]) < 0.05


def test_criterion_9_golden_end_to_end(tmp_path, data_dir, monkeypatch):
    """The shipped five-case fixture reproduces the frozen report byte for
    byte, with the poisoned all-zero case excluded and named."""
    with criterion(9, "cmd_evaluate reproduces the golden report byte-for-byte"):
        monkeypatch.chdir(data_dir.parent.parent)
        out = tmp_path / "report.tsv"
        rc = main(
            [
                "evaluate",
                "--kb", "tests/data/fixture_kb.json",
                "--cases", "tests/data/fixture_cases.json",
                "--utilities", "tests/data/fixture_utilities.json",
                "--seed", "7",
                "--iterations", "2000",
                "--out", str(out),
            ]
        )
        assert rc == 0
        produced = out.read_bytes()
        assert produced == (data_dir / "golden_report.tsv").read_bytes()
        text = produced.decode("utf-8")
        for label in (
            "Informed gold standard",
            "Simple Bayes-MEU",
            "Simple Bayes",
            "Odds-likelihood",
            "Naive Dempster-Shafer",
        ):
            assert f"\n{label}\t" in text
        assert "c5\tsimple_bayes: AllHypothesesRuledOut" in text
