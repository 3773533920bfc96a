"""Synthetic knowledge bases and brute-force oracles for desk-scale checks.

The replicated-evidence construction builds a knowledge base in which every
feature is an independent copy of the same binary evidence token, sharing
one "present" and one "absent" row object, which the engine compiles once
for all three calculi.  So the behavior of each inference method under
growing evidence can be inspected exactly and cheaply: the simple-Bayes
posterior concentrates on the best-supported hypothesis, while renormalized
odds-likelihood washes out differences between every hypothesis whose
evidence is confirmatory on balance.

brute_force_posterior is the trusted reference for the simple-Bayes
computation: plain linear-space products with compensated summation, no
log-space tricks, deliberately limited to small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .engine import _prefixes
from .kb import (
    CALCULI,
    PROB_SUM_TOL,
    BeliefDistribution,
    ConditionalTable,
    Disease,
    Feature,
    KnowledgeBase,
    Observation,
    _LoadedEntries,
    validate_kb,  # unused here; bench/spans.py patches synth.validate_kb by name
)

# Each calculus on every nonempty prefix of an observation list.  convergence_probe looks these
# up by name when it runs, so a replaced synth.<calculus> (bench/spans.py patches them) runs.
simple_bayes, odds_likelihood, naive_dempster_shafer = (partial(_prefixes, calculus=c) for c in CALCULI)

# The oracle exists to be trusted, so it stays small and simple.
ORACLE_MAX_DISEASES = 64
# The most evidence copies a spec may ask for: the probe builds a feature per copy.
MAX_COPIES = 100_000


@dataclass(frozen=True)
class ReplicatedEvidenceSpec:
    """n independent copies of one binary evidence token.

    ``likelihoods[i]`` is the probability of observing the token under
    hypothesis i; the negative value carries the complement so each
    conditional row sums to one.
    """

    likelihoods: tuple[float, ...]
    priors: tuple[float, ...]
    n: int

    def __post_init__(self) -> None:
        if not self.likelihoods:
            raise ValueError("at least one hypothesis required")
        if len(self.likelihoods) != len(self.priors):
            raise ValueError(
                f"{len(self.likelihoods)} likelihoods but {len(self.priors)} priors"
            )
        if any(not 0.0 <= p <= 1.0 for p in self.likelihoods):
            raise ValueError("likelihoods must lie in [0, 1]")
        if any(not 0.0 < p <= 1.0 for p in self.priors):
            raise ValueError("priors must be positive and at most 1")
        if abs(math.fsum(self.priors) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"priors must sum to 1, got {math.fsum(self.priors)!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.n > MAX_COPIES:
            raise ValueError(f"n must be at most {MAX_COPIES}, got {self.n}")

    @classmethod
    def uniform(cls, likelihoods: Sequence[float], n: int) -> "ReplicatedEvidenceSpec":
        m = len(likelihoods)
        return cls(likelihoods=tuple(likelihoods), priors=(1.0 / m,) * m, n=n)


def replicate_evidence_kb(spec: ReplicatedEvidenceSpec) -> tuple[KnowledgeBase, list[Observation]]:
    """Build the replicated-evidence knowledge base and its observation set.

    Hypotheses are named h1..hm, features e1..en with values
    present/absent, and the returned observations report every token as
    present.  Every token shares one "present" and one "absent" vector.
    """
    diseases = tuple(
        Disease(id=f"h{i + 1}", name=f"H{i + 1}", prior=p, equivalence_class=f"h{i + 1}")
        for i, p in enumerate(spec.priors)
    )
    features = tuple(
        Feature(id=f"e{k + 1}", name=f"evidence {k + 1}", values=("present", "absent"))
        for k in range(spec.n)
    )
    by_value = {"present": list(spec.likelihoods), "absent": [1.0 - p for p in spec.likelihoods]}
    vectors = dict.fromkeys([f.id for f in features], by_value)
    kb = KnowledgeBase(diseases, features, ConditionalTable(_LoadedEntries(diseases, features, vectors)))
    observations = [Observation(feature=f.id, value="present") for f in features]
    return kb, observations


def brute_force_posterior(
    kb: KnowledgeBase, observations: Sequence[Observation]
) -> BeliefDistribution:
    """Reference posterior by direct enumeration in linear arithmetic.

    Computes prior(d) * prod p(obs|d) for every disease with plain
    products and compensated summation, then normalizes.  Guarded to
    small disease sets; the whole point is being simple enough to trust.
    """
    if len(kb.diseases) > ORACLE_MAX_DISEASES:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_DISEASES} diseases, got {len(kb.diseases)}"
        )
    raw = {
        d.id: d.prior * math.prod(kb.vectors[o.feature][o.value][i] for o in observations)
        for i, d in enumerate(kb.diseases)
    }
    dist = BeliefDistribution.from_unnormalized(raw, method="external")
    # The reference is a true posterior; the raw sum is the evidence
    # marginal, not unassigned mass.
    return BeliefDistribution(beliefs=dist.beliefs, pre_norm_sum=1.0, method="external")


@dataclass(frozen=True)
class ProbePoint:
    n: int
    simple_bayes: BeliefDistribution
    odds_likelihood: BeliefDistribution
    naive_dempster_shafer: BeliefDistribution


def convergence_probe(spec: ReplicatedEvidenceSpec) -> list[ProbePoint]:
    """Run every calculus in ``CALCULI`` on 1..spec.n replicated tokens.

    Builds one knowledge base of ``spec.n`` tokens and runs each calculus once
    on all of it: step n is its first n observations, the n-token result.
    Tokens share one row object, compiled once for all three calculi, so
    simple Bayes and naive Dempster-Shafer fail at step 1 if at all, and
    odds-likelihood later only if neither does: each trajectory in turn
    raises what a step-by-step run raises.  Returns the full trajectory so
    peakedness and washout can be plotted or asserted.
    """
    kb, observations = replicate_evidence_kb(spec)
    trajectories = [globals()[name](kb, observations) for name in CALCULI]
    return [ProbePoint(n, **dict(zip(CALCULI, step))) for n, step in enumerate(zip(*trajectories), 1)]


def probe_tsv(points: Sequence[ProbePoint]) -> str:
    """Trajectory as TSV with columns n, method, disease, belief."""
    lines = ["n\tmethod\tdisease\tbelief"]
    for point in points:
        for method in CALCULI:
            dist: BeliefDistribution = getattr(point, method)
            for disease, belief in dist.beliefs.items():
                lines.append(f"{point.n}\t{method}\t{disease}\t{belief:.6f}")
    return "\n".join(lines) + "\n"
