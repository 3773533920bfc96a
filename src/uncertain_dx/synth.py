"""Synthetic knowledge bases and brute-force oracles for desk-scale checks.

The replicated-evidence construction builds a knowledge base in which
every feature is an independent copy of the same binary evidence token,
so the behavior of each inference method under growing evidence can be
inspected exactly: the simple-Bayes posterior concentrates on the
best-supported hypothesis, while renormalized odds-likelihood washes out
differences between every hypothesis whose evidence is confirmatory on
balance.

brute_force_posterior is the trusted reference for the simple-Bayes
computation: plain linear-space products with compensated summation, no
log-space tricks, deliberately limited to small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .engine import naive_dempster_shafer, odds_likelihood, simple_bayes
from .kb import (
    PROB_SUM_TOL,
    BeliefDistribution,
    ConditionalTable,
    Disease,
    Feature,
    KnowledgeBase,
    Observation,
    validate_kb,  # unused here; bench/spans.py patches synth.validate_kb by name
)

# The oracle exists to be trusted, so it stays small and simple.
ORACLE_MAX_DISEASES = 64


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

    @classmethod
    def uniform(cls, likelihoods: Sequence[float], n: int) -> "ReplicatedEvidenceSpec":
        m = len(likelihoods)
        return cls(likelihoods=tuple(likelihoods), priors=(1.0 / m,) * m, n=n)


def replicate_evidence_kb(spec: ReplicatedEvidenceSpec) -> tuple[KnowledgeBase, list[Observation]]:
    """Build the replicated-evidence knowledge base and its observation set.

    Hypotheses are named h1..hm, features e1..en with values
    present/absent, and the returned observations report every token as
    present.
    """
    diseases = tuple(
        Disease(id=f"h{i + 1}", name=f"H{i + 1}", prior=p, equivalence_class=f"h{i + 1}")
        for i, p in enumerate(spec.priors)
    )
    features = tuple(
        Feature(id=f"e{k + 1}", name=f"evidence {k + 1}", values=("present", "absent"))
        for k in range(spec.n)
    )
    entries: dict[tuple[str, str, str], float] = {}
    for feature in features:
        for disease, likelihood in zip(diseases, spec.likelihoods):
            entries[(feature.id, "present", disease.id)] = likelihood
            entries[(feature.id, "absent", disease.id)] = 1.0 - likelihood
    kb = KnowledgeBase(diseases=diseases, features=features, conditionals=ConditionalTable(entries))
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
        d.id: d.prior
        * math.prod(kb.conditionals.prob(o.feature, o.value, d.id) for o in observations)
        for d in kb.diseases
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


def convergence_probe(spec: ReplicatedEvidenceSpec, n_max: int) -> list[ProbePoint]:
    """Run all three methods on 1..n_max replicated tokens.

    Returns the full trajectory so peakedness and washout behavior can
    be plotted or asserted.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    # The calculi read only observed rows, so n of n_max tokens give the n-token result.
    kb, observations = replicate_evidence_kb(replace(spec, n=n_max))
    points = []
    for n in range(1, n_max + 1):
        first = observations[:n]
        points.append(
            ProbePoint(
                n=n,
                simple_bayes=simple_bayes(kb, first),
                odds_likelihood=odds_likelihood(kb, first),
                naive_dempster_shafer=naive_dempster_shafer(kb, first),
            )
        )
    return points


def probe_tsv(points: Sequence[ProbePoint]) -> str:
    """Trajectory as TSV with columns n, method, disease, belief."""
    lines = ["n\tmethod\tdisease\tbelief"]
    for point in points:
        for method in ("simple_bayes", "odds_likelihood", "naive_dempster_shafer"):
            dist: BeliefDistribution = getattr(point, method)
            for disease, belief in dist.beliefs.items():
                lines.append(f"{point.n}\t{method}\t{disease}\t{belief:.6f}")
    return "\n".join(lines) + "\n"
