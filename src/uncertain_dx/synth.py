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
from itertools import repeat
from typing import Sequence

from .engine import _distribution, _prefixes
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

# Each calculus's (beliefs, pre_norm_sum) row on every nonempty prefix of an observation list.  The
# probe looks these up by name when it runs, so a replaced synth.<calculus> (bench/spans.py patches them) runs.
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
        return cls(likelihoods=tuple(likelihoods), priors=(1.0 / max(m, 1),) * m, n=n)  # __post_init__ rejects m = 0


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
    ids = [f"e{k}" for k in range(1, spec.n + 1)]
    names = [f"evidence {k}" for k in range(1, spec.n + 1)]
    features = tuple(map(Feature, ids, names, repeat(("present", "absent"))))
    by_value = {"present": list(spec.likelihoods), "absent": [1.0 - p for p in spec.likelihoods]}
    vectors = dict.fromkeys(ids, by_value)
    kb = KnowledgeBase(diseases, features, ConditionalTable(_LoadedEntries(diseases, features, vectors)))
    return kb, list(map(Observation, ids, repeat("present")))


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


def _trajectories(spec: ReplicatedEvidenceSpec) -> tuple[KnowledgeBase, list[list[tuple]]]:
    """The knowledge base of ``spec.n`` tokens and each calculus's rows on its first 1..spec.n
    observations, the n-token results.  Tokens share one row object, compiled once for all three
    calculi, so simple Bayes and naive Dempster-Shafer fail at step 1 if at all, and odds-likelihood
    later only if neither does: each trajectory in turn raises what a step-by-step run raises."""
    kb, observations = replicate_evidence_kb(spec)
    return kb, [globals()[name](kb, observations) for name in CALCULI]


def convergence_probe(spec: ReplicatedEvidenceSpec) -> list[ProbePoint]:
    """Every calculus in ``CALCULI`` on 1..spec.n replicated tokens: the full trajectory, to plot or assert on."""
    kb, trajectories = _trajectories(spec)
    return [ProbePoint(n, *(_distribution(kb, *row, name) for row, name in zip(step, CALCULI)))
            for n, step in enumerate(zip(*trajectories), 1)]


def probe_tsv(spec: ReplicatedEvidenceSpec) -> str:
    """``convergence_probe(spec)`` as TSV with columns n, method, disease, belief, formatted
    straight from each step's rows by one printf template of every (method, disease) line, with
    the step's n written into each line's "{n}" first (no method name or h1..hm holds "%" or "{n}")."""
    kb, trajectories = _trajectories(spec)
    template = "".join(f"{{n}}\t{method}\t{disease}\t%.6f\n" for method in CALCULI for disease in kb.disease_index)
    text = ["n\tmethod\tdisease\tbelief\n"]
    for n, step in enumerate(zip(*trajectories), 1):  # a tuple of a list: ones grown from a generator pile up unreused
        text.append(template.replace("{n}", str(n)) % tuple([belief for beliefs, _ in step for belief in beliefs]))
    return "".join(text)
