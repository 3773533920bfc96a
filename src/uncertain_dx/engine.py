"""Three inference methods mapping observations to disease beliefs.

All three consume the same assessments: disease priors and conditional
probabilities p(feature=value | disease).

* simple_bayes: Bayes' theorem assuming evidence conditionally
  independent given each disease.
* odds_likelihood: updating in odds form, additionally assuming
  independence given each disease's negation; the resulting
  probabilities generally do not sum to one and are renormalized.
* naive_dempster_shafer: per-observation single-disease posteriors
  (evoking strengths) treated as singleton mass assignments on a
  two-element frame per disease, combined with Dempster's rule for
  simple support functions, then renormalized.

Products run in log space so that cases with a hundred or more
observations cannot underflow; conversion back to probabilities happens
once, at normalization.  Each method checks its observations and reads
every p(obs | d) exactly once, so a case costs O(D*O) for D diseases and
O observations.  All functions are pure and safe to call concurrently on
shared immutable inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import (
    AllHypothesesRuledOut,
    DegeneratePrior,
    EmptyEvidence,
    InconsistentProbabilities,
    UnknownDisease,
    ZeroMarginal,
)
from .kb import BeliefDistribution, KnowledgeBase, Observation, _check_observation

# A prior this close to 1 leaves no measurable mass on the negation.
_PRIOR_ONE_TOL = 1e-12
# Rounding may push the negation-conditional numerator slightly below
# zero; anything worse than this indicates inconsistent inputs.
_NEGATIVE_NUMERATOR_TOL = -1e-12

__all__ = [
    "BeliefDistribution",
    "simple_bayes",
    "marginal",
    "negation_conditional",
    "odds_likelihood",
    "evoking_strength",
    "naive_dempster_shafer",
    "cf_parallel_combine",
    "barnett_combine",
]


def _rows(kb: KnowledgeBase, observations: Sequence[Observation]) -> list[list[float]]:
    """Check the observations, then read p(obs | d) once per (obs, disease).

    Returns one row per observation, in ``kb.diseases`` order.  Every
    calculus and view reads the table through here and nowhere else.
    """
    seen: set[str] = set()
    for obs in observations:
        _check_observation(kb, obs, seen)
    entries = kb.conditionals.entries
    return [
        [entries[(obs.feature, obs.value, d.id)] for d in kb.diseases] for obs in observations
    ]


def _marginal(kb: KnowledgeBase, row: Sequence[float]) -> float:
    return min(math.fsum(d.prior * p for d, p in zip(kb.diseases, row)), 1.0)


def _negation(p_obs: float, p: float, prior: float, obs: Observation, disease_id: str) -> float:
    numerator = p_obs - p * prior
    if numerator < _NEGATIVE_NUMERATOR_TOL:
        raise InconsistentProbabilities(
            f"negation conditional numerator {numerator!r} for ('{obs.feature}', '{obs.value}', '{disease_id}')"
        )
    return min(max(numerator, 0.0) / (1.0 - prior), 1.0)


def _evoking(kb: KnowledgeBase, obs: Observation, row: Sequence[float]) -> list[float]:
    weighted = [d.prior * p for d, p in zip(kb.diseases, row)]
    z = math.fsum(weighted)
    if z <= 0.0:
        raise ZeroMarginal(
            f"observation ('{obs.feature}', '{obs.value}') has zero marginal probability"
        )
    return [w / z for w in weighted]


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _sigmoid(log_odds: float) -> float:
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


def simple_bayes(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    """Posterior over diseases assuming evidence independent given disease.

    belief(d) is proportional to prior(d) times the product of
    p(obs | d) over the observations; an empty observation set leaves
    the priors.  The result is a genuine probability distribution, so
    pre_norm_sum is 1 by construction.
    """
    rows = _rows(kb, observations)
    log_mass: dict[str, float] = {}
    for i, d in enumerate(kb.diseases):
        terms = [_log(d.prior)]
        terms.extend(_log(row[i]) for row in rows)
        # fsum is order-exact, so permuting the observations cannot move
        # the result even in the last bit.
        log_mass[d.id] = math.fsum(terms)

    peak = max(log_mass.values())
    if peak == -math.inf:
        raise AllHypothesesRuledOut("every disease has zero posterior mass")
    unnorm = {d: math.exp(lm - peak) for d, lm in log_mass.items()}
    z = math.fsum(unnorm.values())
    return BeliefDistribution(
        beliefs={d: u / z for d, u in unnorm.items()},
        pre_norm_sum=1.0,
        method="simple_bayes",
    )


def marginal(kb: KnowledgeBase, obs: Observation) -> float:
    """p(obs) = sum over diseases of p(obs | d) * p(d)."""
    return _marginal(kb, _rows(kb, [obs])[0])


def negation_conditional(kb: KnowledgeBase, obs: Observation, disease_id: str) -> float:
    """p(obs | not-d), derived from the marginal rather than assessed.

    Computed as (p(obs) - p(obs|d) p(d)) / (1 - p(d)).  The numerator is
    mathematically nonnegative; tiny negatives from rounding are clamped
    to zero, anything larger is reported as an inconsistency.
    """
    (row,) = _rows(kb, [obs])
    disease = kb.disease_index.get(disease_id)
    if disease is None:
        raise UnknownDisease(f"unknown disease '{disease_id}'")
    if disease.prior >= 1.0 - _PRIOR_ONE_TOL:
        raise DegeneratePrior(f"disease '{disease_id}' has prior 1; negation is empty")
    p = row[kb.diseases.index(disease)]
    return _negation(_marginal(kb, row), p, disease.prior, obs, disease_id)


def odds_likelihood(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    """Odds-form updating with independence assumed on disease negations.

    Per disease, posterior odds are prior odds times the product of
    likelihood ratios p(obs|d) / p(obs|not-d), accumulated as log odds.
    Each odds value is mapped back through p = O / (1 + O); the sum of
    these probabilities is recorded (it is 1 only when each hypothesis
    is updated by at most one observation) and the vector renormalized.

    Limit conventions: a disease with any zero-probability observation
    is ruled out regardless of other factors.  Otherwise a zero
    denominator makes the odds infinite and the pre-normalization belief
    1; if several diseases are infinite together they share the
    renormalized mass equally and every finite disease gets 0.
    """
    rows = _rows(kb, observations)
    marginals = [_marginal(kb, row) for row in rows]
    pre_norm: dict[str, float] = {}
    infinite: list[str] = []
    for i, d in enumerate(kb.diseases):
        if any(row[i] == 0.0 for row in rows):
            pre_norm[d.id] = 0.0
            continue
        if d.prior >= 1.0 - _PRIOR_ONE_TOL:
            # An exhaustive single hypothesis has infinite prior odds.
            pre_norm[d.id] = 1.0
            infinite.append(d.id)
            continue
        terms = [math.log(d.prior) - math.log1p(-d.prior)]
        ruled_in = False
        for obs, row, p_obs in zip(observations, rows, marginals):
            denom = _negation(p_obs, row[i], d.prior, obs, d.id)
            if denom == 0.0:
                ruled_in = True
                break
            terms.append(math.log(row[i]) - math.log(denom))
        if ruled_in:
            pre_norm[d.id] = 1.0
            infinite.append(d.id)
        else:
            pre_norm[d.id] = _sigmoid(math.fsum(terms))

    pre_norm_sum = math.fsum(pre_norm.values())
    if infinite:
        share = 1.0 / len(infinite)
        beliefs = {d: (share if d in infinite else 0.0) for d in pre_norm}
        return BeliefDistribution(beliefs=beliefs, pre_norm_sum=pre_norm_sum, method="odds_likelihood")
    if pre_norm_sum <= 0.0:
        raise AllHypothesesRuledOut("every disease has zero posterior odds")
    return BeliefDistribution(
        beliefs={d: p / pre_norm_sum for d, p in pre_norm.items()},
        pre_norm_sum=pre_norm_sum,
        method="odds_likelihood",
    )


def evoking_strength(kb: KnowledgeBase, obs: Observation) -> dict[str, float]:
    """Single-observation posterior for each disease, its singleton mass.

    ES(d, obs) = p(d) p(obs|d) / sum_j p(d_j) p(obs|d_j), which is
    Bayes' theorem over the exhaustive disease set for one observation.
    The rest of each disease's mass sits on its whole two-element frame.
    """
    (row,) = _rows(kb, [obs])
    return {d.id: m for d, m in zip(kb.diseases, _evoking(kb, obs, row))}


def cf_parallel_combine(x: float, y: float) -> float:
    """Parallel combination of two confirming certainty values.

    Returns 1 - (1-x)(1-y), algebraically x + y(1-x): commutative,
    associative, identity 0, absorbing element 1.
    """
    return x + y * (1.0 - x)


def barnett_combine(masses: Iterable[float]) -> float:
    """Combined singleton belief 1 - prod(1 - m) over simple support masses.

    Evaluated through logs so that long streams of small masses keep
    full precision; a mass of 1 is absorbing exactly, and a mass of 0
    leaves the combination exactly unchanged.
    """
    terms = []
    for m in masses:
        if m >= 1.0:
            return 1.0
        terms.append(math.log1p(-m))
    return -math.expm1(math.fsum(terms))


def naive_dempster_shafer(
    kb: KnowledgeBase, observations: Sequence[Observation]
) -> BeliefDistribution:
    """Belief per disease from combining evoking strengths across observations.

    Bel(d) = 1 - prod over observations of (1 - ES(d, obs)), renormalized
    to sum to one.  Rejects an empty observation set: the empty
    combination assigns zero belief everywhere, which has no defensible
    normalization.
    """
    if not observations:
        raise EmptyEvidence("naive Dempster-Shafer requires at least one observation")
    rows = _rows(kb, observations)
    strengths = [_evoking(kb, obs, row) for obs, row in zip(observations, rows)]
    raw = {d.id: barnett_combine(es[i] for es in strengths) for i, d in enumerate(kb.diseases)}
    return BeliefDistribution.from_unnormalized(raw, method="naive_dempster_shafer")
