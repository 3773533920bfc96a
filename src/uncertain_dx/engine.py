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
once, at normalization.  A calculus's term for one finding depends only
on the knowledge base, so it is compiled once per (knowledge base,
calculus, finding) from the p(obs | d) row, which the calculi share, and
memoized on the knowledge base.  A case then checks its observations,
looks up their terms and fsums each disease's column: O(D*O) for D
diseases and O observations, with no table reads once its findings are
compiled.  Results are the same as from recomputing every term.  All
functions are safe to call concurrently on shared knowledge bases.

A ``KnowledgeBase`` is valid by construction, so the only errors are
UnknownObservation, ConflictingObservations, AllHypothesesRuledOut,
ZeroMarginal, EmptyEvidence, UnknownDisease and DegeneratePrior.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .errors import (
    AllHypothesesRuledOut,
    DegeneratePrior,
    EmptyEvidence,
    UnknownDisease,
    ZeroMarginal,
)
from .kb import CALCULI, BeliefDistribution, KnowledgeBase, Observation, _check_observation

# A prior this close to 1 leaves no measurable mass on the negation.
_PRIOR_ONE_TOL = 1e-12


def _row(kb: KnowledgeBase, obs: Observation) -> tuple:
    """The p(obs | d) row, one entry per disease, that the calculi compile their
    terms from: read on first use, after checking ``obs``, and memoized."""
    key = ("row", obs.feature, obs.value)
    row = kb.compiled_terms.get(key)
    if row is None:
        _check_observation(kb, obs, set())
        entries = kb.conditionals.entries
        row = tuple([entries[(obs.feature, obs.value, d.id)] for d in kb.diseases])
        kb.compiled_terms[key] = row
    return row


def _compiled(kb: KnowledgeBase, calculus: str, observations: Sequence[Observation]) -> list:
    """Check the observations, then return each one's ``calculus`` terms, one
    per disease, computed on first use from its row and memoized on the
    knowledge base.  A compile error memoizes only the row."""
    seen: set[str] = set()
    for obs in observations:
        _check_observation(kb, obs, seen)
    memo = kb.compiled_terms
    found = []
    for obs in observations:
        key = (calculus, obs.feature, obs.value)
        terms = memo.get(key)
        if terms is None:
            terms = memo[key] = _COMPILE[calculus](kb, obs, _row(kb, obs))
        found.append(terms)
    return found


def _marginal(kb: KnowledgeBase, row: Sequence[float]) -> float:
    return min(math.fsum(d.prior * p for d, p in zip(kb.diseases, row)), 1.0)


def _negation(p_obs: float, p: float, prior: float) -> float:
    # Never negative: p_obs is an fsum of nonnegative terms, p * prior among them, capped at 1.
    return min((p_obs - p * prior) / (1.0 - prior), 1.0)


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


def _simple_bayes_terms(kb: KnowledgeBase, obs: Observation, row: Sequence[float]) -> tuple:
    return tuple([_log(p) for p in row])


def _odds_likelihood_terms(kb: KnowledgeBase, obs: Observation, row: Sequence[float]) -> tuple:
    """log p(obs | d) - log p(obs | not-d) per disease.  -inf marks a zero
    p(obs | d), which rules d out, and +inf a zero p(obs | not-d), which
    rules d in; neither arises otherwise.  A prior of one rules d in first."""
    p_obs = _marginal(kb, row)
    terms = []
    for d, p in zip(kb.diseases, row):
        if p == 0.0 or d.prior >= 1.0 - _PRIOR_ONE_TOL:
            terms.append(-math.inf if p == 0.0 else math.inf)
            continue
        denom = _negation(p_obs, p, d.prior)
        terms.append(math.inf if denom == 0.0 else math.log(p) - math.log(denom))
    return tuple(terms)


def _log_complements(masses: Iterable[float]) -> tuple:
    """log(1 - m) per mass, or -inf for a mass of 1 or more, which is absorbing."""
    return tuple([-math.inf if m >= 1.0 else math.log1p(-m) for m in masses])


def _naive_dempster_shafer_terms(kb: KnowledgeBase, obs: Observation, row: Sequence[float]) -> tuple:
    return _log_complements(_evoking(kb, obs, row))


def _combined(terms: Sequence[float]) -> float:
    """1 - prod(1 - m) from the masses' log complements."""
    return 1.0 if -math.inf in terms else -math.expm1(math.fsum(terms))


def _prior_log_odds(prior: float) -> float:
    if prior >= 1.0 - _PRIOR_ONE_TOL:
        return math.inf  # an exhaustive single hypothesis has infinite prior odds
    return math.log(prior) - math.log1p(-prior)


# Each calculus's term compiler, found by name, so CALCULI alone sets the keys and their order.
_COMPILE: dict[str, Callable] = {name: globals()[f"_{name}_terms"] for name in CALCULI}


def simple_bayes(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    """Posterior over diseases assuming evidence independent given disease.

    belief(d) is proportional to prior(d) times the product of
    p(obs | d) over the observations; an empty observation set leaves
    the priors.  The result is a genuine probability distribution, so
    pre_norm_sum is 1 by construction.
    """
    priors = [_log(d.prior) for d in kb.diseases]
    columns = zip(priors, *_compiled(kb, "simple_bayes", observations))
    # fsum is order-exact, so permuting the observations cannot move the
    # result even in the last bit.
    log_mass = {d.id: math.fsum(column) for d, column in zip(kb.diseases, columns)}

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
    return _marginal(kb, _row(kb, obs))


def negation_conditional(kb: KnowledgeBase, obs: Observation, disease_id: str) -> float:
    """p(obs | not-d), derived from the marginal rather than assessed.

    Computed as (p(obs) - p(obs|d) p(d)) / (1 - p(d)), capped at 1.
    """
    row = _row(kb, obs)
    disease = kb.disease_index.get(disease_id)
    if disease is None:
        raise UnknownDisease(f"unknown disease '{disease_id}'")
    if disease.prior >= 1.0 - _PRIOR_ONE_TOL:
        raise DegeneratePrior(f"disease '{disease_id}' has prior 1; negation is empty")
    p = row[kb.diseases.index(disease)]
    return _negation(_marginal(kb, row), p, disease.prior)


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
    priors = [_prior_log_odds(d.prior) for d in kb.diseases]
    columns = zip(priors, *_compiled(kb, "odds_likelihood", observations))
    pre_norm: dict[str, float] = {}
    infinite: list[str] = []
    for d, column in zip(kb.diseases, columns):
        if -math.inf in column:
            pre_norm[d.id] = 0.0
        elif math.inf in column:
            pre_norm[d.id] = 1.0
            infinite.append(d.id)
        else:
            pre_norm[d.id] = _sigmoid(math.fsum(column))

    pre_norm_sum = math.fsum(pre_norm.values())
    if infinite:
        share = 1.0 / len(infinite)
        beliefs = {d: (share if d in infinite else 0.0) for d in pre_norm}
    elif pre_norm_sum > 0.0:
        beliefs = {d: p / pre_norm_sum for d, p in pre_norm.items()}
    else:
        raise AllHypothesesRuledOut("every disease has zero posterior odds")
    return BeliefDistribution(beliefs=beliefs, pre_norm_sum=pre_norm_sum, method="odds_likelihood")


def evoking_strength(kb: KnowledgeBase, obs: Observation) -> dict[str, float]:
    """Single-observation posterior for each disease, its singleton mass.

    ES(d, obs) = p(d) p(obs|d) / sum_j p(d_j) p(obs|d_j), which is
    Bayes' theorem over the exhaustive disease set for one observation.
    The rest of each disease's mass sits on its whole two-element frame.
    """
    row = _row(kb, obs)
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
    return _combined(_log_complements(masses))


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
    columns = zip(*_compiled(kb, "naive_dempster_shafer", observations))
    raw = {d.id: _combined(column) for d, column in zip(kb.diseases, columns)}
    return BeliefDistribution.from_unnormalized(raw, method="naive_dempster_shafer")
