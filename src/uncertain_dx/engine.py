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
once, at normalization.  The calculi differ in two steps, the columns of one
table, ``_STEPS``, which has a row per name in ``CALCULI``: the term of a
disease's prior, and the combine step from each disease column's fsum to a
distribution.  Their terms of a finding share log p(obs | d), p(d) p(obs | d)
and its sum, so ``_finding_terms`` compiles all three at once, in C-level
passes over the finding's vector in ``KnowledgeBase.vectors``, into one memo
on the knowledge base that also keeps the prior terms.  A call compiles each
row object once, so replicated tokens share their row's terms, and is O(D*O)
for D diseases and O observations; so is ``_prefixes``, every prefix's result
from exact integer running sums that round as fsum does.  Results and errors
are each calculus's own, as from checking every observation and recomputing
every term.  Combine steps and ``_prefixes`` give (beliefs in disease order,
pre_norm_sum) rows, which become distributions only in ``_infer``, behind the
public calculi, and in ``synth.convergence_probe``; normalized by construction,
they skip a file's distribution checks.  All functions are safe to call
concurrently on shared knowledge bases.

A ``KnowledgeBase`` is valid by construction, so the only errors are
UnknownObservation, ConflictingObservations, AllHypothesesRuledOut,
ZeroMarginal, EmptyEvidence, UnknownDisease and DegeneratePrior, and
``barnett_combine``'s ValueError for a mass outside [0, 1].
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import mul, neg, sub, truediv
from typing import Callable, Iterable, Sequence

from .errors import AllHypothesesRuledOut, DegeneratePrior, EmptyEvidence, UnknownDisease, ZeroMarginal
from .kb import CALCULI, BeliefDistribution, KnowledgeBase, Observation, _check_observation, _exact_integers

# A prior this close to 1 leaves no measurable mass on the negation.
_PRIOR_ONE_TOL = 1e-12

def _weighted(kb: KnowledgeBase, obs: Observation) -> tuple[list[float], float]:
    """p(d) p(obs | d) per disease, and their fsum; checks ``obs`` first."""
    _check_observation(kb, obs, set())
    weighted = list(map(mul, _priors(kb)[0], kb.vectors[obs.feature][obs.value]))
    return weighted, math.fsum(weighted)


def _sigmoid(log_odds: float) -> float:
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


def _finding_terms(row: Sequence[float], priors: Sequence[float], complements: Sequence[float] | None) -> tuple:
    """A row's terms in ``CALCULI`` order: log p(obs | d); log p(obs | d) - log p(obs | not-d), or -inf
    if p(obs | d) is 0, else +inf if the prior is 1 or p(obs | not-d) is 0; log(1 - evoking strength), or
    None for a zero marginal.  No ``complements`` (a prior of 1), or a log of 0 (a zero entry, a zero
    negation, every one for a zero marginal, or a mass of 1), sends the row through the per-disease loop."""
    weighted = list(map(mul, priors, row))
    z = math.fsum(weighted)
    if complements is not None:
        try:
            logs = tuple(map(math.log, row))
            negations = list(map(truediv, map(sub, repeat(min(z, 1.0)), weighted), complements))
            if max(negations) > 1.0:  # rounding overshot: cap at 1; min(x, 1) is x otherwise
                negations = map(min, negations, repeat(1.0))
            return (logs, tuple(map(sub, logs, map(math.log, negations))),
                    tuple(map(math.log1p, map(truediv, weighted, repeat(-z)))))  # w / -z is -(w / z)
        except ValueError:
            pass
    ratios = []
    for p, w, prior in zip(row, weighted, priors):
        if p == 0.0 or prior >= 1.0 - _PRIOR_ONE_TOL:
            ratios.append(-math.inf if p == 0.0 else math.inf)
            continue
        denom = min((min(z, 1.0) - w) / (1.0 - prior), 1.0)  # never negative: w is among z's terms
        ratios.append(math.inf if denom == 0.0 else math.log(p) - math.log(denom))
    logs = tuple([math.log(p) if p > 0.0 else -math.inf for p in row])
    return logs, tuple(ratios), None if z <= 0.0 else _log_complements([w / z for w in weighted])


def _log_complements(masses: Iterable[float]) -> tuple:
    """log(1 - m) per mass, or -inf for a mass of 1 or more, which is absorbing."""
    return tuple([-math.inf if m >= 1.0 else math.log1p(-m) for m in masses])


def _prior_log_odds(prior: float) -> float:
    if prior >= 1.0 - _PRIOR_ONE_TOL:
        return math.inf  # an exhaustive single hypothesis has infinite prior odds
    return math.log(prior) - math.log1p(-prior)


def _column_sums(*terms: Sequence[float]) -> list[float]:
    """Each disease's fsum of its column across ``terms``: order-exact, so
    permuting the observations cannot move a bit.  A column holding both
    infinities, which fsum rejects, sums to -inf: ruling out comes first."""
    try:
        return list(map(math.fsum, zip(*terms)))
    except ValueError:  # inf + -inf
        return [-math.inf if -math.inf in column else math.fsum(column) for column in zip(*terms)]


def _prefix_sums(terms: Sequence[Sequence[float]]) -> list[tuple]:
    """``_column_sums(*terms[:k])`` for k = 1..len(terms): a column's finite terms are integers over one
    denominator, each distinct term converted once, so one int / int per step rounds each running sum as
    fsum does.  Running counts of infinities keep ``_column_sums``' rule: any -inf, else any +inf."""
    columns = []
    for column in zip(*terms):
        distinct = list(dict.fromkeys(column))  # 0.0 and -0.0 share a key, and an integer: 0
        infinite = math.inf in distinct or -math.inf in distinct
        finite = [t if -math.inf < t < math.inf else 0.0 for t in distinct] if infinite else distinct
        ints, denominator = _exact_integers(finite)
        sums = list(map(truediv, accumulate(map(dict(zip(distinct, ints)).__getitem__, column)), repeat(denominator)))
        if infinite:
            lows, highs = accumulate(map((-math.inf).__eq__, column)), accumulate(map(math.inf.__eq__, column))
            sums = [-math.inf if low else math.inf if high else s for s, low, high in zip(sums, lows, highs)]
        columns.append(sums)
    return list(zip(*columns))


def _distribution(kb: KnowledgeBase, beliefs: Iterable[float], pre_norm_sum: float, method: str) -> BeliefDistribution:
    """A calculus's result, normalized by construction, so without ``BeliefDistribution``'s checks."""
    dist = object.__new__(BeliefDistribution)
    vars(dist).update(beliefs=dict(zip(kb.disease_index, beliefs)), pre_norm_sum=pre_norm_sum, method=method)
    return dist


def _simple_bayes_combine(log_mass: Sequence[float]) -> tuple[list[float], float]:
    peak = max(log_mass)
    if peak == -math.inf:
        raise AllHypothesesRuledOut("every disease has zero posterior mass")
    unnorm = list(map(math.exp, map(sub, log_mass, repeat(peak))))
    return list(map(truediv, unnorm, repeat(math.fsum(unnorm)))), 1.0


def _odds_likelihood_combine(log_odds: Sequence[float]) -> tuple[list[float], float]:
    # -inf rules a disease out, +inf rules it in; _sigmoid maps both to their limits.
    pre_norm = list(map(_sigmoid, log_odds))
    pre_norm_sum = math.fsum(pre_norm)
    ruled_in = log_odds.count(math.inf)
    if ruled_in:
        beliefs = [1.0 / ruled_in if lo == math.inf else 0.0 for lo in log_odds]
    elif pre_norm_sum > 0.0:
        beliefs = list(map(truediv, pre_norm, repeat(pre_norm_sum)))
    else:
        raise AllHypothesesRuledOut("every disease has zero posterior odds")
    return beliefs, pre_norm_sum


def _naive_dempster_shafer_combine(log_rest: Sequence[float]) -> tuple[list[float], float]:
    # from_unnormalized of 1 - prod(1 - m) per disease, from the log complements; -expm1(-inf) is 1.
    raw = list(map(neg, map(math.expm1, log_rest)))
    total = math.fsum(raw)
    if total <= 0.0:
        raise AllHypothesesRuledOut("all hypotheses have zero belief")
    return [v / total + 0.0 for v in raw], total  # -0.0 + 0.0 is 0.0


# Each calculus's row, in CALCULI's order: its term of a disease's prior (naive Dempster-Shafer's priors carry
# no mass, log(1 - 0)) and its combine step to (beliefs, pre_norm_sum); ``_finding_terms`` compiles the terms.
_STEPS: dict[str, tuple[Callable, Callable]] = {
    "simple_bayes": (math.log, _simple_bayes_combine),  # a valid prior is positive
    "odds_likelihood": (_prior_log_odds, _odds_likelihood_combine),
    "naive_dempster_shafer": (lambda prior: 0.0, _naive_dempster_shafer_combine),
}


def _priors(kb: KnowledgeBase) -> tuple:
    """The priors, 1 - each prior or None if one is within _PRIOR_ONE_TOL of 1, and each calculus's
    prior terms in ``CALCULI`` order: computed on first use and memoized."""
    memo = kb.compiled_terms
    if "prior" not in memo:
        priors = [d.prior for d in kb.diseases]
        complements = None if max(priors) >= 1.0 - _PRIOR_ONE_TOL else [1.0 - p for p in priors]
        memo["prior"] = priors, complements, [tuple(map(term, priors)) for term, _ in _STEPS.values()]
    return memo["prior"]


def _compiled(kb: KnowledgeBase, calculus: str, observations: Sequence[Observation]) -> list:
    """``calculus``'s prior terms, then each observation's, from the memo of every finding's terms for all
    three calculi.  Every call checks every observation in order, then compiles the misses in order, each
    row object once per call.  Last, naive Dempster-Shafer rejects the first zero-marginal finding."""
    seen: set[str] = set()
    for obs in observations:
        _check_observation(kb, obs, seen)
    memo = kb.compiled_terms
    priors, complements, prior_terms = _priors(kb)
    column = CALCULI.index(calculus)
    found, by_row = [], {}
    for obs in observations:
        if (terms := memo.get(obs)) is None:
            row = kb.vectors[obs.feature][obs.value]
            if (terms := by_row.get(id(row))) is None:
                terms = by_row[id(row)] = _finding_terms(row, priors, complements)
            memo[obs] = terms
        found.append(terms[column])
    if None in found:  # a zero marginal, for which no evoking strength exists
        evoking_strength(kb, observations[found.index(None)])  # raises ZeroMarginal
    return [prior_terms[column], *found]


def _infer(kb: KnowledgeBase, observations: Sequence[Observation], calculus: str) -> BeliefDistribution:
    """``calculus`` on ``observations``: its combine step on the column sums of its prior and finding terms."""
    return _distribution(kb, *_STEPS[calculus][1](_column_sums(*_compiled(kb, calculus, observations))), calculus)


def _prefixes(kb: KnowledgeBase, observations: Sequence[Observation], calculus: str) -> list[tuple]:
    """``calculus``'s (beliefs, pre_norm_sum) row on ``observations[:n]`` for n = 1..len(observations),
    in O(D*n): each observation is checked and compiled once, all before any prefix is combined, and
    ``_prefix_sums`` gives every prefix's column sums."""
    return list(map(_STEPS[calculus][1], _prefix_sums(_compiled(kb, calculus, observations))[1:]))


def simple_bayes(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    """Posterior over diseases assuming evidence independent given disease.

    belief(d) is proportional to prior(d) times the product of
    p(obs | d) over the observations; an empty observation set leaves
    the priors.  The result is a genuine probability distribution, so
    pre_norm_sum is 1 by construction.
    """
    return _infer(kb, observations, "simple_bayes")


def marginal(kb: KnowledgeBase, obs: Observation) -> float:
    """p(obs) = sum over diseases of p(obs | d) * p(d)."""
    return min(_weighted(kb, obs)[1], 1.0)


def negation_conditional(kb: KnowledgeBase, obs: Observation, disease_id: str) -> float:
    """p(obs | not-d), derived from the marginal rather than assessed.

    Computed as (p(obs) - p(obs|d) p(d)) / (1 - p(d)), capped at 1.
    """
    weighted, z = _weighted(kb, obs)
    disease = kb.disease_index.get(disease_id)
    if disease is None:
        raise UnknownDisease(f"unknown disease '{disease_id}'")
    if disease.prior >= 1.0 - _PRIOR_ONE_TOL:
        raise DegeneratePrior(f"disease '{disease_id}' has prior 1; negation is empty")
    return min((min(z, 1.0) - weighted[kb.diseases.index(disease)]) / (1.0 - disease.prior), 1.0)


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
    return _infer(kb, observations, "odds_likelihood")


def evoking_strength(kb: KnowledgeBase, obs: Observation) -> dict[str, float]:
    """Single-observation posterior for each disease, its singleton mass.

    ES(d, obs) = p(d) p(obs|d) / sum_j p(d_j) p(obs|d_j), which is
    Bayes' theorem over the exhaustive disease set for one observation.
    The rest of each disease's mass sits on its whole two-element frame.
    """
    weighted, z = _weighted(kb, obs)
    if z <= 0.0:
        raise ZeroMarginal(f"observation ('{obs.feature}', '{obs.value}') has zero marginal probability")
    return {d.id: w / z for d, w in zip(kb.diseases, weighted)}


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
    leaves the combination exactly unchanged, so no evidence gives 0.0.
    A mass outside [0, 1], NaN among them, raises ValueError.
    """
    masses = list(masses)
    if not all(0.0 <= m <= 1.0 for m in masses):
        raise ValueError("masses must lie in [0, 1]")
    return -math.expm1(math.fsum(_log_complements(masses))) + 0.0  # -0.0 + 0.0 is 0.0


def naive_dempster_shafer(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    """Belief per disease from combining evoking strengths across observations.

    Bel(d) = 1 - prod over observations of (1 - ES(d, obs)), renormalized
    to sum to one.  Rejects an empty observation set: the empty
    combination assigns zero belief everywhere, which has no defensible
    normalization.
    """
    if not observations:
        raise EmptyEvidence("naive Dempster-Shafer requires at least one observation")
    return _infer(kb, observations, "naive_dempster_shafer")
