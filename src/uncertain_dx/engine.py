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
once, at normalization.  Each calculus compiles, then combines.  A
finding's terms, one per disease, depend only on the knowledge base, so
they are compiled once per (knowledge base, calculus, finding) from its
p(obs | d) vector in ``KnowledgeBase.vectors`` and memoized on the
knowledge base, as are the prior terms.  Combining maps each disease
column's fsum to a distribution.  A call is a few C-level passes, O(D*O)
for D diseases and O observations; only findings not yet compiled are
checked in Python.  ``_prefixes`` gives the result on every prefix of an
observation list, also in O(D*O): its exact integer running sums round as
fsum does.  Results and errors are the same as from checking every
observation and recomputing every term.  Results, normalized by
construction, skip the checks a distribution read from a file gets.  All
functions are safe to call concurrently on shared knowledge bases.

A ``KnowledgeBase`` is valid by construction, so the only errors are
UnknownObservation, ConflictingObservations, AllHypothesesRuledOut,
ZeroMarginal, EmptyEvidence, UnknownDisease and DegeneratePrior, and
``barnett_combine``'s ValueError for a mass outside [0, 1].
"""

from __future__ import annotations

import math
from itertools import accumulate, compress, repeat
from operator import attrgetter, is_, neg, sub, truediv
from typing import Callable, Iterable, Sequence

from .errors import AllHypothesesRuledOut, DegeneratePrior, EmptyEvidence, UnknownDisease, ZeroMarginal
from .kb import CALCULI, BeliefDistribution, KnowledgeBase, Observation, _check_observation, _exact_integers

# A prior this close to 1 leaves no measurable mass on the negation.
_PRIOR_ONE_TOL = 1e-12

_FEATURE = attrgetter("feature")


def _check_all(kb: KnowledgeBase, observations: Sequence[Observation]) -> None:
    """Check every observation in order; the first that fails raises."""
    seen: set[str] = set()
    for obs in observations:
        _check_observation(kb, obs, seen)


def _row(kb: KnowledgeBase, obs: Observation) -> list[float]:
    """The p(obs | d) vector, one entry per disease, that terms compile from; checks ``obs`` first."""
    _check_observation(kb, obs, set())
    return kb.vectors[obs.feature][obs.value]


def _compiled(kb: KnowledgeBase, calculus: str, observations: Sequence[Observation]) -> list:
    """Check the observations, then return each one's ``calculus`` terms, one
    per disease, computed on first use from its row and memoized on the
    knowledge base.  A memoized finding was checked when compiled; a repeated
    feature checks every observation in order, and otherwise ``_row`` checks
    the misses in order, all before any is compiled.  A compile error memoizes
    nothing."""
    memo = kb.compiled_terms[calculus]
    try:
        found = list(map(memo.get, observations))
        repeated = len(set(map(_FEATURE, observations))) < len(found)
    except (TypeError, AttributeError):  # not an observation, or an unhashable field
        _check_all(kb, observations)
        raise
    if repeated:
        _check_all(kb, observations)
    misses = list(compress(range(len(found)), map(is_, found, repeat(None))))
    rows = [_row(kb, observations[i]) for i in misses]
    for i, row in zip(misses, rows):
        found[i] = memo[observations[i]] = _COMPILE[calculus](kb, observations[i], row)
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
        raise ZeroMarginal(f"observation ('{obs.feature}', '{obs.value}') has zero marginal probability")
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


def _prior_log_odds(prior: float) -> float:
    if prior >= 1.0 - _PRIOR_ONE_TOL:
        return math.inf  # an exhaustive single hypothesis has infinite prior odds
    return math.log(prior) - math.log1p(-prior)


# Each calculus's term compiler, found by name, so CALCULI alone sets the keys and their order.
_COMPILE: dict[str, Callable] = {name: globals()[f"_{name}_terms"] for name in CALCULI}
# Each calculus's term of a disease's prior; naive Dempster-Shafer's priors carry no mass, log(1 - 0).
_PRIOR_TERM: dict[str, Callable] = {"simple_bayes": _log, "odds_likelihood": _prior_log_odds,
                                    "naive_dempster_shafer": lambda prior: 0.0}


def _priors(kb: KnowledgeBase, calculus: str) -> tuple:
    """``calculus``'s term of each disease's prior, computed on first use and memoized."""
    memo = kb.compiled_terms["prior"]
    if calculus not in memo:
        memo[calculus] = tuple(map(_PRIOR_TERM[calculus], [d.prior for d in kb.diseases]))
    return memo[calculus]


def _column_sums(*terms: Sequence[float]) -> list[float]:
    """Each disease's fsum of its column across ``terms``: order-exact, so
    permuting the observations cannot move a bit.  A column holding both
    infinities, which fsum rejects, sums to -inf: ruling out comes first."""
    try:
        return list(map(math.fsum, zip(*terms)))
    except ValueError:  # inf + -inf
        return [-math.inf if -math.inf in column else math.fsum(column) for column in zip(*terms)]


def _prefix_sums(terms: Sequence[Sequence[float]]) -> list[tuple]:
    """``_column_sums(*terms[:k])`` for k = 1..len(terms): a column's finite terms are integers
    over one denominator, so one int / int per step rounds each running sum as fsum does.
    Running counts of infinities keep ``_column_sums``' rule: any -inf, else any +inf."""
    columns = []
    for column in zip(*terms):
        ints, denominator = _exact_integers([t if -math.inf < t < math.inf else 0.0 for t in column])
        sums = list(map(truediv, accumulate(ints), repeat(denominator)))
        if math.inf in column or -math.inf in column:
            lows, highs = accumulate(map((-math.inf).__eq__, column)), accumulate(map(math.inf.__eq__, column))
            sums = [-math.inf if low else math.inf if high else s for s, low, high in zip(sums, lows, highs)]
        columns.append(sums)
    return list(zip(*columns))


def _distribution(kb: KnowledgeBase, beliefs: Iterable[float], pre_norm_sum: float, method: str) -> BeliefDistribution:
    """A calculus's result, normalized by construction, so without ``BeliefDistribution``'s checks."""
    dist = object.__new__(BeliefDistribution)
    vars(dist).update(beliefs=dict(zip(kb.disease_index, beliefs)), pre_norm_sum=pre_norm_sum, method=method)
    return dist


def _simple_bayes_combine(kb: KnowledgeBase, log_mass: Sequence[float]) -> BeliefDistribution:
    peak = max(log_mass)
    if peak == -math.inf:
        raise AllHypothesesRuledOut("every disease has zero posterior mass")
    unnorm = list(map(math.exp, map(sub, log_mass, repeat(peak))))
    return _distribution(kb, map(truediv, unnorm, repeat(math.fsum(unnorm))), 1.0, "simple_bayes")


def simple_bayes(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    """Posterior over diseases assuming evidence independent given disease.

    belief(d) is proportional to prior(d) times the product of
    p(obs | d) over the observations; an empty observation set leaves
    the priors.  The result is a genuine probability distribution, so
    pre_norm_sum is 1 by construction.
    """
    terms = _compiled(kb, "simple_bayes", observations)
    return _simple_bayes_combine(kb, _column_sums(_priors(kb, "simple_bayes"), *terms))


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


def _odds_likelihood_combine(kb: KnowledgeBase, log_odds: Sequence[float]) -> BeliefDistribution:
    # -inf rules a disease out, +inf rules it in; _sigmoid maps both to their limits.
    pre_norm = list(map(_sigmoid, log_odds))
    pre_norm_sum = math.fsum(pre_norm)
    ruled_in = log_odds.count(math.inf)
    if ruled_in:
        beliefs = [1.0 / ruled_in if lo == math.inf else 0.0 for lo in log_odds]
    elif pre_norm_sum > 0.0:
        beliefs = map(truediv, pre_norm, repeat(pre_norm_sum))
    else:
        raise AllHypothesesRuledOut("every disease has zero posterior odds")
    return _distribution(kb, beliefs, pre_norm_sum, "odds_likelihood")


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
    terms = _compiled(kb, "odds_likelihood", observations)
    return _odds_likelihood_combine(kb, _column_sums(_priors(kb, "odds_likelihood"), *terms))


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
    leaves the combination exactly unchanged, so no evidence gives 0.0.
    A mass outside [0, 1], NaN among them, raises ValueError.
    """
    masses = list(masses)
    if not all(0.0 <= m <= 1.0 for m in masses):
        raise ValueError("masses must lie in [0, 1]")
    return -math.expm1(math.fsum(_log_complements(masses))) + 0.0  # -0.0 + 0.0 is 0.0


def _naive_dempster_shafer_combine(kb: KnowledgeBase, log_rest: Sequence[float]) -> BeliefDistribution:
    # from_unnormalized of 1 - prod(1 - m) per disease, from the log complements; -expm1(-inf) is 1.
    raw = list(map(neg, map(math.expm1, log_rest)))
    total = math.fsum(raw)
    if total <= 0.0:
        raise AllHypothesesRuledOut("all hypotheses have zero belief")
    return _distribution(kb, [v / total + 0.0 for v in raw], total, "naive_dempster_shafer")  # -0.0 + 0.0 is 0.0


def naive_dempster_shafer(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    """Belief per disease from combining evoking strengths across observations.

    Bel(d) = 1 - prod over observations of (1 - ES(d, obs)), renormalized
    to sum to one.  Rejects an empty observation set: the empty
    combination assigns zero belief everywhere, which has no defensible
    normalization.
    """
    if not observations:
        raise EmptyEvidence("naive Dempster-Shafer requires at least one observation")
    terms = _compiled(kb, "naive_dempster_shafer", observations)
    return _naive_dempster_shafer_combine(kb, _column_sums(_priors(kb, "naive_dempster_shafer"), *terms))


def _prefixes(kb: KnowledgeBase, observations: Sequence[Observation], calculus: str) -> list[BeliefDistribution]:
    """``calculus`` on ``observations[:n]`` for n = 1..len(observations), in O(D*n): each
    observation is checked and compiled once, all before any prefix is combined, and
    ``_prefix_sums`` gives every prefix's column sums."""
    compiled = _compiled(kb, calculus, observations)
    combine = globals()[f"_{calculus}_combine"]
    return [combine(kb, sums) for sums in _prefix_sums([_priors(kb, calculus), *compiled])[1:]]
