"""Shared test helpers: random model generators and exact-arithmetic oracles.

The oracles recompute each inference method with fractions.Fraction so
they share no arithmetic path (and no rounding) with the engine under
test; float inputs convert to Fraction exactly, so the oracle value is
the true real-arithmetic answer for the float-valued model.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from uncertain_dx.decision import max_belief_diagnosis
from uncertain_dx.engine import _PRIOR_ONE_TOL, naive_dempster_shafer, odds_likelihood, simple_bayes
from uncertain_dx.errors import (
    AllHypothesesRuledOut,
    DegeneratePrior,
    EmptyEvidence,
    FileFormatError,
    InferenceError,
    UnknownDisease,
    UnmappedDisease,
    ZeroMarginal,
)
from uncertain_dx.evaluation import CaseWeight
from uncertain_dx.kb import (
    CALCULI,
    PROB_SUM_TOL,
    BeliefDistribution,
    ConditionalTable,
    Disease,
    Feature,
    KnowledgeBase,
    Observation,
    _array,
    _check_observation,
    _field,
    _fsum,
    _id,
    _number,
    _object,
    _parse_json,
    _require,
    _string,
)
from uncertain_dx.synth import ProbePoint, ReplicatedEvidenceSpec


def with_fault(doc, path: tuple, fault: str):
    """A copy of JSON ``doc`` whose key at ``path`` is deleted (``fault`` "missing")
    or whose value there is ``true`` ("mistyped"); the empty path is the document."""
    if not path:
        return True
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    container = doc
    for step in parents:
        container = container[step]
    if fault == "missing":
        del container[key]
    else:
        container[key] = True
    return doc


def fault_ids(faults) -> list[str]:
    """Test ids for (path, fault, message) triples, such as ``diseases/0/id-missing``."""
    return [("/".join(map(str, path)) or "document") + f"-{fault}" for path, fault, _ in faults]


def _normalized(rng: random.Random, k: int) -> list[float]:
    weights = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
    total = sum(weights)
    return [w / total for w in weights]


def random_kb(
    rng: random.Random,
    n_diseases: int,
    n_features: int,
    max_values: int = 4,
) -> KnowledgeBase:
    """Dirichlet-random knowledge base with strictly positive entries."""
    diseases = tuple(
        Disease(id=f"d{i}", name=f"disease {i}", prior=p, equivalence_class=f"c{i}")
        for i, p in enumerate(_normalized(rng, n_diseases))
    )
    features = []
    entries: dict[tuple[str, str, str], float] = {}
    for k in range(n_features):
        n_values = rng.randint(2, max_values)
        values = tuple(f"v{j}" for j in range(n_values))
        features.append(Feature(id=f"f{k}", name=f"feature {k}", values=values))
        for d in diseases:
            for value, p in zip(values, _normalized(rng, n_values)):
                entries[(f"f{k}", value, d.id)] = p
    return KnowledgeBase(
        diseases=diseases, features=features and tuple(features), conditionals=ConditionalTable(entries)
    )


def random_observations(rng: random.Random, kb: KnowledgeBase, count: int) -> list[Observation]:
    """At most one observation per feature, features chosen without replacement."""
    chosen = rng.sample(list(kb.features), min(count, len(kb.features)))
    return [Observation(feature=f.id, value=rng.choice(f.values)) for f in chosen]


# ---------------------------------------------------------------------------
# Exact-arithmetic oracles


def exact_simple_bayes(kb: KnowledgeBase, observations: Sequence[Observation]) -> dict[str, float]:
    raw = {}
    for d in kb.diseases:
        mass = Fraction(d.prior)
        for o in observations:
            mass *= Fraction(kb.conditionals.prob(o.feature, o.value, d.id))
        raw[d.id] = mass
    total = sum(raw.values())
    if total == 0:
        raise AllHypothesesRuledOut("every disease has zero posterior mass")
    return {i: float(m / total) for i, m in raw.items()}


def exact_odds_likelihood(
    kb: KnowledgeBase, observations: Sequence[Observation]
) -> tuple[dict[str, float], float]:
    """(renormalized beliefs, pre-normalization sum) with the documented
    limit conventions: a zero likelihood rules a disease out (belief 0),
    a zero negation conditional or a prior within _PRIOR_ONE_TOL of 1
    makes its odds infinite (belief 1), and the diseases with infinite
    odds share the renormalized mass equally."""
    marginals = {}
    for o in observations:
        marginals[o] = sum(
            Fraction(d.prior) * Fraction(kb.conditionals.prob(o.feature, o.value, d.id))
            for d in kb.diseases
        )
    pre = {}
    infinite = []
    for d in kb.diseases:
        prior = Fraction(d.prior)
        likelihoods = [Fraction(kb.conditionals.prob(o.feature, o.value, d.id)) for o in observations]
        if 0 in likelihoods:
            pre[d.id] = Fraction(0)
            continue
        if d.prior >= 1.0 - _PRIOR_ONE_TOL:
            odds = None
        else:
            odds = prior / (1 - prior)
            for o, numer in zip(observations, likelihoods):
                denom = (marginals[o] - numer * prior) / (1 - prior)
                if denom == 0:
                    odds = None
                    break
                odds *= numer / denom
        if odds is None:
            pre[d.id] = Fraction(1)
            infinite.append(d.id)
        else:
            pre[d.id] = odds / (1 + odds)
    total = sum(pre.values())
    if infinite:
        share = Fraction(1, len(infinite))
        return {i: float(share if i in infinite else 0) for i in pre}, float(total)
    if total == 0:
        raise AllHypothesesRuledOut("every disease has zero posterior odds")
    return {i: float(p / total) for i, p in pre.items()}, float(total)


def exact_naive_ds(
    kb: KnowledgeBase, observations: Sequence[Observation]
) -> tuple[dict[str, float], float]:
    """(renormalized beliefs, pre-normalization sum) via the product form."""
    marginals = {}
    for o in observations:
        marginals[o] = sum(
            Fraction(d.prior) * Fraction(kb.conditionals.prob(o.feature, o.value, d.id))
            for d in kb.diseases
        )
        if marginals[o] == 0:
            raise ZeroMarginal(f"observation ('{o.feature}', '{o.value}') has zero marginal probability")
    bel = {}
    for d in kb.diseases:
        prod = Fraction(1)
        for o in observations:
            es = Fraction(d.prior) * Fraction(kb.conditionals.prob(o.feature, o.value, d.id)) / marginals[o]
            prod *= 1 - es
        bel[d.id] = 1 - prod
    total = sum(bel.values())
    return {i: float(b / total) for i, b in bel.items()}, float(total)


# ---------------------------------------------------------------------------
# Hypothesis strategies

_positive_weight = st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False)


@st.composite
def knowledge_bases(draw, min_diseases=2, max_diseases=5, min_features=1, max_features=4):
    """Small random knowledge bases with Dirichlet-style rows."""
    n_d = draw(st.integers(min_diseases, max_diseases))
    n_f = draw(st.integers(min_features, max_features))
    prior_w = draw(st.lists(_positive_weight, min_size=n_d, max_size=n_d))
    total = sum(prior_w)
    diseases = tuple(
        Disease(id=f"d{i}", name=f"disease {i}", prior=w / total, equivalence_class=f"c{i}")
        for i, w in enumerate(prior_w)
    )
    features = []
    entries = {}
    for k in range(n_f):
        n_v = draw(st.integers(2, 3))
        values = tuple(f"v{j}" for j in range(n_v))
        features.append(Feature(id=f"f{k}", name=f"feature {k}", values=values))
        for d in diseases:
            row_w = draw(st.lists(_positive_weight, min_size=n_v, max_size=n_v))
            row_total = sum(row_w)
            for value, w in zip(values, row_w):
                entries[(f"f{k}", value, d.id)] = w / row_total
    return KnowledgeBase(
        diseases=diseases, features=tuple(features), conditionals=ConditionalTable(entries)
    )


@st.composite
def kb_with_observations(draw, max_observations=4, **kb_kwargs):
    kb = draw(knowledge_bases(**kb_kwargs))
    count = draw(st.integers(1, max_observations))
    picked = draw(
        st.lists(
            st.integers(0, len(kb.features) - 1),
            min_size=min(count, len(kb.features)),
            max_size=min(count, len(kb.features)),
            unique=True,
        )
    )
    observations = []
    for idx in picked:
        feature = kb.features[idx]
        value = draw(st.integers(0, len(feature.values) - 1))
        observations.append(Observation(feature=feature.id, value=feature.values[value]))
    return kb, observations


def never_called(*args, **kwargs):
    """A stand-in for a step that must not run, such as a draw or a build past a cap."""
    raise AssertionError("called")


def reference_permutation_test(
    diffs: Sequence[float], weights: Sequence[CaseWeight], iterations: int, seed: int
) -> float:
    """The sign-flip test as one ``math.fsum`` per iteration, the reference
    for ``evaluation.permutation_test``'s exact-integer hit rule.  It draws
    each iteration's bits itself, from the same RNG stream per (seed,
    iteration), so it shares no code with the flip layout it checks."""
    if not diffs:
        raise ValueError("empty sample")
    if len(diffs) != len(weights):
        raise ValueError(f"{len(diffs)} diffs but {len(weights)} weights")
    if iterations < 1000:
        raise ValueError(f"iterations must be at least 1000, got {iterations}")

    pairs = sorted(zip(diffs, weights), key=lambda dw: (dw[1].case_id, dw[0], dw[1].weight))
    weighted = [w.weight * d for d, w in pairs]
    observed = math.fsum(weighted)

    hits = 0
    for i in range(iterations):
        bits = random.Random((seed << 32) + i).getrandbits(len(weighted))
        stat = math.fsum(v if bits >> k & 1 else -v for k, v in enumerate(weighted))
        if stat >= observed:
            hits += 1
    return (1 + hits) / (1 + iterations)


def reference_flip_threshold(weighted: Sequence[float], observed: float) -> tuple[list[int], int]:
    """``evaluation._flip_threshold`` in ``Fraction`` arithmetic: the exact
    terms over the largest denominator D of the weighted values, and the
    least U (the sum of the terms a draw keeps) whose flipped sum
    (2U - T) / D rounds to at least ``observed`` under round-half-even."""
    denominator = max(Fraction(w).denominator for w in weighted)
    terms = [int(Fraction(w) * denominator) for w in weighted]
    below = math.nextafter(observed, -math.inf)
    # Below the most negative float, rounding behaves as if the next value were -2**1024.
    low = Fraction(below) if math.isfinite(below) else Fraction(-(2**1024))
    midpoint = (low + Fraction(observed)) / 2 * denominator
    tie_rounds_up = int(observed / math.ulp(observed)) % 2 == 0
    s_min = math.ceil(midpoint) if tie_rounds_up else math.floor(midpoint) + 1
    return terms, math.ceil(Fraction(s_min + sum(terms), 2))


def reference_fsum(values: Sequence[float]) -> float:
    """The exact ``Fraction`` sum of ``values`` rounded once to a float, or
    an infinity of its sign where that rounding leaves the float range."""
    total = sum(map(Fraction, values))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def reference_class_disutility(p: BeliefDistribution, utilities, diagnosed_class: str) -> float:
    """Expected micromorts of diagnosing into ``diagnosed_class`` under ``p``:
    one ``fsum`` over p's own beliefs, in p's order, reading the class of
    each disease p names.  The reference for the MEU pricer's class
    columns, which sum over the KB's diseases in id order."""
    return math.fsum(
        belief * utilities.class_disutility[(utilities.expansion[disease], diagnosed_class)]
        for disease, belief in p.beliefs.items()
    )


def reference_expected_disutility(p_gold: BeliefDistribution, utilities, disease: str, kb: KnowledgeBase) -> float:
    """The reference for ``evaluation.expected_disutility``, errors included."""
    if disease not in kb.disease_index:
        raise UnknownDisease(f"unknown diagnosis '{disease}'")
    _reference_check_pricing(p_gold, utilities, kb)
    return reference_class_disutility(p_gold, utilities, utilities.expansion[disease])


def _reference_check_coverage(utilities, kb: KnowledgeBase) -> None:
    unmapped = sorted(d.id for d in kb.diseases if d.id not in utilities.expansion)
    if unmapped:
        raise UnmappedDisease(f"disease '{unmapped[0]}' has no equivalence class")


def _reference_check_pricing(p: BeliefDistribution, utilities, kb: KnowledgeBase) -> None:
    """The MEU rule's input errors in its order: a model that does not cover
    the KB first, then a belief on a disease outside the KB, each naming the
    smallest such id."""
    _reference_check_coverage(utilities, kb)
    outside = sorted(d for d in p.beliefs if d not in kb.disease_index)
    if outside:
        raise UnknownDisease(f"unknown disease '{outside[0]}'")


def reference_meu_diagnosis(p: BeliefDistribution, utilities, kb: KnowledgeBase) -> str:
    """The MEU rule as a scan over the KB's diseases in id order, pricing each
    class when the scan first meets it and keeping the first strictly smaller
    price: the reference for ``decision.meu_diagnosis``'s class columns, bit
    for bit and error for error."""
    _reference_check_pricing(p, utilities, kb)
    best_id = None
    by_class: dict[str, float] = {}
    for candidate in sorted(d.id for d in kb.diseases):
        cls = utilities.expansion[candidate]
        if cls not in by_class:
            by_class[cls] = reference_class_disutility(p, utilities, cls)
        if best_id is None or by_class[cls] < best:
            best, best_id = by_class[cls], candidate
    return best_id


def reference_rating_pass(kb: KnowledgeBase, utilities, gold_source: str, inferred, rules):
    """The rating pass as one ``reference_meu_diagnosis`` per MEU decision and
    one ``reference_expected_disutility`` per rating, the reference for
    ``evaluation._rating_pass``'s shared pricer, bit for bit and error for
    error: (gold ratings, each row's ratings, each row's agreement count).
    A model that does not cover the KB raises before any case is rated."""
    _reference_check_coverage(utilities, kb)
    gold_ratings = []
    ratings = {row: [] for row in rules}
    agreement = dict.fromkeys(rules, 0)
    for case, dists in inferred:
        p_gold = case.gold(gold_source)
        dx_gold = reference_meu_diagnosis(p_gold, utilities, kb)
        gold_ratings.append(reference_expected_disutility(p_gold, utilities, dx_gold, kb))
        for row, (source, uses_meu) in rules.items():
            if uses_meu:
                dx = reference_meu_diagnosis(dists[source], utilities, kb)
            else:
                dx = max_belief_diagnosis(dists[source])
            ratings[row].append(reference_expected_disutility(p_gold, utilities, dx, kb))
            agreement[row] += dx == dx_gold
    return gold_ratings, ratings, agreement


# ---------------------------------------------------------------------------
# The calculi and views as they read the table before their terms were
# compiled: one pass over the rows per call, in the same float operations.
# The reference for the engine's memoized terms, bit for bit.
#
# The numerator check below is the old engine's.  The engine has none: a
# knowledge base is valid by construction, and on a valid table the
# numerator is never negative.  So the reference keeps its own copies of
# the names the check uses.

_NEGATIVE_NUMERATOR_TOL = -1e-12


class InconsistentProbabilities(InferenceError):
    """Probability arithmetic produced a value impossible under a coherent model."""


def _reference_rows(kb: KnowledgeBase, observations: Sequence[Observation]) -> list[list[float]]:
    seen: set[str] = set()
    for obs in observations:
        _check_observation(kb, obs, seen)
    entries = kb.conditionals.entries
    return [
        [entries[(obs.feature, obs.value, d.id)] for d in kb.diseases] for obs in observations
    ]


def _reference_marginal(kb: KnowledgeBase, row: Sequence[float]) -> float:
    return min(math.fsum(d.prior * p for d, p in zip(kb.diseases, row)), 1.0)


def _reference_negation(p_obs: float, p: float, prior: float, obs: Observation, disease_id: str) -> float:
    numerator = p_obs - p * prior
    if numerator < _NEGATIVE_NUMERATOR_TOL:
        raise InconsistentProbabilities(
            f"negation conditional numerator {numerator!r} for ('{obs.feature}', '{obs.value}', '{disease_id}')"
        )
    return min(max(numerator, 0.0) / (1.0 - prior), 1.0)


def _reference_evoking(kb: KnowledgeBase, obs: Observation, row: Sequence[float]) -> list[float]:
    weighted = [d.prior * p for d, p in zip(kb.diseases, row)]
    z = math.fsum(weighted)
    if z <= 0.0:
        raise ZeroMarginal(
            f"observation ('{obs.feature}', '{obs.value}') has zero marginal probability"
        )
    return [w / z for w in weighted]


def reference_marginal(kb: KnowledgeBase, obs: Observation) -> float:
    return _reference_marginal(kb, _reference_rows(kb, [obs])[0])


def reference_negation_conditional(kb: KnowledgeBase, obs: Observation, disease_id: str) -> float:
    (row,) = _reference_rows(kb, [obs])
    disease = kb.disease_index.get(disease_id)
    if disease is None:
        raise UnknownDisease(f"unknown disease '{disease_id}'")
    if disease.prior >= 1.0 - _PRIOR_ONE_TOL:
        raise DegeneratePrior(f"disease '{disease_id}' has prior 1; negation is empty")
    p = row[kb.diseases.index(disease)]
    return _reference_negation(_reference_marginal(kb, row), p, disease.prior, obs, disease_id)


def reference_evoking_strength(kb: KnowledgeBase, obs: Observation) -> dict[str, float]:
    (row,) = _reference_rows(kb, [obs])
    return {d.id: m for d, m in zip(kb.diseases, _reference_evoking(kb, obs, row))}


def _reference_log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _reference_sigmoid(log_odds: float) -> float:
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


def reference_simple_bayes(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    rows = _reference_rows(kb, observations)
    log_mass: dict[str, float] = {}
    for i, d in enumerate(kb.diseases):
        terms = [_reference_log(d.prior)]
        terms.extend(_reference_log(row[i]) for row in rows)
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


def reference_odds_likelihood(kb: KnowledgeBase, observations: Sequence[Observation]) -> BeliefDistribution:
    rows = _reference_rows(kb, observations)
    marginals = [_reference_marginal(kb, row) for row in rows]
    pre_norm: dict[str, float] = {}
    infinite: list[str] = []
    for i, d in enumerate(kb.diseases):
        if any(row[i] == 0.0 for row in rows):
            pre_norm[d.id] = 0.0
            continue
        if d.prior >= 1.0 - _PRIOR_ONE_TOL:
            pre_norm[d.id] = 1.0
            infinite.append(d.id)
            continue
        terms = [math.log(d.prior) - math.log1p(-d.prior)]
        ruled_in = False
        for obs, row, p_obs in zip(observations, rows, marginals):
            denom = _reference_negation(p_obs, row[i], d.prior, obs, d.id)
            if denom == 0.0:
                ruled_in = True
                break
            terms.append(math.log(row[i]) - math.log(denom))
        if ruled_in:
            pre_norm[d.id] = 1.0
            infinite.append(d.id)
        else:
            pre_norm[d.id] = _reference_sigmoid(math.fsum(terms))

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


def _reference_barnett(masses) -> float:
    terms = []
    for m in masses:
        if m >= 1.0:
            return 1.0
        terms.append(math.log1p(-m))
    return -math.expm1(math.fsum(terms))


def reference_naive_dempster_shafer(
    kb: KnowledgeBase, observations: Sequence[Observation]
) -> BeliefDistribution:
    if not observations:
        raise EmptyEvidence("naive Dempster-Shafer requires at least one observation")
    rows = _reference_rows(kb, observations)
    strengths = [_reference_evoking(kb, obs, row) for obs, row in zip(observations, rows)]
    raw = {d.id: _reference_barnett(es[i] for es in strengths) for i, d in enumerate(kb.diseases)}
    return BeliefDistribution.from_unnormalized(raw, method="naive_dempster_shafer")


# ---------------------------------------------------------------------------
# Reference table check: ``kb._table_violations`` as it was before it read the
# table one feature at a time.  It walks every entry, then every row, and is
# the bit-for-bit reference for the violation list and its order.  Row sums go
# through ``kb._fsum``, so the two differ only if the rows are read differently.


def reference_table_violations(
    features: Sequence[Feature],
    disease_ids: Sequence[str],
    entries: dict[tuple[str, str, str], float],
) -> list[str]:
    violations: list[str] = []
    valid_values = {f.id: set(f.values) for f in features}
    known_diseases = set(disease_ids)
    for (feat, value, dis), p in entries.items():
        if feat not in valid_values:
            violations.append(f"conditional ({feat}, {value}, {dis}): unknown feature")
            continue
        if value not in valid_values[feat]:
            violations.append(f"conditional ({feat}, {value}, {dis}): unknown value")
        if dis not in known_diseases:
            violations.append(f"conditional ({feat}, {value}, {dis}): unknown disease")
        if not 0.0 <= p <= 1.0:
            violations.append(f"conditional ({feat}, {value}, {dis}): probability {p} outside [0, 1]")

    for f in features:
        if len(set(f.values)) != len(f.values):
            continue
        for dis in disease_ids:
            row = [entries.get((f.id, v, dis)) for v in f.values]
            if None in row:
                violations.append(f"conditional row ({f.id}, {dis}): missing value entries")
                continue
            s = _fsum(row)
            if abs(s - 1.0) > PROB_SUM_TOL:
                violations.append(f"conditional row ({f.id}, {dis}): sums to {s!r}, expected 1")
    return violations


# Reference loader: ``kb.load_kb`` as it was before a loaded table was read into
# per-(feature, value) vectors.  Its row loop builds a dict ``ConditionalTable``
# in file order, and it is the reference for every loaded table and for every
# error's class and message.


def reference_load_kb(source) -> KnowledgeBase:
    doc = _object(_parse_json(source, "knowledge base"), "knowledge base")

    diseases = []
    for i, entry in enumerate(_array(_require(doc, "diseases", "knowledge base"), "diseases")):
        where = f"diseases[{i}]"
        entry = _object(entry, where)
        diseases.append(
            Disease(
                id=_field(entry, "id", where, _id),
                name=_field(entry, "name", where, _string),
                prior=_field(entry, "prior", where, _number),
                equivalence_class=_field(entry, "class", where, _string),
            )
        )

    features = []
    for i, entry in enumerate(_array(_require(doc, "features", "knowledge base"), "features")):
        where = f"features[{i}]"
        entry = _object(entry, where)
        values = _field(entry, "values", where, _array)
        features.append(
            Feature(
                id=_field(entry, "id", where, _string),
                name=_field(entry, "name", where, _string),
                values=tuple(_string(v, f"{where}.values[{j}]") for j, v in enumerate(values)),
            )
        )

    entries: dict[tuple[str, str, str], float] = {}
    for i, entry in enumerate(_array(_require(doc, "conditionals", "knowledge base"), "conditionals")):
        # Only a row that is not well formed builds its location, in the field reads.
        if not (type(entry) is dict and type(feat := entry.get("feature")) is str
                and type(dis := entry.get("disease")) is str and type(probs := entry.get("probs")) is dict):
            where = f"conditionals[{i}]"
            feat = _field(_object(entry, where), "feature", where, _string)
            dis = _field(entry, "disease", where, _string)
            probs = _field(entry, "probs", where, _object)
        for value, p in probs.items():
            if type(p) is not float or not math.isfinite(p):
                p = _number(p, f"conditionals[{i}].probs['{value}']")
            key = (feat, value, dis)
            if key in entries:
                raise FileFormatError(f"conditionals[{i}]: repeats entry {key!r}")
            entries[key] = p

    return KnowledgeBase(
        diseases=tuple(diseases),
        features=tuple(features),
        conditionals=ConditionalTable(entries),
    )


def reference_replicate_evidence_kb(spec: ReplicatedEvidenceSpec) -> tuple[KnowledgeBase, list[Observation]]:
    """The replicated-evidence knowledge base from a plain dict table, one entry
    per (token, value, hypothesis): (e_k, "present", h_i) -> p_i and
    (e_k, "absent", h_i) -> 1 - p_i, so no two findings share a row object."""
    diseases = tuple(Disease(f"h{i}", f"H{i}", p, f"h{i}") for i, p in enumerate(spec.priors, 1))
    features = tuple(Feature(f"e{k}", f"evidence {k}", ("present", "absent")) for k in range(1, spec.n + 1))
    entries = {}
    for f in features:
        for d, p in zip(diseases, spec.likelihoods):
            entries[(f.id, "present", d.id)] = p
            entries[(f.id, "absent", d.id)] = 1.0 - p
    kb = KnowledgeBase(diseases=diseases, features=features, conditionals=ConditionalTable(entries))
    return kb, [Observation(f.id, "present") for f in features]


def reference_convergence_probe(spec: ReplicatedEvidenceSpec) -> list[ProbePoint]:
    """The probe step by step: every calculus in ``CALCULI`` called on each
    prefix of the replicated tokens, one public call per (step, calculus), on
    ``reference_replicate_evidence_kb``'s dict-built knowledge base."""
    kb, observations = reference_replicate_evidence_kb(spec)
    calculi = {"simple_bayes": simple_bayes, "odds_likelihood": odds_likelihood,
               "naive_dempster_shafer": naive_dempster_shafer}
    return [
        ProbePoint(n=n, **{name: calculi[name](kb, observations[:n]) for name in CALCULI})
        for n in range(1, spec.n + 1)
    ]


def reference_probe_tsv(points: Sequence[ProbePoint]) -> str:
    """A probe trajectory as TSV with columns n, method, disease, belief, one
    line per belief of each step's distributions, read off the points."""
    lines = ["n\tmethod\tdisease\tbelief"]
    for point in points:
        for method in CALCULI:
            dist: BeliefDistribution = getattr(point, method)
            for disease, belief in dist.beliefs.items():
                lines.append(f"{point.n}\t{method}\t{disease}\t{belief:.6f}")
    return "\n".join(lines) + "\n"
