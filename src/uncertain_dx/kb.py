"""Probabilistic knowledge base: domain types, file ingestion, validation.

The knowledge base holds mutually exclusive and exhaustive disease
hypotheses with prior probabilities, multi-valued features whose values
are mutually exclusive and exhaustive, and a dense conditional table
p(feature=value | disease).  A ``KnowledgeBase`` validates itself on
construction, loaded or built in code: ``validate_kb`` is its rule, and a
violation raises ``ValidationError``.  Case records pair observation sets
with optional gold standards, one per ``GOLD_SOURCES`` name, and ratings.

Everything in this module is immutable after load and safe to share
across threads.  A ``KnowledgeBase`` reads its table once, on construction,
into the ``vectors`` that validation and the engine read; a loaded table's
``entries`` are a read-only ``Mapping`` over its own vectors.  Changing a
code-built dict afterwards is unsupported; build a new knowledge base with
``dataclasses.replace``.  ``KnowledgeBase.compiled_terms``, the engine's
memos, fill in any order, so sharing stays safe.  An ``Observation`` is a
named tuple, equal to its ``(feature, value)`` tuple, and keys those memos.

File formats (UTF-8 JSON):

* Knowledge base::

    {"diseases":     [{"id": "d1", "name": "...", "prior": 0.5, "class": "c1"}, ...],
     "features":     [{"id": "f1", "name": "...", "values": ["v1", "v2"]}, ...],
     "conditionals": [{"feature": "f1", "disease": "d1",   # each (feature, value, disease)
                       "probs": {"v1": 0.8, "v2": 0.2}}, ...]}  # once; rows may be split

* Cases: a JSON array of::

    {"id": "c1",
     "observations": [{"feature": "f1", "value": "v1"}, ...],
     "true_diagnosis": "d1",                  # optional
     "gold_descriptive": {"d1": 0.7, ...},    # optional, sums to 1 +- 1e-6
     "gold_informed":    {"d1": 0.8, ...},    # optional
     "expert_ratings":   {"simple_bayes": 8, ...}}  # optional, 0..10
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, product, repeat, starmap
from operator import sub
from typing import IO, Mapping, NamedTuple, Sequence

from .errors import (
    AllHypothesesRuledOut,
    ConflictingObservations,
    FileFormatError,
    InputError,
    UnknownObservation,
    ValidationError,
)

# Probability sums are checked against these tolerances: tight enough to
# catch data errors, loose enough for decimal text round-trips.
PROB_SUM_TOL = 1e-9
GOLD_SUM_TOL = 1e-6

# The three calculi, in the order every method list, table and report uses.
CALCULI = ("simple_bayes", "odds_likelihood", "naive_dempster_shafer")
BELIEF_METHODS = (*CALCULI, "external")
# The gold standards a case may carry, each as its ``gold_<source>`` field.
GOLD_SOURCES = ("descriptive", "informed")


@dataclass(frozen=True)
class Disease:
    id: str
    name: str
    prior: float
    equivalence_class: str


@dataclass(frozen=True)
class Feature:
    id: str
    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class ConditionalTable:
    """Dense map (feature id, value id, disease id) -> probability: a dict, or a loaded ``_LoadedEntries``."""

    entries: Mapping[tuple[str, str, str], float]

    def prob(self, feature: str, value: str, disease: str) -> float:
        return self.entries[(feature, value, disease)]


class _LoadedEntries(Mapping):
    """A table read from a file's conditional rows: ``vectors[feature][value]`` is
    p(feature=value | d) per disease, in the order of ``layout``, the (diseases,
    features) read.  Only indexing or iterating builds a dict of the entries, once.
    A malformed row, or an unknown, repeated or missing entry, raises LookupError,
    TypeError or AttributeError, and a value ``_number`` rejects FileFormatError."""

    def __init__(self, diseases: tuple[Disease, ...], features: tuple[Feature, ...], rows: list) -> None:
        self.layout = (diseases, features)
        self.vectors = {f.id: {v: [None] * len(diseases) for v in f.values} for f in features}
        column = {d.id: i for i, d in enumerate(diseases)}
        filled = 0
        for entry in rows:
            i, by_value, probs = column[entry["disease"]], self.vectors[entry["feature"]], entry["probs"]
            for value, p in probs.items():
                if (vector := by_value[value])[i] is not None:
                    raise LookupError(f"repeated entry for {value!r}")
                vector[i] = p if type(p) is float and math.isfinite(p) else _number(p, "")
            filled += len(probs)
        if filled < len(self):
            raise LookupError("missing entries")

    @cached_property
    def _dict(self) -> dict[tuple[str, str, str], float]:
        return {(f, v, d.id): vector[i] for f, by_value in self.vectors.items()
                for i, d in enumerate(self.layout[0]) for v, vector in by_value.items()}

    def __getitem__(self, key: tuple[str, str, str]) -> float:
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self.layout[0]) * sum(map(len, self.vectors.values()))


@dataclass(frozen=True)
class KnowledgeBase:
    diseases: tuple[Disease, ...]
    features: tuple[Feature, ...]
    conditionals: ConditionalTable

    def __post_init__(self) -> None:
        violations = validate_kb(self)
        if violations:
            raise ValidationError(violations)

    @cached_property
    def disease_index(self) -> dict[str, Disease]:
        return {d.id: d for d in self.diseases}

    @cached_property
    def feature_index(self) -> dict[str, Feature]:
        return {f.id: f for f in self.features}

    @cached_property
    def vectors(self) -> dict[str, dict[str, list]]:
        """``vectors[feature][value]``: p(feature=value | d) per disease, in ``diseases`` order,
        built on construction.  A table loaded for these diseases and features gives its
        own vectors; any other is read with one ``entries.get`` per slot, None if missing."""
        entries = self.conditionals.entries
        if isinstance(entries, _LoadedEntries) and entries.layout == (self.diseases, self.features):
            return entries.vectors
        ids = [d.id for d in self.diseases]
        return {f.id: {v: list(map(entries.get, product((f.id,), (v,), ids))) for v in f.values}
                for f in self.features}

    @cached_property
    def compiled_terms(self) -> dict[str, dict]:
        """The engine's memos: each calculus in ``CALCULI`` maps an observation to its
        terms, one per disease, and "prior" maps a calculus to its prior terms."""
        return {key: {} for key in ("prior", *CALCULI)}

    def prior(self, disease_id: str) -> float:
        return self.disease_index[disease_id].prior


class Observation(NamedTuple):
    """One (feature, value) pair; a case observes at most one value per feature.
    Equal to its ``(feature, value)`` tuple, and hashed as it, to key memos."""

    feature: str
    value: str


@dataclass(frozen=True)
class BeliefDistribution:
    """Per-disease belief vector, renormalized to sum to one.

    ``pre_norm_sum`` retains the total belief mass the producing method
    assigned before renormalization; it equals 1 exactly when the
    method's independence assumptions are jointly consistent.
    """

    beliefs: Mapping[str, float]
    pre_norm_sum: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in BELIEF_METHODS:
            raise ValueError(f"unknown belief method tag '{self.method}'")
        if not math.isfinite(self.pre_norm_sum):
            raise ValueError(f"pre_norm_sum must be finite, got {self.pre_norm_sum!r}")
        if self.pre_norm_sum < 0:
            raise ValueError("pre_norm_sum must be nonnegative")
        for disease, value in self.beliefs.items():
            if not 0.0 <= value <= 1.0 + PROB_SUM_TOL:
                raise ValueError(f"belief for '{disease}' outside [0, 1]: {value!r}")
        total = math.fsum(self.beliefs.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"beliefs sum to {total!r}, expected 1 within {PROB_SUM_TOL}")

    @classmethod
    def from_unnormalized(cls, raw: Mapping[str, float], method: str) -> "BeliefDistribution":
        """Renormalize a raw nonnegative belief vector, recording its sum.

        Raises AllHypothesesRuledOut when every entry is zero; a uniform
        fallback would silently hide an inconsistent case.
        """
        total = math.fsum(raw.values())
        if total <= 0.0:
            raise AllHypothesesRuledOut("all hypotheses have zero belief")
        return cls(
            beliefs={d: v / total + 0.0 for d, v in raw.items()},  # -0.0 + 0.0 is 0.0; others keep bits
            pre_norm_sum=total,
            method=method,
        )

    def belief(self, disease_id: str) -> float:
        return self.beliefs.get(disease_id, 0.0)

    def sorted_items(self) -> list[tuple[str, float]]:
        """(disease, belief) pairs by descending belief, id as tie-break."""
        return sorted(self.beliefs.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass(frozen=True)
class CaseRecord:
    id: str
    observations: tuple[Observation, ...]
    true_diagnosis: str | None = None
    gold_descriptive: BeliefDistribution | None = None
    gold_informed: BeliefDistribution | None = None
    expert_ratings: Mapping[str, float] | None = None

    def gold(self, source: str) -> BeliefDistribution | None:
        if source not in GOLD_SOURCES:
            raise ValueError(f"unknown gold source '{source}'")
        return getattr(self, f"gold_{source}")


# ---------------------------------------------------------------------------
# Validation


def validate_kb(kb: KnowledgeBase) -> list[str]:
    """Check every knowledge-base invariant; return violations as data.

    An empty list means the knowledge base is valid.  Each violation
    names the offending entity and the rule it breaks.
    """
    violations: list[str] = []

    seen_d: set[str] = set()
    for d in kb.diseases:
        if d.id in seen_d:
            violations.append(f"disease '{d.id}': duplicate id")
        seen_d.add(d.id)
        if not d.prior > 0.0:
            violations.append(f"disease '{d.id}': prior must be strictly positive")
        if d.prior > 1.0:
            violations.append(f"disease '{d.id}': prior {d.prior} exceeds 1")
    if not kb.diseases:
        violations.append("knowledge base has no diseases")
    else:
        total = _fsum([d.prior for d in kb.diseases])
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            violations.append(f"disease priors must sum to 1 (got {total!r})")

    seen_f: set[str] = set()
    for f in kb.features:
        if f.id in seen_f:
            violations.append(f"feature '{f.id}': duplicate id")
        seen_f.add(f.id)
        if len(f.values) < 2:
            violations.append(f"feature '{f.id}': needs at least 2 values")
        if len(set(f.values)) != len(f.values):
            violations.append(f"feature '{f.id}': duplicate value ids")

    if violations or not _holds(kb):
        violations.extend(_table_violations(kb.features, [d.id for d in kb.diseases], kb.conditionals.entries))
    return violations


def _holds(kb: KnowledgeBase) -> bool:
    """The dense-table rule over ``kb.vectors`` in three C-level passes: one entry per
    slot, each in [0, 1], and each (feature, disease) row's fsum near 1.  A missing
    entry, None, fails to compare.  A column starting with NaN hides the rest from
    ``min`` and ``max``, but the NaN's row is summed first and fails."""
    by_feature = kb.vectors.values()
    columns = [column for by_value in by_feature for column in by_value.values()]
    sums = map(math.fsum, chain.from_iterable(starmap(zip, map(dict.values, by_feature))))
    try:
        return (len(kb.conditionals.entries) == len(kb.diseases) * len(columns)
                and 0.0 <= min(map(min, columns), default=0.0) and max(map(max, columns), default=0.0) <= 1.0
                and all(map(PROB_SUM_TOL.__ge__, map(abs, map(sub, sums, repeat(1.0))))))
    except TypeError:
        return False


def _table_violations(
    features: Sequence[Feature],
    disease_ids: Sequence[str],
    entries: Mapping[tuple[str, str, str], float],
) -> list[str]:
    """The dense-table rule entry by entry, naming every fault: every entry names
    a known feature, value and disease and lies in [0, 1], and every (feature,
    disease) row is complete and sums to 1."""
    rows: list[str] = []
    for f in features:
        if len(set(f.values)) != len(f.values):
            continue
        table = list(map(entries.get, product((f.id,), f.values, disease_ids)))
        for i, dis in enumerate(disease_ids):
            row = table[i :: len(disease_ids)]
            if None in row:
                rows.append(f"conditional row ({f.id}, {dis}): missing value entries")
            elif abs((s := _fsum(row)) - 1.0) > PROB_SUM_TOL:
                rows.append(f"conditional row ({f.id}, {dis}): sums to {s!r}, expected 1")
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
    return violations + rows


def _fsum(values: Sequence[float]) -> float:
    """``math.fsum``, except that inf + -inf reads as nan and a sum that
    overflows as an infinity of its sign: neither lies within any tolerance of 1."""
    try:
        return math.fsum(values)
    except ValueError:  # inf + -inf
        return math.nan
    except OverflowError:  # past the float range; an inf or nan summand still decides
        special = [v for v in values if not -math.inf < v < math.inf]
        return sum(special) if special else (math.inf if sum(map(Fraction, values)) >= 0 else -math.inf)


def _exact_integers(values: Sequence[float]) -> tuple[list[int], int]:
    """(integers, denominator): each float is its integer over one power-of-two denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    denominator = max(d for _, d in ratios)
    return [n * (denominator // d) for n, d in ratios], denominator


def _check_observation(kb: KnowledgeBase, obs: Observation, seen: set[str]) -> None:
    """Reject an unknown feature, an unknown value, then a feature already in
    ``seen``; otherwise add the observation's feature to ``seen``."""
    feature = kb.feature_index.get(obs.feature)
    if feature is None:
        raise UnknownObservation(f"unknown feature '{obs.feature}'")
    if obs.value not in feature.values:
        raise UnknownObservation(f"unknown value '{obs.value}' for feature '{obs.feature}'")
    if obs.feature in seen:
        raise ConflictingObservations(f"multiple observations for feature '{obs.feature}'")
    seen.add(obs.feature)


# ---------------------------------------------------------------------------
# Loading and serialization


def _read_bytes(source: bytes | str | os.PathLike | IO[bytes]) -> bytes:
    if isinstance(source, bytes):
        return source
    if hasattr(source, "read"):
        data = source.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    with open(source, "rb") as fh:
        return fh.read()


def _parse_json(source: bytes | str | os.PathLike | IO[bytes], what: str):
    raw = _read_bytes(source)
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{what}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal beyond the digit limit
        raise FileFormatError(f"{what}: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{what}: JSON nested too deeply to parse") from exc


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FileFormatError(f"{where}: expected an object")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise FileFormatError(f"{where}: expected an array")
    return value


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FileFormatError(f"{where}: missing key '{key}'")
    return obj[key]


def _field(obj: dict, key: str, where: str, kind):
    """``obj[key]`` checked by ``kind``, with errors located at ``where.key``."""
    if key not in obj:
        raise FileFormatError(f"{where}: missing key '{key}'")
    return kind(obj[key], f"{where}.{key}")


def _optional(obj: dict, key: str, where: str, kind):
    """``_field``, except that a missing key reads as None, as null does."""
    return None if obj.get(key) is None else _field(obj, key, where, kind)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise FileFormatError(f"{where}: number too large for a float") from None
    if not math.isfinite(number):
        raise FileFormatError(f"{where}: expected a finite number, got {value!r}")
    return number


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise FileFormatError(f"{where}: expected a string, got {value!r}")
    return value


def _id(value, where: str) -> str:
    """A disease or case id: reports print ids as TSV cells, so a tab or a
    line break in one would forge columns or rows."""
    text = _string(value, where)
    if any(c in text for c in "\t\n\r"):
        raise FileFormatError(f"{where}: ids must not contain tabs or line breaks, got {text!r}")
    return text


def load_kb(source: bytes | str | os.PathLike | IO[bytes]) -> KnowledgeBase:
    """Parse and validate a knowledge-base file.

    Accepts raw bytes, a binary file object, or a filesystem path.
    Raises FileFormatError with the offending location on parse errors
    and on a repeated (feature, value, disease) entry, at the entry that
    repeats it, and ValidationError carrying all semantic violations.
    """
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

    diseases, features = tuple(diseases), tuple(features)
    rows = _array(_require(doc, "conditionals", "knowledge base"), "conditionals")
    try:  # a valid file reads straight into vectors; the row loop below names any fault
        return KnowledgeBase(diseases, features, ConditionalTable(_LoadedEntries(diseases, features, rows)))
    except (LookupError, TypeError, AttributeError, InputError):
        pass

    entries: dict[tuple[str, str, str], float] = {}
    for i, entry in enumerate(rows):
        where = f"conditionals[{i}]"
        feat = _field(_object(entry, where), "feature", where, _string)
        dis = _field(entry, "disease", where, _string)
        for value, p in _field(entry, "probs", where, _object).items():
            p = _number(p, f"{where}.probs['{value}']")
            key = (feat, value, dis)
            if key in entries:
                raise FileFormatError(f"conditionals[{i}]: repeats entry {key!r}")
            entries[key] = p

    return KnowledgeBase(diseases=diseases, features=features, conditionals=ConditionalTable(entries))


def serialize_kb(kb: KnowledgeBase) -> bytes:
    """Inverse of load_kb; loading the output reproduces the knowledge base."""
    doc = {
        "diseases": [
            {"id": d.id, "name": d.name, "prior": d.prior, "class": d.equivalence_class}
            for d in kb.diseases
        ],
        "features": [
            {"id": f.id, "name": f.name, "values": list(f.values)} for f in kb.features
        ],
        "conditionals": [
            {
                "feature": f.id,
                "disease": d.id,
                "probs": {v: kb.vectors[f.id][v][i] for v in f.values},
            }
            for f in kb.features
            for i, d in enumerate(kb.diseases)
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _load_gold(raw, where: str, kb: KnowledgeBase, violations: list[str]) -> BeliefDistribution | None:
    if not isinstance(raw, dict):
        raise FileFormatError(f"{where}: expected an object mapping disease to probability")
    dist: dict[str, float] = {}
    for dis, p in raw.items():
        if dis not in kb.disease_index:
            violations.append(f"{where}: unknown disease '{dis}'")
            return None
        # Only a value that is not a finite float builds its location, in _number.
        value = p if type(p) is float and math.isfinite(p) else _number(p, f"{where}['{dis}']")
        if value < 0.0:
            violations.append(f"{where}: negative probability for '{dis}'")
            return None
        dist[dis] = value
    total = _fsum(dist.values())
    if abs(total - 1.0) > GOLD_SUM_TOL:
        violations.append(f"{where}: probabilities sum to {total!r}, expected 1 within {GOLD_SUM_TOL}")
        return None
    # Renormalize the file's decimal values so downstream arithmetic sees
    # an exact distribution; the raw sum is retained on the distribution.
    return BeliefDistribution.from_unnormalized(dist, method="external")


def load_cases(source: bytes | str | os.PathLike | IO[bytes], kb: KnowledgeBase) -> list[CaseRecord]:
    """Parse a case file and validate every case against the knowledge base."""
    doc = _array(_parse_json(source, "cases"), "cases")

    cases: list[CaseRecord] = []
    violations: list[str] = []
    seen_ids: set[str] = set()
    gold = partial(_load_gold, kb=kb, violations=violations)
    for i, entry in enumerate(doc):
        where = f"cases[{i}]"
        entry = _object(entry, where)
        case_id = _field(entry, "id", where, _id)
        where = f"case '{case_id}'"
        if case_id in seen_ids:
            violations.append(f"{where}: duplicate case id")
        seen_ids.add(case_id)

        observations: list[Observation] = []
        seen_features: set[str] = set()
        for j, obs in enumerate(_field(entry, "observations", where, _array)):
            ow = f"{where}.observations[{j}]"
            obs = _object(obs, ow)
            observation = Observation(_field(obs, "feature", ow, _string), _field(obs, "value", ow, _string))
            try:
                _check_observation(kb, observation, seen_features)
            except UnknownObservation as exc:
                violations.append(f"{ow}: {exc}")
                continue
            except ConflictingObservations as exc:
                violations.append(f"{where}: {exc}")
                continue
            observations.append(observation)

        true_dx = _optional(entry, "true_diagnosis", where, _string)
        if true_dx is not None and true_dx not in kb.disease_index:
            violations.append(f"{where}: unknown true diagnosis '{true_dx}'")
            true_dx = None

        golds = {f"gold_{s}": _optional(entry, f"gold_{s}", where, gold) for s in GOLD_SOURCES}

        ratings = _optional(entry, "expert_ratings", where, _object)
        if ratings is not None:
            # A whole rating in [0, 10] converts exactly; any other value goes through _number.
            ratings = {
                m: float(r) if type(r) is int and 0 <= r <= 10 else _number(r, f"{where}.expert_ratings['{m}']")
                for m, r in ratings.items()
            }
            violations.extend(
                f"{where}: rating for '{m}' outside [0, 10]" for m, r in ratings.items() if not 0.0 <= r <= 10.0
            )

        cases.append(
            CaseRecord(
                id=case_id,
                observations=tuple(observations),
                true_diagnosis=true_dx,
                expert_ratings=ratings,
                **golds,
            )
        )

    if violations:
        raise ValidationError(violations)
    return cases


# ---------------------------------------------------------------------------
# Feature clustering


def cross_product_feature(
    a: Feature, b: Feature, tables: ConditionalTable
) -> tuple[Feature, ConditionalTable]:
    """Merge two dependent features into one whose values are value pairs.

    The merged feature's id is ``"<a.id>+<b.id>"`` and its values are all
    ordered pairs ``"<a value>+<b value>"``.  Joint conditional rows for
    the merged feature must be supplied by the caller in ``tables`` under
    the merged feature id: the two features are being merged precisely
    because they are dependent, so multiplying their marginal rows would
    defeat the purpose.  The supplied rows must satisfy the knowledge
    base's dense-table rule for the merged feature.
    """
    if a.id == b.id:
        raise ValueError(f"cannot merge feature '{a.id}' with itself")

    merged_id = f"{a.id}+{b.id}"
    values = tuple(f"{va}+{vb}" for va in a.values for vb in b.values)
    merged = Feature(id=merged_id, name=f"{a.name} and {b.name}", values=values)
    if len(set(values)) != len(values):  # e.g. "x" + "y+z" and "x+y" + "z"
        raise ValidationError([f"feature '{merged_id}': duplicate value ids"])

    supplied = {key: p for key, p in tables.entries.items() if key[0] == merged_id}
    disease_ids = sorted({dis for (_, _, dis) in supplied})
    if not disease_ids:
        raise ValidationError(
            [f"merged feature '{merged_id}': no joint conditional rows supplied"]
        )
    violations = _table_violations((merged,), disease_ids, supplied)
    if violations:
        raise ValidationError(violations)

    return merged, ConditionalTable(supplied)
