"""Decision rules over belief distributions and the diagnostic utility model.

Diagnostic utilities U(true disease, diagnosed disease) are stored as
nonnegative *disutilities* in micromorts (one micromort = a one in one
million chance of immediate, painless death).  Expected-utility
maximization over negated utilities is therefore implemented here as
expected-disutility minimization; the chosen diagnosis is identical and
reported numbers read as "decrease in utility", smallest is best.

Utilities are assessed once per equivalence class (diseases sharing
treatment and prognosis) and expanded to disease pairs on demand, which
turns a quadratic number of assessments over diseases into a quadratic
number over the far fewer classes.

Utility file format (UTF-8 JSON)::

    {"classes": ["benign", ...],
     "expansion": {"disease_id": "class_id", ...},
     "disutility": [{"true": "benign", "diagnosed": "benign",
                     "micromorts": 1000}, ...]}   # dense over class pairs,
                                                  # each in [0, 1e6]
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import IO, Mapping

from .errors import (
    FileFormatError,
    LinearityRangeExceeded,
    NonpositiveValueOfLife,
    UnmappedDisease,
    ValidationError,
)
from .kb import BeliefDistribution, KnowledgeBase, _array, _field, _number, _object, _parse_json, _string

# The money/risk trade is linear only for small death probabilities.
LINEAR_RISK_LIMIT = 0.001
# A one in one chance of death: no disutility can be larger.
CERTAIN_DEATH_MICROMORTS = 1e6


@dataclass(frozen=True)
class UtilityMatrix:
    """Class-level diagnostic disutilities plus a disease-to-class map."""

    classes: tuple[str, ...]
    class_disutility: Mapping[tuple[str, str], float]
    expansion: Mapping[str, str]

    def __post_init__(self) -> None:
        violations = []
        if len(set(self.classes)) != len(self.classes):
            violations.append("duplicate equivalence-class ids")
        known = set(self.classes)
        for (i, j), u in self.class_disutility.items():
            if i not in known or j not in known:
                violations.append(f"disutility entry ({i}, {j}): unknown class")
            if not math.isfinite(u):
                violations.append(f"disutility entry ({i}, {j}): micromorts {u!r} not finite")
            elif u < 0.0:
                violations.append(f"disutility entry ({i}, {j}): negative micromorts {u!r}")
        for i in self.classes:
            for j in self.classes:
                if (i, j) not in self.class_disutility:
                    violations.append(f"missing disutility entry ({i}, {j})")
        for disease, cls in self.expansion.items():
            if cls not in known:
                violations.append(f"disease '{disease}' mapped to unknown class '{cls}'")
        if violations:
            raise ValidationError(violations)

    def disease_class(self, disease_id: str) -> str:
        try:
            return self.expansion[disease_id]
        except KeyError:
            raise UnmappedDisease(f"disease '{disease_id}' has no equivalence class") from None


@dataclass(frozen=True)
class MicromortQuote:
    amount: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.amount < math.inf:
            raise ValueError(f"micromort amount must be finite and nonnegative, got {self.amount!r}")


def max_belief_diagnosis(p: BeliefDistribution) -> str:
    """The id of the disease with the highest belief; ties go to the smallest id.

    Works for any nonnegative belief vector, probabilistic or not.
    """
    return max(sorted(p.beliefs), key=p.beliefs.__getitem__)


def expected_class_disutility(
    p: BeliefDistribution, utilities: UtilityMatrix, diagnosed_class: str
) -> float:
    """Expected micromorts of diagnosing into ``diagnosed_class`` under ``p``.

    Shared by the expected-utility decision rule and by rating
    computations so that both produce bit-identical values for the same
    diagnosis.
    """
    return math.fsum(
        belief * utilities.class_disutility[(utilities.disease_class(disease), diagnosed_class)]
        for disease, belief in p.beliefs.items()
    )


def meu_diagnosis(p: BeliefDistribution, utilities: UtilityMatrix, kb: KnowledgeBase) -> str:
    """The id of the disease minimizing expected disutility under ``p``.

    Candidates are all diseases in the knowledge base; ties go to the
    smallest disease id, so any disease within the optimal equivalence
    class may be returned and all such choices score identically.  Each
    class's expected disutility is computed once, when the scan first
    meets one of its diseases.
    """
    best_id = None
    best = math.inf
    by_class: dict[str, float] = {}
    for candidate in sorted(d.id for d in kb.diseases):
        cls = utilities.disease_class(candidate)
        if cls not in by_class:
            by_class[cls] = expected_class_disutility(p, utilities, cls)
        expected = by_class[cls]
        if expected < best:
            best, best_id = expected, candidate
    if best_id is None:
        raise ValueError(f"no finite expected disutility among the classes: {by_class}")
    return best_id


def expand_utilities(utilities: UtilityMatrix, kb: KnowledgeBase) -> dict[tuple[str, str], float]:
    """Disease-pair disutilities from class-pair assessments.

    Produces one entry per ordered disease pair; diseases in the same
    class share identical rows and columns.
    """
    expanded: dict[tuple[str, str], float] = {}
    for di in kb.diseases:
        ci = utilities.disease_class(di.id)
        for dj in kb.diseases:
            expanded[(di.id, dj.id)] = utilities.class_disutility[
                (ci, utilities.disease_class(dj.id))
            ]
    return expanded


def wtp_to_micromorts(dollars: float, small_risk_value_of_life: float) -> MicromortQuote:
    """Convert a willingness-to-pay amount into micromorts.

    At a small-risk value of life V, money and death risk trade linearly
    at V / 1,000,000 dollars per micromort; a V too small to price the
    amount in finite micromorts is rejected.  Warns (without failing) when
    the implied death probability exceeds the linear range of 0.001.
    """
    if small_risk_value_of_life <= 0.0:
        raise NonpositiveValueOfLife(
            f"small-risk value of life must be positive, got {small_risk_value_of_life!r}"
        )
    if not math.isfinite(small_risk_value_of_life):
        raise ValueError(f"small-risk value of life must be finite, got {small_risk_value_of_life!r}")
    if not 0.0 <= dollars < math.inf:
        raise ValueError(f"willingness to pay must be finite and nonnegative, got {dollars!r}")
    per_micromort = small_risk_value_of_life / 1e6
    amount = dollars / per_micromort if per_micromort > 0.0 else math.inf
    if amount == math.inf:
        raise ValueError(
            f"cannot price {dollars!r} dollars at a small-risk value of life of {small_risk_value_of_life!r}"
        )
    implied_probability = dollars / small_risk_value_of_life
    if implied_probability > LINEAR_RISK_LIMIT:
        warnings.warn(
            f"implied death probability {implied_probability:.6g} exceeds the "
            f"linear small-risk range ({LINEAR_RISK_LIMIT})",
            LinearityRangeExceeded,
            stacklevel=2,
        )
    return MicromortQuote(amount=amount)


def offdiagonal_adjust(base: float, delta: MicromortQuote) -> float:
    """Add the disutility of an extra consequence to a preexisting assessment.

    Off-diagonal entries are assessed by starting from the most similar
    existing entry and pricing the difference; this is the arithmetic
    half of that procedure.
    """
    if not 0.0 <= base < math.inf:
        raise ValueError(f"base disutility must be finite and nonnegative, got {base!r}")
    adjusted = base + delta.amount
    if adjusted == math.inf:
        raise ValueError(f"adjusted disutility must be finite, got {base!r} + {delta.amount!r}")
    return adjusted


# ---------------------------------------------------------------------------
# Utility file handling


def load_utilities(source: bytes | str | os.PathLike | IO[bytes]) -> UtilityMatrix:
    """Parse a utility file; raises on missing entries, on values outside [0, 1e6],
    and on a repeated (true, diagnosed) entry, at the entry that repeats it."""
    doc = _object(_parse_json(source, "utilities"), "utilities")

    raw_classes = _field(doc, "classes", "utilities", _array)
    classes = tuple(_string(c, f"utilities.classes[{i}]") for i, c in enumerate(raw_classes))
    raw_expansion = _field(doc, "expansion", "utilities", _object)
    expansion = {k: _string(v, f"utilities.expansion['{k}']") for k, v in raw_expansion.items()}

    entries: dict[tuple[str, str], float] = {}
    for i, entry in enumerate(_field(doc, "disutility", "utilities", _array)):
        where = f"utilities.disutility[{i}]"
        entry = _object(entry, where)
        key = (_field(entry, "true", where, _string), _field(entry, "diagnosed", where, _string))
        micromorts = _field(entry, "micromorts", where, _number)
        if micromorts > CERTAIN_DEATH_MICROMORTS:
            raise FileFormatError(
                f"{where}.micromorts: {micromorts!r} is above certain death ({CERTAIN_DEATH_MICROMORTS:.0f})"
            )
        if key in entries:
            raise FileFormatError(f"{where}: repeats entry {key!r}")
        entries[key] = micromorts

    return UtilityMatrix(classes=classes, class_disutility=entries, expansion=expansion)


def utility_coverage_violations(utilities: UtilityMatrix, kb: KnowledgeBase) -> list[str]:
    """Cross-checks run when a utility model is attached to a knowledge base."""
    violations = []
    known = set(utilities.classes)
    for d in kb.diseases:
        if d.id not in utilities.expansion:
            violations.append(f"disease '{d.id}': not mapped in the utility model")
        elif utilities.expansion[d.id] != d.equivalence_class:
            violations.append(
                f"disease '{d.id}': knowledge base class '{d.equivalence_class}' "
                f"differs from utility expansion '{utilities.expansion[d.id]}'"
            )
        if d.equivalence_class not in known:
            violations.append(
                f"disease '{d.id}': equivalence class '{d.equivalence_class}' "
                "missing from the utility model"
            )
    return violations
