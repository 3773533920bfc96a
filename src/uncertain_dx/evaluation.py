"""Decision-theoretic and expert-rating evaluation of inference methods.

Each inference method is run over a set of cases, its diagnosis is
priced in micromorts against a gold-standard distribution assessed by an
expert, and the per-case ratings are aggregated with weights equal to
the normalized prior probabilities of the cases' true diagnoses, so that
common presentations count for more than rare ones.

The gold diagnosis minimizes expected disutility under the gold
distribution, so every method's rating is bounded below by the gold
rating and all reported mean differences are nonnegative.

Reports carry four data sections (decision-theoretic ratings, a
gold-versus-gold comparison when two gold standards are available,
expert ratings, and significance tests) plus the list of cases excluded
because a method could not produce a distribution for them.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import combinations
from statistics import NormalDist
from typing import Sequence

from . import engine
from .decision import (
    UtilityMatrix,
    expected_class_disutility,
    max_belief_diagnosis,
    meu_diagnosis,
)
from .errors import (
    InferenceError,
    MissingGoldStandard,
    MissingRatings,
    MissingTrueDiagnosis,
    UnknownDisease,
    ValidationError,
)
from .kb import CALCULI, PROB_SUM_TOL, BeliefDistribution, CaseRecord, KnowledgeBase

# Each evaluated method in presentation order: (report label, calculus that
# produces its distribution, whether it diagnoses by minimum expected
# disutility rather than by highest belief).  Every calculus is also a
# method of its own, so its label heads its expert-rating row.
METHODS = {
    "simple_bayes_meu": ("Simple Bayes-MEU", "simple_bayes", True),
    "simple_bayes": ("Simple Bayes", "simple_bayes", False),
    "odds_likelihood": ("Odds-likelihood", "odds_likelihood", False),
    "naive_dempster_shafer": ("Naive Dempster-Shafer", "naive_dempster_shafer", False),
}
EVAL_METHODS = tuple(METHODS)

_INFERENCE = {name: getattr(engine, name) for name in CALCULI}


def check_methods(methods: Sequence[str], allowed: Sequence[str]) -> None:
    """Raise ValueError unless ``methods`` are one or more distinct names from ``allowed``."""
    if not methods:
        raise ValueError("no methods requested")
    for m in methods:
        if m not in allowed:
            raise ValueError(f"unknown method '{m}' (allowed: {', '.join(allowed)})")
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate methods requested")


# Sentence-case labels head the main ratings table; title-case labels are
# used in the gold-versus-gold section.
GOLD_ROW_LABELS = {
    "descriptive": "Descriptive gold standard",
    "informed": "Informed gold standard",
}
GOLD_PAIR_LABELS = {source: label.title() for source, label in GOLD_ROW_LABELS.items()}


@dataclass(frozen=True)
class CaseWeight:
    case_id: str
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight for '{self.case_id}' outside [0, 1]: {self.weight!r}")


@dataclass(frozen=True)
class DecisionRow:
    label: str
    absolute_mean: float
    diff_mean: float | None = None
    diff_sd: float | None = None
    agreement: tuple[int, int] | None = None  # (matching diagnoses, cases)


@dataclass(frozen=True)
class ExpertRow:
    label: str
    mean: float
    sd: float


@dataclass(frozen=True)
class SignificanceResult:
    comparison: str
    test: str
    statistic: float
    asl: float
    seed: int | None = None
    iterations: int | None = None


@dataclass(frozen=True)
class Exclusion:
    case_id: str
    reason: str


# Column names of each report section, in report order: the TSV header
# rows, the JSON keys and the ``evaluate`` help text.
REPORT_COLUMNS = {
    "decision_theoretic": ("row", "absolute_mean_micromorts", "diff_mean", "diff_sd", "gold_agreement"),
    "gold_standards": ("row", "absolute_mean_micromorts", "diff_mean", "diff_sd"),
    "expert_ratings": ("method", "mean", "sd"),
    "significance": ("comparison", "test", "statistic", "asl", "seed", "iterations"),
    "exclusions": ("case", "reason"),
}

# TSV cell format per report column; micromorts print as integers, other
# columns as ``str``, and a missing value as ``-``.
_TSV_FORMATS = {
    "absolute_mean_micromorts": round,
    "diff_mean": round,
    "diff_sd": round,
    "mean": "{:.2f}".format,
    "sd": "{:.2f}".format,
    "statistic": "{:.4f}".format,
    "asl": "{:.6f}".format,
}


@dataclass(frozen=True)
class EvaluationReport:
    gold_source: str
    case_count: int
    decision_rows: tuple[DecisionRow, ...]
    gold_rows: tuple[DecisionRow, ...]
    expert_rows: tuple[ExpertRow, ...]
    significance: tuple[SignificanceResult, ...]
    exclusions: tuple[Exclusion, ...]
    seed: int
    iterations: int

    def _sections(self) -> list[tuple[str, tuple[str, ...], list[tuple]]]:
        """(section name, column names, rows of raw values) in report order.

        Each row holds its dataclass's fields in column order; a decision
        row prints its agreement as "k of n"."""

        def decision(row: DecisionRow) -> tuple:
            agreement = None if row.agreement is None else "{} of {}".format(*row.agreement)
            return (*astuple(row)[:4], agreement)

        rows = {
            "decision_theoretic": [decision(r) for r in self.decision_rows],
            "gold_standards": [decision(r)[:4] for r in self.gold_rows],
            "expert_ratings": [astuple(r) for r in self.expert_rows],
            "significance": [astuple(r) for r in self.significance],
            "exclusions": [astuple(r) for r in self.exclusions],
        }
        return [(name, columns, rows[name]) for name, columns in REPORT_COLUMNS.items()]

    def to_tsv(self) -> str:
        lines = []
        for name, columns, rows in self._sections():
            lines.append(f"[{name}]")
            lines.append("\t".join(columns))
            for row in rows:
                cells = (
                    "-" if value is None else str(_TSV_FORMATS.get(column, str)(value))
                    for column, value in zip(columns, row)
                )
                lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "gold_source": self.gold_source,
            "cases": self.case_count,
            "seed": self.seed,
            "iterations": self.iterations,
        }
        for name, columns, rows in self._sections():
            doc[name] = [dict(zip(columns, row)) for row in rows]
        return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Rating arithmetic


def expected_disutility(
    p_gold: BeliefDistribution, utilities: UtilityMatrix, disease: str, kb: KnowledgeBase
) -> float:
    """Expected micromort loss of diagnosing ``disease`` under the gold distribution."""
    if disease not in kb.disease_index:
        raise UnknownDisease(f"unknown diagnosis '{disease}'")
    return expected_class_disutility(p_gold, utilities, utilities.disease_class(disease))


def case_weights(cases: Sequence[CaseRecord], kb: KnowledgeBase) -> list[CaseWeight]:
    """Relative likelihood of each case: normalized priors of true diagnoses."""
    priors = []
    for case in cases:
        if case.true_diagnosis is None:
            raise MissingTrueDiagnosis(f"case '{case.id}' has no true diagnosis")
        priors.append(kb.prior(case.true_diagnosis))
    total = math.fsum(priors)
    return [CaseWeight(case_id=c.id, weight=p / total) for c, p in zip(cases, priors)]


def weighted_mean_sd(values: Sequence[float], weights: Sequence[CaseWeight]) -> tuple[float, float]:
    """Weighted mean and weighted population standard deviation.

    Weights are normalized relative likelihoods, not repeat counts, so no
    small-sample correction is applied; weights not summing to 1 are rejected.
    """
    if len(values) != len(weights):
        raise ValueError(f"{len(values)} values but {len(weights)} weights")
    if not values:
        raise ValueError("empty sample")
    total = math.fsum(w.weight for w in weights)
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
    mean = math.fsum(w.weight * v for v, w in zip(values, weights))
    # A deviation of 2**511 or more may overflow when squared, so scale them all
    # by 2**-600 and the result back: barring underflow that changes no rounding.
    shift = 600 if max(abs(v - mean) for v in values) >= 2.0**511 else 0
    variance = math.fsum(
        w.weight * math.ldexp(v - mean, -shift) ** 2 for v, w in zip(values, weights)
    )
    return mean, math.ldexp(math.sqrt(max(variance, 0.0)), shift)


# ---------------------------------------------------------------------------
# Significance tests


def permutation_test(
    diffs: Sequence[float], weights: Sequence[CaseWeight], iterations: int, seed: int
) -> float:
    """One-sided sign-flip permutation test on paired differences.

    The statistic is the weighted mean of the differences.  Under the
    null the differences are symmetric about zero, so each iteration
    flips every difference's sign with probability one half and the
    achieved significance level is (1 + #{flipped statistic >= observed})
    / (1 + iterations), which never reports an exact zero from a finite
    Monte Carlo run.

    Whether a flipped statistic, the ``math.fsum`` of the flipped weighted
    differences, reaches the observed one is decided in exact integers
    (``_flip_sum_tables``), with the same outcome as summing each flip.

    Deterministic for a given seed: the iteration RNG streams depend only
    on (seed, iteration index), and inputs are canonicalized by sorting
    on case id first, so pair order does not matter.
    """
    if not diffs:
        raise ValueError("empty sample")
    if len(diffs) != len(weights):
        raise ValueError(f"{len(diffs)} diffs but {len(weights)} weights")
    if iterations < 1000:
        raise ValueError(f"iterations must be at least 1000, got {iterations}")
    if not all(map(math.isfinite, diffs)):
        raise ValueError("differences must be finite")

    pairs = sorted(zip(diffs, weights), key=lambda dw: (dw[1].case_id, dw[0], dw[1].weight))
    weighted = [w.weight * d for d, w in pairs]
    tables, threshold = _flip_sum_tables(weighted, math.fsum(weighted))
    width = len(tables)
    hits = 0
    for bits in _sign_flips(len(weighted), iterations, seed):
        if sum(map(list.__getitem__, tables, bits.to_bytes(width, "little"))) >= threshold:
            hits += 1
    return (1 + hits) / (1 + iterations)


def _flip_sum_tables(weighted: Sequence[float], observed: float) -> tuple[list[list[int]], int]:
    """(per-byte tables, threshold) such that a sign-flip bit pattern is a hit,
    ``math.fsum(flipped) >= observed``, exactly when the table entries its
    bytes select sum to at least the threshold.

    Each term is an exact integer a_k over one power-of-two denominator D,
    so a flip's exact sum is S / D with S = 2U - T, where T sums every a_k
    and U those whose bit is set.  ``math.fsum`` rounds S / D correctly and
    rounding is monotone, so the hit test is S / D >= m, where m is the
    midpoint between ``observed`` and the float below it; at m itself
    round-half-even rounds to ``observed`` only when its last significand
    bit is 0.  Table j holds U over the 256 patterns of bits 8j..8j+7.
    """
    ratios = [v.as_integer_ratio() for v in weighted]
    denominator = max(d for _, d in ratios)
    terms = [n * (denominator // d) for n, d in ratios]

    below = math.nextafter(observed, -math.inf)
    # Below the most negative float, rounding behaves as if the next value were -2**1024.
    low = Fraction(below) if math.isfinite(below) else Fraction(-(2**1024))
    midpoint = (low + Fraction(observed)) / 2 * denominator
    tie_rounds_up = int(observed / math.ulp(observed)) % 2 == 0
    s_min = math.ceil(midpoint) if tie_rounds_up else math.floor(midpoint) + 1
    # 2U - T >= s_min  <=>  U >= ceil((s_min + T) / 2)
    threshold = -(-(s_min + sum(terms)) // 2)

    tables = []
    for start in range(0, len(terms), 8):
        table = [0]
        for a in terms[start : start + 8]:
            table += [u + a for u in table]
        tables.append(table)
    return tables, threshold


@functools.lru_cache(maxsize=1)
def _sign_flips(n: int, iterations: int, seed: int) -> tuple[int, ...]:
    """The n sign-flip bits of every iteration, one RNG stream per iteration.

    They depend only on (n, iterations, seed), so all pairwise tests of one
    evaluation share one draw.
    """
    return tuple(random.Random((seed << 32) + i).getrandbits(n) for i in range(iterations))


def _midranks(pooled: Sequence[float]) -> tuple[list[float], float]:
    """(1-based midranks, tie term sum of t^3 - t over tie groups)."""
    n = len(pooled)
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    tie_sum = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # 1-based average rank of the tie group
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        t = j - i + 1
        tie_sum += t**3 - t
        i = j + 1
    return ranks, tie_sum


def _rank_sum_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """(rank-sum of a, one-sided ASL that a is stochastically larger)."""
    if not a or not b:
        raise ValueError("both samples must be nonempty")
    pooled = list(a) + list(b)
    n, n_a, n_b = len(pooled), len(a), len(b)
    ranks, tie_sum = _midranks(pooled)
    w = math.fsum(ranks[:n_a])

    mean = n_a * (n + 1) / 2.0
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    if variance <= 0.0:
        return w, 0.5  # all observations tied; the statistic sits at its mean
    z = (w - mean) / math.sqrt(variance)
    return w, 1.0 - NormalDist().cdf(z)


def wilcoxon_rank_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample rank test with midrank ties and normal approximation.

    Returns the one-sided achieved significance level for "a is
    stochastically larger than b"; the samples enter unweighted.
    """
    return _rank_sum_test(a, b)[1]


# ---------------------------------------------------------------------------
# Expert ratings


def expert_rating_summary(
    cases: Sequence[CaseRecord], weights: Sequence[CaseWeight], methods: Sequence[str]
) -> dict[str, tuple[float, float]]:
    """Weighted mean and sd of the 0-10 expert ratings per method."""
    summary: dict[str, tuple[float, float]] = {}
    for method in methods:
        values = []
        for case in cases:
            ratings = case.expert_ratings or {}
            if method not in ratings:
                raise MissingRatings(f"case '{case.id}' has no expert rating for '{method}'")
            values.append(ratings[method])
        summary[method] = weighted_mean_sd(values, weights)
    return summary


# ---------------------------------------------------------------------------
# The evaluation pipeline


def evaluate_methods(
    kb: KnowledgeBase,
    cases: Sequence[CaseRecord],
    utilities: UtilityMatrix,
    methods: Sequence[str],
    gold_source: str,
    *,
    seed: int = 0,
    iterations: int = 10000,
) -> EvaluationReport:
    """Score each method's diagnoses against the selected gold standard.

    Per case and method: run inference, pick the diagnosis (highest
    belief, or minimum expected disutility for ``simple_bayes_meu``),
    price it under the gold distribution, and compare with the gold
    diagnosis.  Cases on which any required inference fails are excluded
    from the whole study and listed in the report.  Aggregation is a
    deterministic reduce over cases sorted by id.
    """
    if gold_source not in GOLD_ROW_LABELS:
        names = " or ".join(f"'{source}'" for source in GOLD_ROW_LABELS)
        raise ValueError(f"gold source must be {names}, got {gold_source!r}")
    check_methods(methods, EVAL_METHODS)
    ordered_methods = [m for m in METHODS if m in methods]
    calculi = {METHODS[m][1] for m in ordered_methods}
    needed_dists = [d for d in CALCULI if d in calculi]

    ordered_cases = sorted(cases, key=lambda c: c.id)
    for case in ordered_cases:
        if case.gold(gold_source) is None:
            raise MissingGoldStandard(f"case '{case.id}' has no {gold_source} gold distribution")

    # Inference; any failure excludes the case from the entire study.
    distributions: dict[str, dict[str, BeliefDistribution]] = {}
    exclusions: list[Exclusion] = []
    included: list[CaseRecord] = []
    for case in ordered_cases:
        per_case: dict[str, BeliefDistribution] = {}
        for dist_method in needed_dists:
            try:
                per_case[dist_method] = _INFERENCE[dist_method](kb, case.observations)
            except InferenceError as exc:
                exclusions.append(Exclusion(case.id, f"{dist_method}: {type(exc).__name__}"))
                break
        else:
            distributions[case.id] = per_case
            included.append(case)
    if not included:
        raise ValidationError(["no cases remain after exclusions"])

    weights = case_weights(included, kb)
    other_source = next(source for source in GOLD_ROW_LABELS if source != gold_source)
    both_golds = all(c.gold(other_source) is not None for c in included)

    # Per rated row: its rating of each case and the rating minus the gold
    # rating; the other gold standard is rated like one more method.
    gold_ratings: list[float] = []
    ratings: dict[str, list[float]] = {m: [] for m in ordered_methods + [other_source]}
    diffs: dict[str, list[float]] = {m: [] for m in ratings}
    agreement = dict.fromkeys(ordered_methods, 0)

    for case in included:
        p_gold = case.gold(gold_source)
        dx_gold = meu_diagnosis(p_gold, utilities, kb)
        r_gold = expected_disutility(p_gold, utilities, dx_gold, kb)
        gold_ratings.append(r_gold)

        diagnoses = {}
        for method in ordered_methods:
            _, calculus, uses_meu = METHODS[method]
            dist = distributions[case.id][calculus]
            if uses_meu:
                diagnoses[method] = meu_diagnosis(dist, utilities, kb)
            else:
                diagnoses[method] = max_belief_diagnosis(dist)
            agreement[method] += diagnoses[method] == dx_gold
        if both_golds:
            diagnoses[other_source] = meu_diagnosis(case.gold(other_source), utilities, kb)
        for row, dx in diagnoses.items():
            r = expected_disutility(p_gold, utilities, dx, kb)
            ratings[row].append(r)
            diffs[row].append(r - r_gold)

    def rated_row(label: str, row: str, agree: tuple[int, int] | None = None) -> DecisionRow:
        absolute, _ = weighted_mean_sd(ratings[row], weights)
        diff_mean, diff_sd = weighted_mean_sd(diffs[row], weights)
        return DecisionRow(label, absolute, diff_mean, diff_sd, agree)

    n_cases = len(included)
    gold_mean, _ = weighted_mean_sd(gold_ratings, weights)
    decision_rows = [DecisionRow(label=GOLD_ROW_LABELS[gold_source], absolute_mean=gold_mean)]
    for method in ordered_methods:
        decision_rows.append(rated_row(METHODS[method][0], method, (agreement[method], n_cases)))

    gold_rows: tuple[DecisionRow, ...] = ()
    if both_golds:
        gold_rows = (
            DecisionRow(label=GOLD_PAIR_LABELS[gold_source], absolute_mean=gold_mean),
            rated_row(GOLD_PAIR_LABELS[other_source], other_source),
        )

    summary: dict[str, tuple[float, float]] = {}
    if any(case.expert_ratings for case in included):
        summary = expert_rating_summary(included, weights, needed_dists)
    expert_rows = [ExpertRow(METHODS[m][0], *summary[m]) for m in summary]

    significance: list[SignificanceResult] = []
    for first, second in combinations(ordered_methods, 2):
        paired = [da - db for da, db in zip(diffs[first], diffs[second])]
        observed = math.fsum(w.weight * d for w, d in zip(weights, paired))
        if observed < 0.0:
            first, second = second, first
            paired = [-d for d in paired]
            observed = -observed
        significance.append(
            SignificanceResult(
                comparison=f"{METHODS[first][0]} vs {METHODS[second][0]}",
                test="monte_carlo_permutation",
                statistic=observed,
                asl=permutation_test(paired, weights, iterations, seed),
                seed=seed,
                iterations=iterations,
            )
        )
    for first, second in combinations(summary, 2):
        # Higher ratings are better; test whether the better-rated
        # method is stochastically larger.
        if summary[second][0] > summary[first][0]:
            first, second = second, first
        a = [c.expert_ratings[first] for c in included]
        b = [c.expert_ratings[second] for c in included]
        statistic, asl = _rank_sum_test(a, b)
        significance.append(
            SignificanceResult(
                comparison=f"{METHODS[first][0]} vs {METHODS[second][0]}",
                test="wilcoxon_rank_sum",
                statistic=statistic,
                asl=asl,
            )
        )

    return EvaluationReport(
        gold_source=gold_source,
        case_count=n_cases,
        decision_rows=tuple(decision_rows),
        gold_rows=gold_rows,
        expert_rows=tuple(expert_rows),
        significance=tuple(significance),
        exclusions=tuple(exclusions),
        seed=seed,
        iterations=iterations,
    )
