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

import json
import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

from . import engine
from .decision import (
    Diagnosis,
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
from .kb import BeliefDistribution, CaseRecord, KnowledgeBase

WEIGHT_SUM_TOL = 1e-9

# Canonical presentation order for methods; 'simple_bayes_meu' applies the
# expected-utility rule to the simple-Bayes distribution, the rest pick
# the most-believed disease.
EVAL_METHODS = ("simple_bayes_meu", "simple_bayes", "odds_likelihood", "naive_dempster_shafer")
DISTRIBUTION_METHODS = ("simple_bayes", "odds_likelihood", "naive_dempster_shafer")

METHOD_LABELS = {
    "simple_bayes_meu": "Simple Bayes-MEU",
    "simple_bayes": "Simple Bayes",
    "odds_likelihood": "Odds-likelihood",
    "naive_dempster_shafer": "Naive Dempster-Shafer",
}

# Sentence-case labels head the main ratings table; title-case labels are
# used in the gold-versus-gold section.
GOLD_ROW_LABELS = {
    "descriptive": "Descriptive gold standard",
    "informed": "Informed gold standard",
}
GOLD_PAIR_LABELS = {
    "descriptive": "Descriptive Gold Standard",
    "informed": "Informed Gold Standard",
}

_INFERENCE = {
    "simple_bayes": engine.simple_bayes,
    "odds_likelihood": engine.odds_likelihood,
    "naive_dempster_shafer": engine.naive_dempster_shafer,
}


def _distribution_method(method: str) -> str:
    return "simple_bayes" if method == "simple_bayes_meu" else method


@dataclass(frozen=True)
class CaseWeight:
    case_id: str
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight for '{self.case_id}' outside [0, 1]: {self.weight!r}")


@dataclass(frozen=True)
class RatingPair:
    """Micromort ratings of a method diagnosis and the gold diagnosis."""

    r_method: float
    r_gold: float

    def __post_init__(self) -> None:
        if self.r_method < self.r_gold:
            raise ValueError(
                f"method rating {self.r_method!r} below gold rating {self.r_gold!r}; "
                "the gold diagnosis minimizes expected disutility"
            )

    @property
    def diff(self) -> float:
        return self.r_method - self.r_gold


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

    def to_tsv(self) -> str:
        def mm(x: float | None) -> str:
            return "-" if x is None else str(round(x))

        def agree(a: tuple[int, int] | None) -> str:
            return "-" if a is None else f"{a[0]} of {a[1]}"

        def opt(x) -> str:
            return "-" if x is None else str(x)

        lines = ["[decision_theoretic]"]
        lines.append("row\tabsolute_mean_micromorts\tdiff_mean\tdiff_sd\tgold_agreement")
        for row in self.decision_rows:
            lines.append(
                f"{row.label}\t{mm(row.absolute_mean)}\t{mm(row.diff_mean)}"
                f"\t{mm(row.diff_sd)}\t{agree(row.agreement)}"
            )
        lines.append("[gold_standards]")
        lines.append("row\tabsolute_mean_micromorts\tdiff_mean\tdiff_sd")
        for row in self.gold_rows:
            lines.append(
                f"{row.label}\t{mm(row.absolute_mean)}\t{mm(row.diff_mean)}\t{mm(row.diff_sd)}"
            )
        lines.append("[expert_ratings]")
        lines.append("method\tmean\tsd")
        for row in self.expert_rows:
            lines.append(f"{row.label}\t{row.mean:.2f}\t{row.sd:.2f}")
        lines.append("[significance]")
        lines.append("comparison\ttest\tstatistic\tasl\tseed\titerations")
        for res in self.significance:
            lines.append(
                f"{res.comparison}\t{res.test}\t{res.statistic:.4f}\t{res.asl:.6f}"
                f"\t{opt(res.seed)}\t{opt(res.iterations)}"
            )
        lines.append("[exclusions]")
        lines.append("case\treason")
        for exc in self.exclusions:
            lines.append(f"{exc.case_id}\t{exc.reason}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "gold_source": self.gold_source,
            "cases": self.case_count,
            "seed": self.seed,
            "iterations": self.iterations,
            "decision_theoretic": [
                {
                    "row": row.label,
                    "absolute_mean_micromorts": row.absolute_mean,
                    "diff_mean": row.diff_mean,
                    "diff_sd": row.diff_sd,
                    "gold_agreement": None if row.agreement is None else f"{row.agreement[0]} of {row.agreement[1]}",
                }
                for row in self.decision_rows
            ],
            "gold_standards": [
                {
                    "row": row.label,
                    "absolute_mean_micromorts": row.absolute_mean,
                    "diff_mean": row.diff_mean,
                    "diff_sd": row.diff_sd,
                }
                for row in self.gold_rows
            ],
            "expert_ratings": [
                {"method": row.label, "mean": row.mean, "sd": row.sd} for row in self.expert_rows
            ],
            "significance": [
                {
                    "comparison": res.comparison,
                    "test": res.test,
                    "statistic": res.statistic,
                    "asl": res.asl,
                    "seed": res.seed,
                    "iterations": res.iterations,
                }
                for res in self.significance
            ],
            "exclusions": [
                {"case": exc.case_id, "reason": exc.reason} for exc in self.exclusions
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Rating arithmetic


def expected_disutility(
    p_gold: BeliefDistribution, utilities: UtilityMatrix, dx: Diagnosis, kb: KnowledgeBase
) -> float:
    """Expected micromort loss of diagnosis ``dx`` under the gold distribution."""
    if dx.disease not in kb.disease_index:
        raise UnknownDisease(f"unknown diagnosis '{dx.disease}'")
    return expected_class_disutility(p_gold, utilities, utilities.disease_class(dx.disease))


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
    small-sample correction is applied.
    """
    if len(values) != len(weights):
        raise ValueError(f"{len(values)} values but {len(weights)} weights")
    if not values:
        raise ValueError("empty sample")
    mean = math.fsum(w.weight * v for v, w in zip(values, weights))
    variance = math.fsum(w.weight * (v - mean) ** 2 for v, w in zip(values, weights))
    return mean, math.sqrt(max(variance, 0.0))


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

    pairs = sorted(zip(diffs, weights), key=lambda dw: (dw[1].case_id, dw[0], dw[1].weight))
    weighted = [w.weight * d for d, w in pairs]
    observed = math.fsum(weighted)

    n = len(weighted)
    hits = 0
    for i in range(iterations):
        rng = random.Random((seed << 32) + i)
        bits = rng.getrandbits(n)
        stat = math.fsum(v if bits >> k & 1 else -v for k, v in enumerate(weighted))
        if stat >= observed:
            hits += 1
    return (1 + hits) / (1 + iterations)


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
        raise ValueError(f"gold source must be 'descriptive' or 'informed', got {gold_source!r}")
    if not methods:
        raise ValueError("no methods configured")
    for m in methods:
        if m not in EVAL_METHODS:
            raise ValueError(f"unknown method '{m}'")
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate methods configured")
    ordered_methods = [m for m in EVAL_METHODS if m in methods]
    needed_dists = [d for d in DISTRIBUTION_METHODS if d in {_distribution_method(m) for m in ordered_methods}]

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
        failure = None
        for dist_method in needed_dists:
            try:
                per_case[dist_method] = _INFERENCE[dist_method](kb, case.observations)
            except InferenceError as exc:
                failure = Exclusion(case.id, f"{dist_method}: {type(exc).__name__}")
                break
        if failure is not None:
            exclusions.append(failure)
        else:
            distributions[case.id] = per_case
            included.append(case)
    if not included:
        raise ValidationError(["no cases remain after exclusions"])

    weights = case_weights(included, kb)
    both_golds = all(c.gold_descriptive is not None and c.gold_informed is not None for c in included)
    other_source = "descriptive" if gold_source == "informed" else "informed"

    gold_ratings: list[float] = []
    gold_dx: dict[str, Diagnosis] = {}
    per_method_ratings: dict[str, list[RatingPair]] = {m: [] for m in ordered_methods}
    per_method_agree: dict[str, int] = {m: 0 for m in ordered_methods}
    other_gold_pairs: list[RatingPair] = []

    for case in included:
        p_gold = case.gold(gold_source)
        dx_gold = meu_diagnosis(p_gold, utilities, kb)
        r_gold = expected_disutility(p_gold, utilities, dx_gold, kb)
        gold_dx[case.id] = dx_gold
        gold_ratings.append(r_gold)

        for method in ordered_methods:
            dist = distributions[case.id][_distribution_method(method)]
            if method == "simple_bayes_meu":
                dx = meu_diagnosis(dist, utilities, kb)
            else:
                dx = max_belief_diagnosis(dist)
            r = expected_disutility(p_gold, utilities, dx, kb)
            per_method_ratings[method].append(RatingPair(r_method=r, r_gold=r_gold))
            if dx.disease == dx_gold.disease:
                per_method_agree[method] += 1

        if both_golds:
            dx_other = meu_diagnosis(case.gold(other_source), utilities, kb)
            r_other = expected_disutility(p_gold, utilities, dx_other, kb)
            other_gold_pairs.append(RatingPair(r_method=r_other, r_gold=r_gold))

    n_cases = len(included)
    gold_mean, _ = weighted_mean_sd(gold_ratings, weights)
    decision_rows = [DecisionRow(label=GOLD_ROW_LABELS[gold_source], absolute_mean=gold_mean)]
    method_diffs: dict[str, list[float]] = {}
    for method in ordered_methods:
        pairs = per_method_ratings[method]
        absolute, _ = weighted_mean_sd([p.r_method for p in pairs], weights)
        diffs = [p.diff for p in pairs]
        method_diffs[method] = diffs
        diff_mean, diff_sd = weighted_mean_sd(diffs, weights)
        decision_rows.append(
            DecisionRow(
                label=METHOD_LABELS[method],
                absolute_mean=absolute,
                diff_mean=diff_mean,
                diff_sd=diff_sd,
                agreement=(per_method_agree[method], n_cases),
            )
        )

    gold_rows: tuple[DecisionRow, ...] = ()
    if both_golds:
        other_mean, _ = weighted_mean_sd([p.r_method for p in other_gold_pairs], weights)
        other_diff_mean, other_diff_sd = weighted_mean_sd([p.diff for p in other_gold_pairs], weights)
        gold_rows = (
            DecisionRow(label=GOLD_PAIR_LABELS[gold_source], absolute_mean=gold_mean),
            DecisionRow(
                label=GOLD_PAIR_LABELS[other_source],
                absolute_mean=other_mean,
                diff_mean=other_diff_mean,
                diff_sd=other_diff_sd,
            ),
        )

    rated_dists = [d for d in DISTRIBUTION_METHODS if d in needed_dists]
    any_ratings = any(case.expert_ratings for case in included)
    expert_rows: list[ExpertRow] = []
    expert_means: dict[str, float] = {}
    if any_ratings:
        summary = expert_rating_summary(included, weights, rated_dists)
        for method in rated_dists:
            mean, sd = summary[method]
            expert_means[method] = mean
            expert_rows.append(ExpertRow(label=METHOD_LABELS[method], mean=mean, sd=sd))

    significance: list[SignificanceResult] = []
    for idx_a in range(len(ordered_methods)):
        for idx_b in range(idx_a + 1, len(ordered_methods)):
            first, second = ordered_methods[idx_a], ordered_methods[idx_b]
            paired = [da - db for da, db in zip(method_diffs[first], method_diffs[second])]
            observed = math.fsum(w.weight * d for w, d in zip(weights, paired))
            if observed < 0.0:
                first, second = second, first
                paired = [-d for d in paired]
                observed = -observed
            asl = permutation_test(paired, weights, iterations, seed)
            significance.append(
                SignificanceResult(
                    comparison=f"{METHOD_LABELS[first]} vs {METHOD_LABELS[second]}",
                    test="monte_carlo_permutation",
                    statistic=observed,
                    asl=asl,
                    seed=seed,
                    iterations=iterations,
                )
            )
    if expert_rows:
        for idx_a in range(len(rated_dists)):
            for idx_b in range(idx_a + 1, len(rated_dists)):
                first, second = rated_dists[idx_a], rated_dists[idx_b]
                # Higher ratings are better; test whether the better-rated
                # method is stochastically larger.
                if expert_means[second] > expert_means[first]:
                    first, second = second, first
                a = [c.expert_ratings[first] for c in included]
                b = [c.expert_ratings[second] for c in included]
                statistic, asl = _rank_sum_test(a, b)
                significance.append(
                    SignificanceResult(
                        comparison=f"{METHOD_LABELS[first]} vs {METHOD_LABELS[second]}",
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
