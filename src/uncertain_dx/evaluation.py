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
import operator
import random
from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import combinations, compress, groupby
from typing import Collection, Sequence

from . import engine
from .decision import (
    UtilityMatrix,
    _meu_pricer,
    max_belief_diagnosis,
    meu_diagnosis,  # unused here; bench/spans.py patches evaluation.meu_diagnosis by name
)
from .errors import (
    InferenceError,
    MissingGoldStandard,
    MissingRatings,
    MissingTrueDiagnosis,
    UnknownDisease,
    ValidationError,
)
from .kb import CALCULI, GOLD_SOURCES, PROB_SUM_TOL, BeliefDistribution, CaseRecord, KnowledgeBase, _exact_integers

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

_INFERENCE = {name: getattr(engine, name) for name in CALCULI}
# The fewest and the most Monte Carlo iterations a permutation test, and so an evaluation, may run.
MIN_ITERATIONS = 1000
MAX_ITERATIONS = 1_000_000
# Maps a lane's top byte to 1 when its top bit is set, else to 0.
_TOP_BIT = bytes(128) + b"\x01" * 128


def _check_iterations(iterations: int) -> None:
    if iterations < MIN_ITERATIONS:
        raise ValueError(f"iterations must be at least {MIN_ITERATIONS}, got {iterations}")
    if iterations > MAX_ITERATIONS:
        raise ValueError(f"iterations must be at most {MAX_ITERATIONS}, got {iterations}")


def check_methods(methods: Sequence[str], allowed: Collection[str]) -> None:
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
GOLD_ROW_LABELS = {source: f"{source.capitalize()} gold standard" for source in GOLD_SOURCES}
GOLD_PAIR_LABELS = {source: label.title() for source, label in GOLD_ROW_LABELS.items()}


@dataclass(frozen=True)
class CaseWeight:
    case_id: str
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight for '{self.case_id}' outside [0, 1]: {self.weight!r}")


# Column names of each report section, in report order: the TSV header
# rows, the JSON keys, the ``evaluate`` help text and the fields of the
# section's row type.
REPORT_COLUMNS = {
    "decision_theoretic": ("row", "absolute_mean_micromorts", "diff_mean", "diff_sd", "gold_agreement"),
    "gold_standards": ("row", "absolute_mean_micromorts", "diff_mean", "diff_sd"),
    "expert_ratings": ("method", "mean", "sd"),
    "significance": ("comparison", "test", "statistic", "asl", "seed", "iterations"),
    "exclusions": ("case", "reason"),
}

# Each section's row type: a named tuple of its columns, so a row is the
# values it prints, and a value left out is None, printed as missing.
DecisionRow = namedtuple("DecisionRow", REPORT_COLUMNS["decision_theoretic"], defaults=(None,) * 3)
GoldRow = namedtuple("GoldRow", REPORT_COLUMNS["gold_standards"], defaults=(None,) * 2)
ExpertRow = namedtuple("ExpertRow", REPORT_COLUMNS["expert_ratings"])
SignificanceResult = namedtuple("SignificanceResult", REPORT_COLUMNS["significance"], defaults=(None,) * 2)
Exclusion = namedtuple("Exclusion", REPORT_COLUMNS["exclusions"])

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
    gold_rows: tuple[GoldRow, ...]
    expert_rows: tuple[ExpertRow, ...]
    significance: tuple[SignificanceResult, ...]
    exclusions: tuple[Exclusion, ...]
    seed: int
    iterations: int

    def _sections(self) -> list[tuple[str, tuple[str, ...], tuple[tuple, ...]]]:
        """(section name, column names, rows) in report order."""
        rows = {
            "decision_theoretic": self.decision_rows,
            "gold_standards": self.gold_rows,
            "expert_ratings": self.expert_rows,
            "significance": self.significance,
            "exclusions": self.exclusions,
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
    """Expected micromort loss of diagnosing ``disease`` under the gold distribution, priced by the MEU rule."""
    if disease not in kb.disease_index:
        raise UnknownDisease(f"unknown diagnosis '{disease}'")
    return _meu_pricer(utilities, kb)(p_gold)[1][utilities.expansion[disease]]


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
    # by 2**-600 and the result back. Squares are products, which round correctly
    # (libm's pow need not), so barring underflow the scaling changes no rounding.
    shift = 600 if max(abs(v - mean) for v in values) >= 2.0**511 else 0
    deviations = (math.ldexp(v - mean, -shift) for v in values)
    variance = math.fsum(w.weight * (d * d) for d, w in zip(deviations, weights))
    return mean, math.ldexp(math.sqrt(variance), shift)


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
    (``_flip_threshold``), as summing each flip would.  Each distinct draw
    is scored once and counts as often as it was drawn (``_flip_patterns``).
    Every draw's sum of the terms, shifted right until their range fits in 60
    bits, sits in its own lane of one int (``_high_sum_lanes``); only draws that
    the dropped low bits could decide, none when none drop, are scored exactly
    (``_exact_hits``).

    Deterministic for a seed: each iteration's RNG stream depends only on
    (seed, iteration), and sorting by case id makes pair order irrelevant.
    """
    if not diffs:
        raise ValueError("empty sample")
    if len(diffs) != len(weights):
        raise ValueError(f"{len(diffs)} diffs but {len(weights)} weights")
    _check_iterations(iterations)
    if not all(map(math.isfinite, diffs)):
        raise ValueError("differences must be finite")

    pairs = sorted(zip(diffs, weights), key=lambda dw: (dw[1].case_id, dw[0], dw[1].weight))
    weighted = [w.weight * d for d, w in pairs]
    terms, threshold = _flip_threshold(weighted, math.fsum(weighted))
    total, lo = sum(terms), sum(a for a in terms if a < 0)
    if threshold <= lo:
        return 1.0  # even the smallest flipped sum hits, so every draw does
    columns, counts = _flip_patterns(len(weighted), iterations, seed)
    shift = max(0, (total - 2 * lo).bit_length() - 60)
    highs = [a >> shift for a in terms]
    bound = -(-threshold >> shift)  # high parts summing to this hit whatever the low parts add
    lanes = _high_sum_lanes(highs, columns, 2**63 - bound)
    sure = lanes[7::8].translate(_TOP_BIT)
    hits = sum(compress(counts, sure))
    # High parts under bound - slack miss even with every low part (each >= 0) added, so a draw may
    # yet hit only if its lane is in [2**63 - slack, 2**63): bit 63 clear, bits 8c to 62 set.
    slack = bound + ((total - (sum(highs) << shift) - threshold) >> shift)
    if slack and (2**63 - 1).to_bytes(8, "little")[(slack.bit_length() + 7) // 8 :] in lanes:
        maybe = _high_sum_lanes(highs, columns, 2**63 - bound + slack)[7::8].translate(_TOP_BIT)
        hits += _exact_hits(terms, threshold, columns, counts, bytes(map(operator.sub, maybe, sure)))
    return (1 + hits) / (1 + iterations)


def _flip_threshold(weighted: Sequence[float], observed: float) -> tuple[list[int], int]:
    """(terms, threshold) such that a sign-flip bit pattern is a hit,
    ``math.fsum(flipped) >= observed``, exactly when the terms its set bits
    select sum to at least the threshold.

    Each term is an exact integer a_k over one power-of-two denominator D,
    so a flip's exact sum is S / D with S = 2U - T, where T sums every a_k
    and U those whose bit is set.  ``math.fsum`` rounds S / D correctly and
    rounding is monotone, so the hit test is S / D >= m, where m is the
    midpoint between ``observed`` and the float below it; at m itself
    round-half-even rounds to ``observed`` only when its last significand
    bit is 0.  Unflipped, U = T, so the threshold is at most T.
    """
    terms, denominator = _exact_integers(weighted)

    below = math.nextafter(observed, -math.inf)
    # Below the most negative float, rounding behaves as if the next value were -2**1024.
    (p, q), (r, t) = observed.as_integer_ratio(), below.as_integer_ratio() if below > -math.inf else (-(2**1024), 1)
    numerator, scale = (p * t + r * q) * denominator, 2 * q * t  # m * D = numerator / scale
    tie_rounds_up = int(observed / math.ulp(observed)) % 2 == 0
    s_min = -(-numerator // scale) if tie_rounds_up else numerator // scale + 1
    # 2U - T >= s_min  <=>  U >= ceil((s_min + T) / 2)
    return terms, -(-(s_min + sum(terms)) // 2)


def _high_sum_lanes(highs: Sequence[int], columns: Sequence[bytes], lift: int) -> bytes:
    """Bytes of one int whose 8-byte lane k, in [0, 2**64), is lift + the ``highs`` draw k selects.
    Each later column's 256 partial sums less its negative terms, so that none is negative, and the
    first column's plus the lift and the later columns' negative terms, are packed into one int each
    by doubling; eight ``bytes.translate`` calls lay byte m of each draw's entry into byte m of its
    lane, and the columns' ints add up to the lanes."""
    lanes = bytearray(8 * len(columns[0]))
    packed, base = 0, lift + sum(h for h in highs if h < 0)
    for start, column in zip(range(0, len(highs), 8), columns):
        table, ones, base = base - sum(h for h in highs[start : start + 8] if h < 0), 1, 0
        for i, h in enumerate(highs[start : start + 8]):
            table += (table + h * ones) << (64 << i)
            ones += ones << (64 << i)
        entries = table.to_bytes(2048, "little")
        for m in range(8):
            lanes[m::8] = column.translate(entries[m::8])
        packed += int.from_bytes(lanes, "little")
    return packed.to_bytes(len(lanes), "little")


def _exact_hits(
    terms: Sequence[int], threshold: int, columns: Sequence[bytes], counts: Sequence[int], unsure: bytes
) -> int:
    """The summed counts of the draws flagged ``unsure`` whose bits select ``terms`` summing to at
    least the threshold: per column, one C-level pass adds entries of its 8 terms' table of sums."""
    sums = [0] * unsure.count(1)
    for start, column in zip(range(0, len(terms), 8), columns):
        table = [0]
        for a in terms[start : start + 8]:
            table += [u + a for u in table]
        sums = list(map(operator.add, sums, map(table.__getitem__, compress(column, unsure))))
    return sum(compress(compress(counts, unsure), map(threshold.__le__, sums)))


@functools.lru_cache(maxsize=1)
def _flip_patterns(n: int, iterations: int, seed: int) -> tuple[tuple[bytes, ...], tuple[int, ...]]:
    """Each distinct sign-flip draw once, in the order first drawn, as ceil(n / 8) byte
    columns (byte k of column j is byte j, little-endian, of draw k), and how many
    iterations drew it.  Iteration i draws ``getrandbits(n)`` from the RNG seeded
    (seed << 32) + i, so all pair tests of one evaluation share one draw."""
    counts = Counter(random.Random((seed << 32) + i).getrandbits(n) for i in range(iterations))
    width = (n + 7) // 8
    patterns = b"".join(bits.to_bytes(width, "little") for bits in counts)
    return tuple(patterns[j::width] for j in range(width)), tuple(counts.values())


def _midranks(pooled: Sequence[float]) -> tuple[list[float], float]:
    """(1-based midranks, tie term sum of t^3 - t over tie groups)."""
    ranks = [0.0] * len(pooled)
    tie_sum, start = 0.0, 0
    for _, group in groupby(sorted(range(len(pooled)), key=pooled.__getitem__), key=pooled.__getitem__):
        tied = list(group)
        t = len(tied)
        for i in tied:
            ranks[i] = start + (t + 1) / 2  # the average of the 1-based ranks start + 1 .. start + t
        tie_sum += t**3 - t
        start += t
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
    return w, 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))  # 1 - NormalDist().cdf(z), bit for bit


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


def _rating_pass(
    kb: KnowledgeBase, utilities: UtilityMatrix, gold_source: str, inferred: Sequence, rules: dict[str, tuple]
) -> tuple[list[float], dict[str, list[float]], dict[str, int]]:
    """(gold ratings, each row's ratings, each row's agreement count) over the inferred cases.

    One MEU pricer, built once, decides the gold diagnosis and each MEU row's, and prices every
    class under each case's gold distribution, so each rating is a lookup of the diagnosis's class.
    """
    meu = _meu_pricer(utilities, kb)
    gold_ratings: list[float] = []
    ratings: dict[str, list[float]] = {row: [] for row in rules}
    agreement = dict.fromkeys(rules, 0)
    for case, dists in inferred:
        dx_gold, gold_prices = meu(case.gold(gold_source))
        gold_ratings.append(gold_prices[utilities.expansion[dx_gold]])
        for row, (source, uses_meu) in rules.items():
            dx = meu(dists[source])[0] if uses_meu else max_belief_diagnosis(dists[source])
            ratings[row].append(gold_prices[utilities.expansion[dx]])
            agreement[row] += dx == dx_gold
    return gold_ratings, ratings, agreement


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

    Two passes over the cases sorted by id.  The inference pass runs every
    needed calculus on every case; a case on which one fails is excluded
    from the whole study and listed in the report.  The rating pass then
    picks each rated row's diagnosis (highest belief, or minimum expected
    disutility for ``simple_bayes_meu`` and for the other gold standard),
    prices it under the gold distribution, and compares it with the gold
    diagnosis, all from one MEU pricer built per evaluation (the gold's
    prices once per case).
    Aggregation is a deterministic reduce in that case order.
    """
    if gold_source not in GOLD_SOURCES:
        names = " or ".join(f"'{source}'" for source in GOLD_SOURCES)
        raise ValueError(f"gold source must be {names}, got {gold_source!r}")
    check_methods(methods, METHODS)
    _check_iterations(iterations)
    ordered_methods = [m for m in METHODS if m in methods]
    needed_calculi = [c for c in CALCULI if any(METHODS[m][1] == c for m in ordered_methods)]

    ordered_cases = sorted(cases, key=lambda c: c.id)
    for case in ordered_cases:
        if case.gold(gold_source) is None:
            raise MissingGoldStandard(f"case '{case.id}' has no {gold_source} gold distribution")

    # Inference pass: each included case with a distribution per calculus and its other gold.
    other_source = next(source for source in GOLD_SOURCES if source != gold_source)
    inferred: list[tuple[CaseRecord, dict[str, BeliefDistribution | None]]] = []
    exclusions: list[Exclusion] = []
    for case in ordered_cases:
        dists = {other_source: case.gold(other_source)}
        for calculus in needed_calculi:
            try:
                dists[calculus] = _INFERENCE[calculus](kb, case.observations)
            except InferenceError as exc:
                exclusions.append(Exclusion(case.id, f"{calculus}: {type(exc).__name__}"))
                break
        else:
            inferred.append((case, dists))
    if not inferred:
        raise ValidationError(["no cases remain after exclusions"])

    included = [case for case, _ in inferred]
    weights = case_weights(included, kb)

    # Rating pass: each rated row's distribution and whether it diagnoses by MEU; the other
    # gold standard is rated like one more method when every included case has it.
    rules = {m: METHODS[m][1:] for m in ordered_methods}
    if all(dists[other_source] is not None for _, dists in inferred):
        rules[other_source] = (other_source, True)
    gold_ratings, ratings, agreement = _rating_pass(kb, utilities, gold_source, inferred, rules)
    diffs = {row: [r - g for r, g in zip(rated, gold_ratings)] for row, rated in ratings.items()}

    def means(row: str) -> tuple[float, float, float]:
        """(absolute mean, diff mean, diff sd) of one rated row."""
        return (weighted_mean_sd(ratings[row], weights)[0], *weighted_mean_sd(diffs[row], weights))

    n_cases = len(included)
    gold_mean, _ = weighted_mean_sd(gold_ratings, weights)
    decision_rows = [DecisionRow(GOLD_ROW_LABELS[gold_source], gold_mean)]
    for m in ordered_methods:
        decision_rows.append(DecisionRow(METHODS[m][0], *means(m), f"{agreement[m]} of {n_cases}"))

    gold_rows = (
        GoldRow(GOLD_PAIR_LABELS[gold_source], gold_mean),
        GoldRow(GOLD_PAIR_LABELS[other_source], *means(other_source)),
    ) if other_source in rules else ()

    summary: dict[str, tuple[float, float]] = {}
    if any(case.expert_ratings for case in included):
        summary = expert_rating_summary(included, weights, needed_calculi)
    expert_rows = [ExpertRow(METHODS[m][0], *summary[m]) for m in summary]

    significance: list[SignificanceResult] = []
    for first, second in combinations(ordered_methods, 2):
        paired = [da - db for da, db in zip(diffs[first], diffs[second])]
        observed = math.fsum(w.weight * d for w, d in zip(weights, paired))
        if observed < 0.0:
            first, second = second, first
            paired = [-d for d in paired]
            observed = -observed
        comparison = f"{METHODS[first][0]} vs {METHODS[second][0]}"
        asl = permutation_test(paired, weights, iterations, seed)
        significance.append(
            SignificanceResult(comparison, "monte_carlo_permutation", observed, asl, seed, iterations)
        )
    for first, second in combinations(summary, 2):
        # Higher ratings are better; test whether the better-rated
        # method is stochastically larger.
        if summary[second][0] > summary[first][0]:
            first, second = second, first
        a = [c.expert_ratings[first] for c in included]
        b = [c.expert_ratings[second] for c in included]
        comparison = f"{METHODS[first][0]} vs {METHODS[second][0]}"
        significance.append(SignificanceResult(comparison, "wilcoxon_rank_sum", *_rank_sum_test(a, b)))

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
