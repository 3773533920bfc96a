"""Diagnostic inference with three uncertainty calculi over one knowledge base,
plus a micromort-denominated evaluation workbench."""

from .decision import (
    Diagnosis,
    MicromortQuote,
    UtilityMatrix,
    expand_utilities,
    load_utilities,
    max_belief_diagnosis,
    meu_diagnosis,
    offdiagonal_adjust,
    wtp_to_micromorts,
)
from .engine import (
    barnett_combine,
    cf_parallel_combine,
    evoking_strength,
    marginal,
    naive_dempster_shafer,
    negation_conditional,
    odds_likelihood,
    simple_bayes,
)
from .evaluation import (
    CaseWeight,
    EvaluationReport,
    RatingPair,
    case_weights,
    evaluate_methods,
    expected_disutility,
    expert_rating_summary,
    permutation_test,
    weighted_mean_sd,
    wilcoxon_rank_test,
)
from .kb import (
    BeliefDistribution,
    CaseRecord,
    ConditionalTable,
    Disease,
    Feature,
    KnowledgeBase,
    Observation,
    cross_product_feature,
    load_cases,
    load_kb,
    serialize_kb,
    validate_kb,
)
from .synth import (
    ProbePoint,
    ReplicatedEvidenceSpec,
    brute_force_posterior,
    convergence_probe,
    probe_tsv,
    replicate_evidence_kb,
)

__version__ = "0.1.0"
