"""In-memory span tracing installed from the benchmark's own files.

``install`` wraps the module attributes through which the program calls
each of its layers (kb, engine, decision, evaluation, synth and cli), so
no file of the program changes.  Every span records its name, start,
end, parent span and a run id shared by the spans of one command; a new
run starts whenever a span opens with no span open.  Wrappers re-raise
exactly what the wrapped function raised and mark the span failed, so
error paths such as case exclusion behave as without tracing.

``layer_metrics`` turns the spans and counters of one traced pass into
the per-layer metrics.  Times named ``*_s`` are inclusive busy time,
``*_self_s`` subtract the time covered by child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from generate import CALCULI

CountHook = Callable[[tuple, object], dict[str, int]]


@dataclass(slots=True)
class Span:
    name: str
    run: int
    parent: int | None
    start: int = 0
    end: int = 0
    failed: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None) -> Callable:
        """``fn`` recording one span per call; ``count(args, result)`` adds to
        the counters, with ``result`` None when the call raised."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                self.run += 1
            span = Span(name, self.run, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
                if count is not None:
                    self.counters.update(count(args, result))

        return traced

    def patch(self, target, key: str, name: str, count: CountHook | None = None) -> None:
        """Replace ``target.key`` (or ``target[key]`` for a dict) with a traced wrapper."""
        if isinstance(target, dict):
            original = target[key]
            target[key] = self.wrap(name, original, count)
        else:
            original = getattr(target, key)
            setattr(target, key, self.wrap(name, original, count))
        self._patches.append((target, key, original))

    def restore(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def write(path: Path, passes: list[list[Span]]) -> None:
    """Write the spans of each traced pass as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, pass_spans in enumerate(passes, 1):
            for span in pass_spans:
                fh.write(json.dumps({"pass": number, **asdict(span)}) + "\n")


def _pairs(calculus: str) -> CountHook:
    def count(args, result):
        pairs = len(args[0].diseases) * len(args[1])
        return {f"engine.{calculus}_pairs": pairs, "engine.disease_obs_pairs": pairs}

    return count


def _entries(args, result):
    return {"kb.conditional_entries": len(args[0].conditionals.entries)}


def _flips(args, result):
    return {"evaluation.sign_flips": args[2] * len(args[0])}


def _cases(args, result):
    counts = {"evaluation.cases": len(args[1])}
    if result is not None:
        counts["evaluation.excluded_cases"] = len(result.exclusions)
    return counts


WEIGHTING = ("case_weights", "weighted_mean_sd", "expert_rating_summary", "expected_disutility")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the CLI reaches; undo with ``tracer.restore()``."""
    from uncertain_dx import cli, engine, evaluation, kb, synth

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_kb", "kb.load_kb")
    tracer.patch(cli, "load_cases", "kb.load_cases")
    tracer.patch(cli, "load_utilities", "decision.load_utilities")
    # load_kb reaches validate_kb through the kb module's global.
    tracer.patch(kb, "validate_kb", "kb.validate_kb", _entries)
    tracer.patch(synth, "validate_kb", "kb.validate_kb", _entries)
    for calculus in CALCULI:
        for target in (engine, evaluation._INFERENCE, synth):
            tracer.patch(target, calculus, f"engine.{calculus}", _pairs(calculus))
    tracer.patch(evaluation, "evaluate_methods", "evaluation.evaluate_methods", _cases)
    tracer.patch(evaluation, "meu_diagnosis", "decision.meu_diagnosis")
    tracer.patch(evaluation, "max_belief_diagnosis", "decision.max_belief_diagnosis")
    tracer.patch(evaluation, "permutation_test", "evaluation.permutation_test", _flips)
    tracer.patch(evaluation, "_rank_sum_test", "evaluation.rank_test")
    for name in WEIGHTING:
        tracer.patch(evaluation, name, f"evaluation.{name}")
    tracer.patch(evaluation.EvaluationReport, "to_tsv", "evaluation.to_tsv")
    tracer.patch(evaluation.EvaluationReport, "to_json", "evaluation.to_json")
    tracer.patch(synth, "replicate_evidence_kb", "synth.replicate_evidence_kb")
    tracer.patch(synth, "probe_tsv", "synth.probe_tsv")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_pair") or name.endswith("_ns_per_flip"):
        return "ns"
    if name == "trace.coverage":
        return "ratio"
    return "count"


PER_LAYER_NAMES = (
    ["kb.load_kb_s", "kb.validate_kb_s", "kb.load_cases_s", "kb.conditional_entries"]
    + [f"engine.{c}_{m}" for c in CALCULI for m in ("s", "calls", "failed", "ns_per_pair")]
    + ["engine.disease_obs_pairs"]
    + [
        "decision.load_utilities_s",
        "decision.meu_diagnosis_s",
        "decision.meu_diagnosis_calls",
        "decision.max_belief_diagnosis_s",
        "decision.max_belief_diagnosis_calls",
    ]
    + [
        "evaluation.evaluate_methods_self_s",
        "evaluation.permutation_test_s",
        "evaluation.permutation_test_calls",
        "evaluation.sign_flips",
        "evaluation.permutation_ns_per_flip",
        "evaluation.rank_test_s",
        "evaluation.rank_test_calls",
        "evaluation.weighting_s",
        "evaluation.render_s",
        "evaluation.cases",
        "evaluation.excluded_cases",
    ]
    + ["synth.replicate_evidence_kb_s", "synth.kbs_built", "synth.probe_tsv_s"]
    + ["cli.main_self_s", "cli.import_s"]
    + ["trace.overhead_s", "trace.coverage", "trace.commands", "host.calibration_s"]
)
PER_LAYER = tuple(Metric(name, _unit(name)) for name in PER_LAYER_NAMES)

# Every count must repeat exactly between two traced passes of the same commands.
EXACT_COUNTS = tuple(m.name for m in PER_LAYER if m.unit == "count")


def layer_metrics(spans: list[Span], counters: Counter[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Leaves out the metrics that need more than one pass (trace overhead,
    import time, host calibration).
    """
    busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter[str] = Counter()
    failed: Counter[str] = Counter()
    covered = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    group_ns: dict[str, int] = defaultdict(int)
    groups = {f"evaluation.{name}": "weighting" for name in WEIGHTING}
    groups.update({"evaluation.to_tsv": "render", "evaluation.to_json": "render"})
    for index, span in enumerate(spans):
        duration = span.end - span.start
        busy[span.name] += duration
        self_ns[span.name] += duration - covered[index]
        calls[span.name] += 1
        failed[span.name] += span.failed
        group = groups.get(span.name)
        # Count a grouped span once, not again inside another span of its group.
        if group and (span.parent is None or groups.get(spans[span.parent].name) != group):
            group_ns[group] += duration

    def seconds(ns: int) -> float:
        return ns / 1e9

    def per(ns: int, work: int) -> float:
        return ns / work if work else 0.0

    m: dict[str, float] = {
        "kb.load_kb_s": seconds(busy["kb.load_kb"]),
        "kb.validate_kb_s": seconds(busy["kb.validate_kb"]),
        "kb.load_cases_s": seconds(busy["kb.load_cases"]),
        "kb.conditional_entries": counters["kb.conditional_entries"],
    }
    for c in CALCULI:
        name = f"engine.{c}"
        m[f"{name}_s"] = seconds(busy[name])
        m[f"{name}_calls"] = calls[name]
        m[f"{name}_failed"] = failed[name]
        m[f"{name}_ns_per_pair"] = per(busy[name], counters[f"{name}_pairs"])
    m["engine.disease_obs_pairs"] = counters["engine.disease_obs_pairs"]
    m["decision.load_utilities_s"] = seconds(busy["decision.load_utilities"])
    for rule in ("meu_diagnosis", "max_belief_diagnosis"):
        m[f"decision.{rule}_s"] = seconds(busy[f"decision.{rule}"])
        m[f"decision.{rule}_calls"] = calls[f"decision.{rule}"]
    m["evaluation.evaluate_methods_self_s"] = seconds(self_ns["evaluation.evaluate_methods"])
    m["evaluation.permutation_test_s"] = seconds(busy["evaluation.permutation_test"])
    m["evaluation.permutation_test_calls"] = calls["evaluation.permutation_test"]
    m["evaluation.sign_flips"] = counters["evaluation.sign_flips"]
    m["evaluation.permutation_ns_per_flip"] = per(
        busy["evaluation.permutation_test"], counters["evaluation.sign_flips"]
    )
    m["evaluation.rank_test_s"] = seconds(busy["evaluation.rank_test"])
    m["evaluation.rank_test_calls"] = calls["evaluation.rank_test"]
    m["evaluation.weighting_s"] = seconds(group_ns["weighting"])
    m["evaluation.render_s"] = seconds(group_ns["render"])
    m["evaluation.cases"] = counters["evaluation.cases"]
    m["evaluation.excluded_cases"] = counters["evaluation.excluded_cases"]
    m["synth.replicate_evidence_kb_s"] = seconds(busy["synth.replicate_evidence_kb"])
    m["synth.kbs_built"] = calls["synth.replicate_evidence_kb"]
    m["synth.probe_tsv_s"] = seconds(busy["synth.probe_tsv"])
    m["cli.main_self_s"] = seconds(self_ns["cli.main"])
    main_ns = busy["cli.main"]
    m["trace.coverage"] = (main_ns - self_ns["cli.main"]) / main_ns if main_ns else 0.0
    m["trace.commands"] = calls["cli.main"]
    return m
