"""Run one workload, check its outputs and compute its metrics.

Untraced runs (``trace=False``) give the end-to-end metrics: the set-up
time, the latency of the fastest command, and the peak resident memory of
this process; the median and tail latency are printed beside them.
Traced runs give the per-layer metrics: every command runs untraced and
then once in each of two passes with spans installed; they report the
layer times of the traced passes, the tracing overhead, and whether the
exact counts repeated.

Every command's output is checked after the timed loop; a command fails
when it exits non-zero, writes to stderr, or its output fails its check.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import spans
import uncertain_dx
from uncertain_dx import cli
from workloads import ROOT, WORKLOADS, Plan

SRC = ROOT / "src"
# A run makes at least this many commands, however short its time box.
MIN_COMMANDS = 3
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

# The gated latency is that of the run's fastest command.  On a shared host
# whose speed drifts by up to 2x over stretches lasting from under a second
# to minutes, the median and the tail of a run follow which stretches the
# run happened to see.  The fastest command ran in the host's quietest
# moment, which nearly every run reaches when one command is short (see
# README.md), so it is the steadiest measure of the work a command costs.
# The median and the tail are printed beside it.
END_TO_END = (
    spans.Metric("command_ms_min", "ms"),
    spans.Metric("setup_s", "s"),
    spans.Metric("peak_rss_mb", "MB"),
)

# The workload-specific names of the command latency.
ALIASES = {
    "fixture-eval": ("evaluate_s", None),
    "study-eval": ("evaluate_s", None),
    "wide-infer": ("infer_ms_p50", "infer_ms_tail"),
    "probe": ("probe_s", None),
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process ``uncertain-dx`` command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a user would see a traceback and exit status 1
        err.write(traceback.format_exc())
        code = 1
    return code, out.getvalue(), err.getvalue()


@dataclass
class Tally:
    # (command index, exit code, stdout, stderr) -> times seen
    outcomes: Counter = field(default_factory=Counter)
    latencies_ns: list[int] = field(default_factory=list)

    def run(self, plan: Plan, index: int) -> None:
        """Run command ``index`` of the plan (cycling) and record it."""
        index %= len(plan.commands)
        t0 = time.perf_counter_ns()
        outcome = run_cli(plan.commands[index].argv)
        self.latencies_ns.append(time.perf_counter_ns() - t0)
        self.outcomes[(index, *outcome)] += 1


def drive(plan: Plan, seconds: float, setups_ns: list[int]) -> Tally:
    """Closed loop over the plan's commands, as many as start within
    ``seconds`` but at least MIN_COMMANDS.

    A timed set-up precedes every command, so set-up and commands sample
    the same stretch of host speed, which drifts on a shared machine.
    """
    tally = Tally()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while i < MIN_COMMANDS or time.perf_counter_ns() < deadline:
        t0 = time.perf_counter_ns()
        plan.setup()
        setups_ns.append(time.perf_counter_ns() - t0)
        tally.run(plan, i)
        i += 1
    return tally


def check(plan: Plan, outcomes: Counter) -> tuple[int, list[str]]:
    """(failed commands, one note per distinct failure)."""
    failed, notes = 0, []
    for (index, code, out, err), times in outcomes.items():
        command = plan.commands[index] if index >= 0 else plan.extra[-1 - index]
        if code != 0 or err:
            problem = f"exit {code}: {err.strip()[-300:]}"
        else:
            try:
                problem = command.check(out)
            except Exception as exc:  # unparseable output is a failed check
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failed += times
            notes.append(f"{command.argv[0]} command {index}: {problem}")
    return failed, notes


def run_extra(plan: Plan) -> Counter:
    """Run the plan's extra commands once each; they are keyed by negative index."""
    return Counter((-1 - i, *run_cli(command.argv)) for i, command in enumerate(plan.extra))


def tail(latencies_ns: list[int]) -> tuple[float, float, int]:
    """(value ns, percentile, samples beyond it).

    The highest percentile with TAIL_BEYOND samples beyond it; with fewer
    than twice that many samples such a percentile would not lie above
    the median, so the maximum stands in.
    """
    ordered = sorted(latencies_ns)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def calibrate() -> float:
    """Seconds for a fixed stdlib loop; tracks host speed, never rescales a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i % 7
    return time.perf_counter() - start


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "uncertain_dx").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata() -> list[str]:
    return [
        f"python {platform.python_version()} ({platform.python_implementation()})",
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"platform {platform.platform()}",
        "loadavg " + " ".join(f"{x:.2f}" for x in os.getloadavg()),
        f"package uncertain-dx {uncertain_dx.__version__}",
        f"commit {git_commit()}",
        f"source_sha256 {source_sha256()}",
    ]


def import_seconds(repeats: int = 3) -> float:
    """Median time to import ``uncertain_dx.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import uncertain_dx.cli; print(time.perf_counter() - t)"
    )
    times = [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]
    errors: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        }


def _end_to_end(name: str, plan: Plan, seconds: float) -> tuple[Tally, dict, list[str]]:
    setups: list[int] = []
    tally = drive(plan, seconds, setups)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50_ms = statistics.median(tally.latencies_ns) / 1e6
    tail_ns, pct, beyond = tail(tally.latencies_ns)
    min_ms = min(tally.latencies_ns) / 1e6
    metrics = {
        "command_ms_min": (min_ms, "ms"),
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    n = len(tally.latencies_ns)
    lines = [
        f"setup_s {metrics['setup_s'][0]:.6f} s (median of {len(setups)} set-ups)",
        f"command_ms_min {min_ms:.3f} ms (fastest of {n} commands)",
        f"command_ms_p50 {p50_ms:.3f} ms (median of {n} commands)",
        f"command_ms_tail {tail_ns / 1e6:.3f} ms (p{pct:.1f} of {n} commands, {beyond} beyond)",
        f"peak_rss_mb {peak_mb:.1f} MB",
    ]
    p50_name, tail_name = ALIASES[name]
    if p50_name.endswith("_s"):
        lines.append(f"{p50_name} {p50_ms / 1e3:.4f} s")
    else:
        lines.append(f"{p50_name} {p50_ms:.3f} ms")
    if tail_name:
        lines.append(f"{tail_name} {tail_ns / 1e6:.3f} ms (p{pct:.1f}, {beyond} of {n} samples beyond)")
    return tally, metrics, lines


def _per_layer(
    plan: Plan, seconds: float, smoke: bool, work: Path
) -> tuple[list[Tally], dict, list[str], list[str]]:
    # A fixed command count keeps the exact counts the same from run to run.
    count = 2 if smoke else max(1, round(seconds / (3 * plan.nominal_s)))
    untraced = Tally()
    passes = [(Tally(), spans.Tracer()) for _ in range(2)]
    # Each command runs untraced, then in each traced pass, so a drift in
    # host speed moves all three alike and cancels out of the overhead.
    for i in range(count):
        untraced.run(plan, i)
        for tally, tracer in passes:
            spans.install(tracer)
            try:
                tally.run(plan, i)
            finally:
                tracer.restore()
    spans.write(work / "spans.jsonl", [tracer.spans for _, tracer in passes])

    m1, m2 = (spans.layer_metrics(tracer.spans, tracer.counters) for _, tracer in passes)
    errors = [
        f"count {name} differs between traced passes: {m1[name]} then {m2[name]}"
        for name in spans.EXACT_COUNTS
        if m1[name] != m2[name]
    ]
    # Counts come from the first pass; times are the mean of both.
    metrics = {
        m.name: (m1[m.name] if m.unit == "count" else (m1[m.name] + m2[m.name]) / 2, m.unit)
        for m in spans.PER_LAYER
        if m.name in m1
    }
    walls = [sum(t.latencies_ns) / 1e9 for t in (untraced, passes[0][0], passes[1][0])]
    metrics["trace.overhead_s"] = (walls[1] + walls[2]) / 2 - walls[0], "s"
    metrics["cli.import_s"] = import_seconds(1 if smoke else 3), "s"
    lines = [
        f"traced run: {count} commands each untraced ({walls[0]:.4f} s) "
        f"and in two traced passes ({walls[1]:.4f} s, {walls[2]:.4f} s)",
        f"exact counts {'repeat' if not errors else 'DIFFER'} between the two traced passes",
    ]
    return [untraced] + [tally for tally, _ in passes], metrics, lines, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
                 work: Path | None = None) -> Result:
    work = work or ROOT / ".bench_work" / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    calibration = [calibrate()]
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"
             + (" smoke" if smoke else "")] + metadata()
    plan = WORKLOADS[name](seed, smoke, work)
    lines += [f"input {file} sha256 {digest}" for file, digest in plan.inputs.items()]

    errors: list[str] = []
    if trace:
        tallies, metrics, extra_lines, errors = _per_layer(plan, seconds, smoke, work)
    else:
        tally, metrics, extra_lines = _end_to_end(name, plan, seconds)
        tallies = [tally]
    lines += extra_lines

    outcomes = sum((t.outcomes for t in tallies), Counter()) + run_extra(plan)
    attempted = sum(outcomes.values())
    failed, notes = check(plan, outcomes)
    lines.append(f"fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} commands failed)")
    calibration.append(calibrate())
    lines.append(f"host.calibration_s start {calibration[0]:.6f} end {calibration[1]:.6f}")
    if trace:
        metrics["host.calibration_s"] = statistics.mean(calibration), "s"
        order = [m.name for m in spans.PER_LAYER]
        metrics = {k: metrics[k] for k in order}
        lines += [f"{k} {v!r} {u}" for k, (v, u) in metrics.items()]
    return Result(attempted, failed, metrics, lines, notes + errors)
