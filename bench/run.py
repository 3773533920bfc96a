"""Benchmark of the uncertain-dx command-line tool, stdlib only.

Runs one closed-loop workload of in-process ``uncertain_dx.cli.main``
commands from a single client, checks every output, and prints the
metrics by name and unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.

Run from the root of a checkout:

    python3 bench/run.py --workload study-eval --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke     # every workload at a tiny size, both modes

Workloads: fixture-eval, study-eval, wide-infer, probe (see
``workloads.py``).  Generated inputs and span files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/uncertain_dx/cli.py", "tests/support.py", "tests/data/golden_report.tsv")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fixture-eval", "study-eval", "wide-infer", "probe"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at a tiny size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"bench: {ROOT} is not an uncertain-dx checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.smoke:
        return smoke(harness)
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result.lines + [f"FAILED {e}" for e in result.errors]))
    print(json.dumps(result.summary()))
    return 0


def smoke(harness) -> int:
    """Every workload in both modes at a tiny size; exit 1 if any check fails."""
    ok = True
    for name in harness.WORKLOADS:
        for trace in (False, True):
            work = ROOT / ".bench_work" / "smoke" / f"{name}-{int(trace)}"
            result = harness.run_workload(name, 1, 0.0, trace, smoke=True, work=work)
            ok &= result.correct
            print(f"{name} trace {int(trace)}: " + json.dumps(result.summary()))
            for error in result.errors:
                print(f"FAILED {error}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
