"""Run one round of one workload in this (fresh) interpreter; print one JSON line.

``run.py`` starts this script once per round with ``PYTHONHASHSEED`` pinned,
so every round sees the same xid sequence, dict order and wire sizes.  It
can also be run by hand from the repository root::

    PYTHONHASHSEED=0 python3 perfbench/worker.py --workload bulk_move --seed 7 --trace 1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402
from tracing import SpanSummary, Tracer  # noqa: E402


def run_round(workload: str, seed: int, trace_path: str | None) -> dict:
    """Run one round; with *trace_path* set, trace it and write its spans there."""
    registry = workloads.Registry()
    registry.install()
    tracer = None
    hooks = workloads.Hooks()
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()

        def begin() -> None:
            tracer.active = True

        def end() -> None:
            tracer.active = False

        hooks = workloads.Hooks(
            sample_phase=False,
            begin=begin,
            end=end,
            on_runtime=lambda runtime: tracer.wrap_idle(runtime._loop._selector),
        )
    result = workloads.RUNNERS[workload](seed, registry, hooks)
    out = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors[:20],
        "setup_cpu_s": result.setup_cpu_s,
        "setup_wall_s": result.setup_wall_s,
        "phase_cpu_s": result.phase_cpu_s,
        "phase_wall_s": result.phase_wall_s,
        "loop_before_s": result.loop_before_s,
        "loop_after_s": result.loop_after_s,
        "loop_samples": result.loop_samples,
        "flows": result.flows,
        "pkts": result.pkts,
        "durations": result.durations,
        "freezes": result.freezes,
        "ctrl_bytes": result.ctrl_bytes,
        "chunks": result.chunks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        summary = SpanSummary(tracer)
        metrics, mismatches = layers.layer_metrics(summary, result)
        out["layers"] = metrics
        out["errors"].extend(mismatches)
        out["hotspots"] = summary.hotspots()
        out["spans"] = len(tracer)
        tracer.write_jsonl(trace_path)
        tracer.uninstall()
    registry.uninstall()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") is None:
        parser.error("PYTHONHASHSEED must be pinned (run through perfbench/run.py)")
    trace_path = None
    if args.trace:
        trace_path = str(ROOT / ".perfbench" / f"{args.workload}-trace.jsonl.gz")
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
    print(json.dumps(run_round(args.workload, args.seed, trace_path)))


if __name__ == "__main__":
    main()
