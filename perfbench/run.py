"""Move-path benchmark: end-to-end and per-layer cost of OpenMB state moves.

Run from the repository root::

    python3 perfbench/run.py --workload bulk_move --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30          # every workload
    python3 perfbench/run.py --workload lossy_reroute_move --trace 1   # per-layer run
    python3 perfbench/run.py --emit-spec > BENCHMARK.json

Each round of a workload runs in a fresh interpreter (``worker.py``) with
``PYTHONHASHSEED`` pinned; rounds repeat until ``--seconds`` would be
exceeded, and at least one round per input sub-seed runs.  Round *i* uses
sub-seed ``i mod SUBSEEDS[workload]`` derived from ``--seed``, so the sim-time and
byte metrics are the median over a fixed set of inputs: exact for a given
seed, whatever the run length.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_METRICS  # noqa: E402
from measure import LOOP_ITERATIONS, NOMINAL_LOOP_S, SAMPLE_ITERATIONS, normalise, percentile  # noqa: E402

WORKLOADS = {
    "bulk_move": "one 50k-flow pre-copy move with an idle data plane: the per-chunk path (codec, channel, southbound, store)",
    "concurrent_moves": "64 concurrent snapshot moves on a 4-shard batching controller: operation state machines and dispatch",
    "lossy_reroute_move": "order-preserving move over lossy control and data planes with 20k live packets: the packet path",
    "realtime_pingpong": "moves back and forth on the asyncio wall-clock runtime: the only workload on RealtimeRuntime",
}

#: Workloads on the deterministic Simulator: their time and byte metrics are exact.
SIMULATED = {"bulk_move", "concurrent_moves", "lossy_reroute_move"}

#: End-to-end metrics: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "flows_per_s": ("1/s", "higher", 0.25),
    "pkts_per_s": ("1/s", "higher", 0.25),
    "move_p50_ms": ("ms", "lower", 0.25),
    "freeze_p50_ms": ("ms", "lower", 0.25),
    "ctrl_kb": ("KB", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: Input sub-seeds per run (the sim-time metrics are their median).  The
#: lossy workload's freeze window depends on where the seeded faults land,
#: so it takes the median of more inputs.
SUBSEEDS = {"bulk_move": 2, "concurrent_moves": 2, "lossy_reroute_move": 3, "realtime_pingpong": 2}

#: One round may not take longer than this many seconds of wall time.
ROUND_TIMEOUT_S = 170

#: Default ``--seconds`` and BENCHMARK.json's ``run_seconds``: long enough for
#: two rounds of the slowest workload on a slow machine.
RUN_SECONDS = 30


class BenchmarkError(Exception):
    """A round could not run or produced no result."""


def subseed(seed: int, index: int) -> int:
    """Input seed of sub-seed *index* of run seed *seed*."""
    return (seed * 1_000_003 + 7919 * index) % (2**31)


def spec() -> dict:
    """The BENCHMARK.json document describing this benchmark."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)} for name, unit in LAYER_METRICS.items()
        ],
    }


def _better(name: str) -> str:
    """Better direction of a per-layer metric: ratios of useful work up, costs down."""
    return "higher" if name.endswith(("delivered_ratio", "useful_ratio", "useful_chunk_ratio")) else "lower"


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    """Run one round in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--trace", "1" if traced else "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} round (seed {seed}) exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchmarkError(f"{workload} round (seed {seed}) exited with {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} round (seed {seed}) printed no result")
    result = json.loads(lines[-1])
    result["round_wall_s"] = time.monotonic() - started
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    """Run rounds until the next one would overrun *seconds* (at least the minimum).

    Untraced runs cycle through :data:`SUBSEEDS` input sub-seeds.  Traced
    runs alternate an untraced and a traced round on the same input, so the
    tracing overhead compares like with like.
    """
    step = 2 if trace else 1
    started = time.monotonic()
    rounds: List[dict] = []
    longest_step = 0.0
    while True:
        step_started = time.monotonic()
        for _ in range(step):
            index = len(rounds)
            position = index // step
            inputs = position % SUBSEEDS[workload]
            result = run_worker(workload, subseed(seed, inputs), traced=trace and index % 2 == 1)
            result["subseed_index"] = inputs
            rounds.append(result)
        longest_step = max(longest_step, time.monotonic() - step_started)
        done = len(rounds) // step >= (1 if trace else SUBSEEDS[workload])
        if done and time.monotonic() - started + longest_step > seconds:
            return rounds


def _loop(result: dict) -> tuple:
    """(CPU seconds, iterations) of every reference loop a round ran."""
    samples = result["loop_samples"]
    cpu = result["loop_before_s"] + result["loop_after_s"] + sum(samples)
    return cpu, 2 * LOOP_ITERATIONS + SAMPLE_ITERATIONS * len(samples)


def _normalised(result: dict, key: str) -> float:
    return normalise(result[key], *_loop(result))


def _normalised_p50(result: dict, key: str) -> float:
    """A round's median duration in ms, rescaled to the reference machine's speed."""
    return normalise(statistics.median(result[key]) * 1000, *_loop(result))


def _exact(workload: str, rounds: List[dict], value, errors: List[str], label: str) -> float:
    """Median over input sub-seeds of a per-round exact value (identical within a sub-seed)."""
    by_subseed: Dict[int, float] = {}
    for result in rounds:
        observed = value(result)
        known = by_subseed.setdefault(result["subseed_index"], observed)
        if known != observed:
            errors.append(f"{workload}: {label} differs between rounds on the same input ({known} vs {observed})")
    return statistics.median(by_subseed.values())


def end_to_end(workload: str, rounds: List[dict], errors: List[str]) -> Dict[str, float]:
    """Aggregate untraced rounds into the end-to-end metrics."""
    cpu = [_normalised(result, "phase_cpu_s") for result in rounds]
    metrics = {
        "setup_s": statistics.median(_normalised(result, "setup_cpu_s") for result in rounds),
        "flows_per_s": statistics.median(result["flows"] / norm for result, norm in zip(rounds, cpu)),
        "pkts_per_s": statistics.median(result["pkts"] / norm for result, norm in zip(rounds, cpu)),
    }
    if workload in SIMULATED:
        metrics["move_p50_ms"] = _exact(workload, rounds, lambda r: statistics.median(r["durations"]) * 1000, errors, "move_p50_ms")
        metrics["freeze_p50_ms"] = _exact(workload, rounds, lambda r: statistics.median(r["freezes"]) * 1000, errors, "freeze_p50_ms")
        metrics["ctrl_kb"] = _exact(workload, rounds, lambda r: r["ctrl_bytes"] / 1000, errors, "ctrl_kb")
    else:
        # On the wall-clock runtime the moves are CPU-bound (a round's phase
        # CPU time about equals its moves' wall time), so their latency moves
        # with the machine's speed: each round's p50 is rescaled by the same
        # loop factor as its CPU time.  report_rounds prints the raw p50.
        for name, key in (("move_p50_ms", "durations"), ("freeze_p50_ms", "freezes")):
            metrics[name] = statistics.median(_normalised_p50(r, key) for r in rounds)
        metrics["ctrl_kb"] = statistics.median(r["ctrl_bytes"] / 1000 for r in rounds)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] / 1024 for r in rounds)
    return metrics


def per_layer(rounds: List[dict]) -> Dict[str, float]:
    """Median of each per-layer metric over traced rounds, plus the tracing overhead."""
    traced = [result for result in rounds if result["traced"]]
    plain = [result for result in rounds if not result["traced"]]
    metrics = {name: statistics.median(result["layers"][name] for result in traced) for name in LAYER_METRICS if name != "trace.overhead"}
    metrics["trace.overhead"] = statistics.median(_normalised(r, "phase_cpu_s") for r in traced) / statistics.median(
        _normalised(r, "phase_cpu_s") for r in plain
    )
    return metrics


def report_rounds(workload: str, rounds: List[dict]) -> None:
    """Print each round's raw inputs to the normalised figures."""
    for index, result in enumerate(rounds):
        mode = "traced" if result["traced"] else "plain"
        print(
            f"{workload} round {index} ({mode}, seed {result['seed']}): "
            f"phase cpu {result['phase_cpu_s']:.3f} s wall {result['phase_wall_s']:.3f} s, "
            f"setup cpu {result['setup_cpu_s']:.4f} s wall {result['setup_wall_s']:.4f} s, "
            f"loop before {result['loop_before_s']:.4f} s after {result['loop_after_s']:.4f} s "
            f"in-phase {len(result['loop_samples'])}x{sum(result['loop_samples']) / max(1, len(result['loop_samples'])):.4f} s, "
            f"normalised phase {_normalised(result, 'phase_cpu_s'):.3f} s, "
            f"move p50 {statistics.median(result['durations']) * 1000:.3f} ms{_clock_note(workload, result)}, "
            f"flows {result['flows']} pkts {result['pkts']} ops {result['attempted']} failed {result['failed']}"
        )
        for error in result["errors"]:
            print(f"  CHECK FAILED: {error}")
        if result["traced"]:
            print(f"  spans {result['spans']}; self-time hotspots:")
            for name, ms, calls in result["hotspots"]:
                print(f"    {name:60s} {ms:10.1f} ms {calls:9d} calls")


def _clock_note(workload: str, result: dict) -> str:
    if workload in SIMULATED:
        return " simulated"
    return f" wall (normalised {_normalised_p50(result, 'durations'):.3f} ms)"


def report_summary(workload: str, rounds: List[dict]) -> None:
    """Print the raw medians behind the normalised figures, and the latency tail."""
    plain = [result for result in rounds if not result["traced"]]
    samples = [sample for result in plain for sample in result["loop_samples"]]

    def mid(key: str) -> float:
        return statistics.median(result[key] for result in plain)

    print(
        f"{workload} raw medians over {len(plain)} plain rounds: phase cpu {mid('phase_cpu_s'):.3f} s, "
        f"phase wall {mid('phase_wall_s'):.3f} s, setup cpu {mid('setup_cpu_s'):.4f} s, "
        f"loop before {mid('loop_before_s'):.4f} s, after {mid('loop_after_s'):.4f} s, "
        f"in-phase sample {statistics.median(samples) if samples else 0.0:.4f} s "
        f"(nominal {NOMINAL_LOOP_S} s per {LOOP_ITERATIONS} iterations)"
    )
    durations = [duration * 1000 for result in plain for duration in result["durations"]]
    if len(durations) >= 100:  # p90 then has at least ten samples beyond it
        print(
            f"{workload} move duration over {len(durations)} moves ({'simulated' if workload in SIMULATED else 'wall'}): "
            f"p50 {percentile(durations, 50):.3f} ms, p90 {percentile(durations, 90):.3f} ms"
        )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (not yet printed)."""
    rounds = run_rounds(workload, seed, seconds, trace)
    report_rounds(workload, rounds)
    report_summary(workload, rounds)
    errors = [error for result in rounds for error in result["errors"]]
    plain = [result for result in rounds if not result["traced"]]
    if trace:
        metrics = per_layer(rounds)
        units = LAYER_METRICS
    else:
        metrics = end_to_end(workload, plain, errors)
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": not errors and all(result["attempted"] > 0 for result in rounds),
        "attempted": sum(result["attempted"] for result in rounds),
        "failed": sum(result["failed"] for result in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="OpenMB move-path benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit-spec", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.emit_spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}.{metric}": value for name, result in results.items() for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
