"""Self-test of the benchmark at smoke size.

Run from the repository root with either of::

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 perfbench/test_perfbench.py

It covers the statistics and normalisation helpers, self-time arithmetic on
a synthetic span tree, the tracer's wrapping, the committed BENCHMARK.json,
and — for every workload, shrunk to smoke size — that the workload passes its
output checks and that its checks fail once one flow is removed from a
destination.
"""

from __future__ import annotations

import gzip
import json
import sys
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Smoke-size shapes: the same code paths as the benchmark, seconds not minutes.
SMOKE = {
    "BULK_FLOWS": 400,
    "BULK_TRAFFIC_S": 0.01,
    "CONC_MOVES": 4,
    "CONC_CHUNKS": 20,
    "LOSSY_FLOWS": 20,
    "LOSSY_PACKETS": 400,
    "PING_PAIRS": 2,
    "PING_CHUNKS": 10,
    "PING_MOVES": 2,
}


class HelperTests(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(measure.percentile(values, 0), 1.0)
        self.assertEqual(measure.percentile(values, 100), 4.0)
        self.assertAlmostEqual(measure.percentile(values, 50), 2.5)
        self.assertAlmostEqual(measure.percentile(values, 25), 1.75)
        with self.assertRaises(ValueError):
            measure.percentile([], 50)
        with self.assertRaises(ValueError):
            measure.percentile(values, 101)

    def test_normalise_scales_by_loop_speed(self):
        nominal_per_loop = measure.NOMINAL_LOOP_S
        # The loop ran exactly at nominal speed: the CPU time is unchanged.
        self.assertAlmostEqual(measure.normalise(3.0, 2 * nominal_per_loop, 2 * measure.LOOP_ITERATIONS), 3.0)
        # Twice as slow as nominal: the phase cost is halved.
        self.assertAlmostEqual(measure.normalise(3.0, 4 * nominal_per_loop, 2 * measure.LOOP_ITERATIONS), 1.5)
        # In-phase samples count by their iterations, not their number.
        loop_cpu = 2 * nominal_per_loop + 10 * nominal_per_loop * measure.SAMPLE_ITERATIONS / measure.LOOP_ITERATIONS
        iterations = 2 * measure.LOOP_ITERATIONS + 10 * measure.SAMPLE_ITERATIONS
        self.assertAlmostEqual(measure.normalise(3.0, loop_cpu, iterations), 3.0)
        with self.assertRaises(ValueError):
            measure.normalise(1.0, 0.0, 10)

    def test_round_normalisation_uses_every_loop(self):
        result = {"phase_cpu_s": 2.0, "loop_before_s": 0.1, "loop_after_s": 0.1, "loop_samples": [0.01] * 5}
        cpu, iterations = run._loop(result)
        self.assertAlmostEqual(cpu, 0.25)
        self.assertEqual(iterations, 2 * measure.LOOP_ITERATIONS + 5 * measure.SAMPLE_ITERATIONS)
        self.assertAlmostEqual(run._normalised(result, "phase_cpu_s"), measure.normalise(2.0, cpu, iterations))

    def test_exact_metrics_are_medians_over_subseeds_and_flag_drift(self):
        rounds = [{"subseed_index": 0, "v": 3.0}, {"subseed_index": 1, "v": 5.0}, {"subseed_index": 0, "v": 3.0}]
        errors = []
        self.assertEqual(run._exact("w", rounds, lambda r: r["v"], errors, "v"), 4.0)
        self.assertEqual(errors, [])
        rounds.append({"subseed_index": 1, "v": 5.5})
        run._exact("w", rounds, lambda r: r["v"], errors, "v")
        self.assertEqual(len(errors), 1)


class SelfTimeTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 100] -> a [10, 60] -> b [20, 30]; root -> c [70, 90]
        spans = array("q")
        for name, start, end, parent in ((0, 0, 100, -1), (1, 10, 60, 0), (2, 20, 30, 1), (3, 70, 90, 0)):
            spans.extend((name, start, end, parent, -1))
        self.assertEqual(tracing.self_times(spans), [100 - 50 - 20, 50 - 10, 10, 20])
        # Self times partition the root's duration.
        self.assertEqual(sum(tracing.self_times(spans)), 100)

    def test_tracer_records_nested_spans_per_layer(self):
        ticks = iter(range(0, 1000, 10))
        tracer = tracing.Tracer(clock=lambda: next(ticks))

        class Outer:
            def run(self, inner):
                return inner.work() + sum(inner.items())

        class Inner:
            def work(self):
                return 1

            def items(self):
                return iter([1, 2])

        tracer.install(
            {
                "outer": [(Outer, "run", tracing.CALL)],
                "inner": [(Inner, "work", tracing.CALL), (Inner, "items", tracing.ITER)],
            }
        )
        try:
            self.assertEqual(Outer().run(Inner()), 4)  # inactive: no spans
            self.assertEqual(len(tracer), 0)
            tracer.active = True
            self.assertEqual(Outer().run(Inner()), 4)
        finally:
            tracer.uninstall()
        summary = tracing.SpanSummary(tracer)
        run_name, work_name, items_name = (
            f"outer.{Outer.run.__qualname__}",
            f"inner.{Inner.work.__qualname__}",
            f"inner.{Inner.items.__qualname__}",
        )
        # run, work, items (the call) and three pulls (two items + exhaustion).
        self.assertEqual(summary.count(run_name), 1)
        self.assertEqual(summary.count(work_name), 1)
        self.assertEqual(summary.count(items_name), 4)
        self.assertEqual(summary.count_from(work_name, run_name), 1)
        root = tracer.spans[: tracing.SPAN_FIELDS]
        self.assertEqual(root[tracing.PARENT], -1)
        total = root[tracing.END] - root[tracing.START]
        self.assertEqual(summary.self_ns_by_layer["outer"] + summary.self_ns_by_layer["inner"], total)

    def test_uninstall_restores_originals(self):
        class Thing:
            def method(self):
                return "ok"

        original = Thing.__dict__["method"]
        tracer = tracing.Tracer()
        tracer.wrap(Thing, "method", "layer")
        self.assertIsNot(Thing.__dict__["method"], original)
        tracer.uninstall()
        self.assertIs(Thing.__dict__["method"], original)


class SpecTests(unittest.TestCase):
    def test_committed_benchmark_json_matches_the_code(self):
        committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(committed, run.spec())

    def test_spec_names_every_workload_and_metric(self):
        document = run.spec()
        self.assertEqual([item["name"] for item in document["workloads"]], list(workloads.RUNNERS))
        self.assertEqual([item["name"] for item in document["end_to_end"]][0], "setup_s")
        bounds = {item["name"]: item["bound"] for item in document["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def _drop_one_flow(destinations):
    store = destinations[0].support_store
    store.remove(store.keys()[0])


class WorkloadCheckTests(unittest.TestCase):
    """Each workload at smoke size passes its checks, and fails them with a flow removed."""

    def setUp(self):
        self._saved = {name: getattr(workloads, name) for name in SMOKE}
        for name, value in SMOKE.items():
            setattr(workloads, name, value)

    def tearDown(self):
        for name, value in self._saved.items():
            setattr(workloads, name, value)

    def _run(self, name, hooks):
        registry = workloads.Registry()
        registry.install()
        try:
            return workloads.RUNNERS[name](3, registry, hooks)
        finally:
            registry.uninstall()

    def _check_workload(self, name):
        clean = self._run(name, workloads.Hooks(sample_phase=False))
        self.assertEqual(clean.errors, [])
        self.assertGreater(clean.attempted, 0)
        self.assertEqual(clean.failed, 0)
        self.assertGreater(clean.flows, 0)
        tampered = self._run(name, workloads.Hooks(sample_phase=False, before_check=_drop_one_flow))
        self.assertTrue(tampered.errors, f"{name}: removing a destination flow went unnoticed")

    def test_bulk_move(self):
        self._check_workload("bulk_move")

    def test_concurrent_moves(self):
        self._check_workload("concurrent_moves")

    def test_lossy_reroute_move(self):
        self._check_workload("lossy_reroute_move")

    def test_realtime_pingpong(self):
        self._check_workload("realtime_pingpong")

    def test_traced_round_reports_every_layer_metric(self):
        import worker

        path = HERE.parent / ".perfbench" / "selftest-trace.jsonl.gz"
        path.parent.mkdir(exist_ok=True)
        out = worker.run_round("lossy_reroute_move", 3, str(path))
        self.assertEqual(out["errors"], [])  # includes traced-vs-program counter mismatches
        self.assertEqual(set(out["layers"]), set(layers.METRICS) - {"trace.overhead"})
        self.assertGreater(out["layers"]["net.link_retransmits"], 0)
        self.assertGreater(out["layers"]["ops.drain_calls"], 0)
        self.assertEqual(out["spans"], sum(1 for _ in gzip.open(path, "rt")))


if __name__ == "__main__":
    unittest.main()
