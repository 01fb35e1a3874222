"""Unit tests of the benchmark's own logic.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402
import run  # noqa: E402

SPEC = benchlib.benchmark_spec(HERE.parent.parent / "BENCHMARK.json")
BENCHES = [f"b{i}" for i in range(26)]
FIGURES = [f"fig{i:02d}" for i in range(8, 19)]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.9), 90)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile([7.5], 0.9), 7.5)
        self.assertEqual(benchlib.percentile([3, 1, 2], 0.5), 2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.percentile([1, 2], 0.0)
        with self.assertRaises(ValueError):
            benchlib.percentile([1, 2], 1.5)

    def test_sample_count_rule(self):
        # At least ten samples must lie beyond the reported percentile.
        self.assertEqual(benchlib.min_samples(0.5), 20)
        self.assertEqual(benchlib.min_samples(0.9), 100)
        self.assertEqual(benchlib.min_samples(0.99), 1000)
        with self.assertRaises(ValueError):
            benchlib.reportable_percentile(list(range(99)), 0.9)
        self.assertEqual(benchlib.reportable_percentile(list(range(1, 101)), 0.9), 90)
        with self.assertRaises(ValueError):
            benchlib.reportable_percentile(list(range(19)), 0.5)

    def test_spread_matches_acceptance_rule(self):
        values = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
        # Exclusive quartiles 9.875 and 10.125 around a median of 10.0.
        self.assertAlmostEqual(benchlib.spread(values), 0.025, places=6)


class MixTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        a = benchlib.make_mix(7, BENCHES, FIGURES)
        b = benchlib.make_mix(7, BENCHES, FIGURES)
        self.assertEqual(a, b)
        self.assertEqual(benchlib.mix_lines(a), benchlib.mix_lines(b))

    def test_differs_across_seeds(self):
        lines = {benchlib.mix_lines(benchlib.make_mix(s, BENCHES, FIGURES))
                 for s in range(1, 6)}
        self.assertEqual(len(lines), 5)

    def test_shape_and_shares(self):
        reqs = benchlib.make_mix(3, BENCHES, FIGURES)
        approx = [r for r in reqs if r[0] == "approx"]
        sweeps = [r for r in reqs if r[0] == "sweep"]
        distinct = {r[1:] for r in sweeps}
        # Every benchmark with every threshold set once: 52 new sweeps,
        # 9 twins and 9 repeats, 2 approx requests per figure.
        self.assertEqual(len(reqs), 52 + 9 + 9 + 22)
        self.assertEqual(len(distinct), 52)
        self.assertEqual(len(sweeps) - len(distinct), 18)
        self.assertEqual(len(approx), 22)
        self.assertAlmostEqual(len(distinct) / len(reqs), 0.6, delta=0.05)
        self.assertAlmostEqual(len(approx) / len(reqs), 0.2, delta=0.05)
        self.assertEqual(len({r[3] for r in approx}), 22)  # a seed each
        for _, fig, budget, seed in approx:
            self.assertIn(fig, FIGURES)
            self.assertEqual(budget, 250000)
            self.assertGreater(seed, 0)
        for _, bench, thresholds in sweeps:
            self.assertIn(bench, BENCHES)
            self.assertIn(thresholds, ((), (100, 2000)))

    def test_composition_is_the_same_for_every_seed(self):
        def composition(reqs):
            return sorted((r[0], r[1], r[2]) for r in reqs if r[0] == "approx") + \
                sorted({r for r in reqs if r[0] == "sweep"})
        first = composition(benchlib.make_mix(1, BENCHES, FIGURES))
        for seed in (2, 3):
            self.assertEqual(composition(benchlib.make_mix(seed, BENCHES, FIGURES)), first)

    def test_orders_share_their_requests(self):
        base = benchlib.make_mix(4, BENCHES, FIGURES)
        for order in (1, 2):
            other = benchlib.make_mix(4, BENCHES, FIGURES, order)
            self.assertNotEqual(other, base)
            self.assertEqual(set(other), set(base))
            self.assertEqual(other, benchlib.make_mix(4, BENCHES, FIGURES, order))

    def test_twins_are_queued_back_to_back(self):
        reqs = benchlib.make_mix(5, BENCHES, FIGURES)
        twins = sum(1 for a, b in zip(reqs, reqs[1:]) if a == b and a[0] == "sweep")
        self.assertGreaterEqual(twins, 9)

    def test_twins_and_repeats_resend_new_sweeps(self):
        for seed in (1, 2, 3, 4):
            reqs = [r for r in benchlib.make_mix(seed, BENCHES, FIGURES)
                    if r[0] == "sweep"]
            extra = {r: reqs.count(r) - 1 for r in set(reqs)}
            self.assertEqual(sum(extra.values()), 18)

    def test_lines_round_trip(self):
        reqs = benchlib.make_mix(9, BENCHES, FIGURES)
        lines = benchlib.mix_lines(reqs).splitlines()
        self.assertEqual(len(lines), len(reqs))
        for line, req in zip(lines, reqs):
            parts = line.split()
            self.assertEqual(parts[0], req[0])
            if parts[0] == "sweep":
                self.assertEqual(len(parts), 3)
                want = "-" if not req[2] else ",".join(str(t) for t in req[2])
                self.assertEqual(parts[2], want)
            else:
                self.assertEqual(parts[1:], [req[1], str(req[2]), str(req[3])])


class ByteAccountingTest(unittest.TestCase):
    def test_dir_bytes(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(benchlib.dir_bytes(os.path.join(d, "missing")), 0)
            Path(d, "a.trace").write_bytes(b"x" * 1000)
            Path(d, "a.trace.idx").write_bytes(b"y" * 250)
            Path(d, "sub").mkdir()
            Path(d, "sub", "b.prof").write_bytes(b"z" * 5)
            os.symlink(os.path.join(d, "a.trace"), os.path.join(d, "link"))
            self.assertEqual(benchlib.dir_bytes(d), 1255)
            self.assertEqual(benchlib.bytes_by_suffix(d, ".trace"), 1000)
            self.assertEqual(benchlib.bytes_by_suffix(d, ".trace.idx"), 250)
            before = benchlib.dir_bytes(d)
            Path(d, "c.prof").write_bytes(b"p" * 2_000_000)
            self.assertAlmostEqual(
                benchlib.written_mb(before, benchlib.dir_bytes(d)), 2.0)
            self.assertEqual(benchlib.written_mb(10, 5), 0.0)

    def test_delete_profiles_keeps_traces(self):
        with tempfile.TemporaryDirectory() as d:
            for name in ("x.ref.T0.1.prof", "x.ref.1.trace", "x.ref.1.trace.idx"):
                Path(d, name).write_bytes(b"1")
            run.delete_profiles(d)
            self.assertEqual(sorted(os.listdir(d)),
                             ["x.ref.1.trace", "x.ref.1.trace.idx"])


def fake_layers():
    layers = {name: 0.0 for name in benchlib.SELF_TIME_METRICS}
    layers.update({"vm.record_s": 1.0, "core.cache.write_s": 2.5,
                   "core.replay.s": 0.5})
    counts = ["vm.guest_insts", "vm.block_events", "vm.host_chained_blocks",
              "vm.host_folded_iters", "vm.host_fallbacks", "jit.units",
              "jit.native_blocks", "jit.native_loop_iters", "jit.deopts",
              "core.trace.segments", "core.cache.mem_hits", "core.cache.disk_hits",
              "core.cache.misses", "core.cache.corrupt", "sample.segments_decoded",
              "sample.segments_skipped"]
    layers.update({name: 10 for name in counts})
    layers.update({"traced.wall_s": 4.5, "traced.unattributed_s": 0.5,
                   "traced.clipped_s": 0.0})
    return layers


class MetricNamesTest(unittest.TestCase):
    def test_self_time_metrics_are_declared(self):
        per_layer = benchlib.declared_metrics(SPEC, traced=True)
        for name in benchlib.SELF_TIME_METRICS:
            self.assertIn(name, per_layer)

    def test_cpp_layer_names_match(self):
        source = (HERE.parent / "perfbench.cpp").read_text()
        block = re.search(r"LayerNames\[NumLayers\] = \{(.*?)\};", source, re.S)
        names = tuple(re.findall(r'"([^"]+)"', block.group(1)))
        self.assertEqual(names, benchlib.SELF_TIME_METRICS)

    def test_suite_metrics_match_spec(self):
        report = {"attempted": 11, "failed": 0, "wall_s": 13.0, "cpu_s": 40.0,
                  "setup_total_s": 0.01, "peak_rss_mb": 5000.0,
                  "disk_written_mb": 3100.0,
                  "latency_s": [0.5 * (i + 1) for i in range(26)]}
        metrics, attempted, failed = run.suite_metrics(
            [report, dict(report), dict(report, peak_rss_mb=9000.0)])
        self.assertEqual((attempted, failed), (33, 0))
        self.assertEqual(metrics["peak_rss_mb"], 9000.0)
        self.assertEqual(metrics["req_per_s"], 2.0)
        self.assertEqual(metrics["req_p50_ms"], 6500.0)
        self.assertEqual(metrics["req_p90_ms"], 12000.0)
        json.loads(benchlib.result_line(True, attempted, failed, metrics, SPEC, False))

    def test_mix_metrics_match_spec(self):
        report = {"attempted": 120, "failed": 0, "wall_s": 6.0, "cpu_s": 18.0,
                  "reset_s": 0.01, "start_s": 0.05, "peak_rss_mb": 1200.0,
                  "disk_written_mb": 0.3, "latency_ms": [float(x) for x in range(1, 121)]}
        metrics, attempted, failed = run.mix_metrics([report], [0.02, 0.03])
        self.assertAlmostEqual(metrics["setup_s"], 0.01 + 0.03)
        line = json.loads(
            benchlib.result_line(True, attempted, failed, metrics, SPEC, False))
        self.assertEqual(line["metrics"]["req_p90_ms"]["value"], 108.0)
        self.assertEqual(line["metrics"]["req_per_s"]["value"], 20.0)

    def test_traced_suite_metrics_match_spec(self):
        plain = {"attempted": 11, "failed": 0, "wall_s": 4.0}
        layers = fake_layers()
        layers.update({"core.cache.prof_hits": 26, "core.cache.prof_misses": 26,
                       "core.replay.sweeps": 52})
        traced = {"attempted": 12, "failed": 0, "wall_s": 4.5, "generate_s": 0.001,
                  "trace_bytes": 1000, "index_bytes": 5000, "layers": layers}
        layers, attempted, failed = run.suite_layers(plain, traced)
        self.assertEqual(failed, 0)
        self.assertAlmostEqual(layers["traced.overhead_s"], 0.5)
        self.assertAlmostEqual(layers["traced.unattributed_frac"], 0.5 / 4.5)
        json.loads(benchlib.result_line(True, attempted, failed, layers, SPEC, True))

    def test_traced_mix_metrics_match_spec(self):
        plain = {"attempted": 120, "failed": 0, "wall_s": 4.0}
        traced = {"attempted": 120, "failed": 0, "wall_s": 4.5, "dirty_repeats": 0,
                  "queue_ms": [1.0, 2.0, 3.0], "compute_ms": [10.0, 20.0, 30.0],
                  "stats": {"served": 120, "coalesced": 6, "rejected": 0,
                            "trace_mem_hits": 1, "trace_disk_hits": 3},
                  "layers": fake_layers()}
        prep = {"generate_s": 0.001, "layers": {"vm.block_events": 100}}
        with tempfile.TemporaryDirectory() as d:
            layers, attempted, failed = run.mix_layers(plain, traced, prep, d)
        self.assertEqual(layers["service.coalesce_ratio"], 0.05)
        self.assertEqual(layers["service.trace_mem_hit_ratio"], 0.25)
        json.loads(benchlib.result_line(True, attempted, failed, layers, SPEC, True))

    def test_layer_times_must_add_up(self):
        plain = {"attempted": 11, "failed": 0, "wall_s": 4.0}
        layers = fake_layers()
        layers["traced.unattributed_s"] = 0.9  # 4.9 != 4.5
        traced = {"attempted": 12, "failed": 0, "wall_s": 4.5, "generate_s": 0.001,
                  "trace_bytes": 1, "index_bytes": 1, "layers": layers}
        _, _, failed = run.suite_layers(plain, traced)
        self.assertEqual(failed, 1)

    def test_counter_time_must_fit_its_spans(self):
        plain = {"attempted": 11, "failed": 0, "wall_s": 4.0}
        traced = {"attempted": 12, "failed": 0, "wall_s": 4.5, "generate_s": 0.001,
                  "trace_bytes": 1, "index_bytes": 1, "layers": fake_layers()}
        traced["layers"]["traced.clipped_s"] = 0.01 * 4.5  # at the tolerance
        self.assertEqual(run.suite_layers(plain, traced)[2], 0)
        traced["layers"] = fake_layers()
        traced["layers"]["traced.clipped_s"] = 0.2
        self.assertEqual(run.suite_layers(plain, traced)[2], 1)

    def test_child_env_drops_knobs(self):
        os.environ["TPDBT_HOST_JIT"] = "0"
        try:
            env = run.child_env(TPDBT_JOBS="4")
        finally:
            del os.environ["TPDBT_HOST_JIT"]
        self.assertEqual({k for k in env if k.startswith("TPDBT_")}, {"TPDBT_JOBS"})
        self.assertIn("PATH", env)

    def test_slow_box_fails_instead_of_shortening(self):
        saved = run.DEADLINE[0]
        run.DEADLINE[0] = run.time.monotonic() + 0.05
        try:
            with self.assertRaises(run.BenchError):
                run.iterate(3, lambda i, done: (run.time.sleep(0.04), {
                    "wall_s": 0.04, "iteration_s": 0.04})[1])
        finally:
            run.DEADLINE[0] = saved
        self.assertEqual(len(run.iterate(3, lambda i, done: {
            "wall_s": 0.0, "iteration_s": 0.0})), 3)

    def test_result_line_refuses_undeclared_names(self):
        with self.assertRaises(ValueError):
            benchlib.result_line(True, 1, 0, {"wall_s": 1.0}, SPEC, False)

    def test_spec_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.ITERATION_SECONDS))


if __name__ == "__main__":
    unittest.main()
