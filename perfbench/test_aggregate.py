"""Self-tests of the benchmark's aggregation code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import unittest

import aggregate

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def raw(**over):
    r = {
        "setup_s": [9.0, 1.2, 1.1], "job_s": [3.0, 2.0, 4.0], "heap_peak_mb": 512.5,
        "samples": {}, "layers": {}, "failures": [], "attempted": 10, "fingerprints": [],
    }
    r.update(over)
    return r


class TailPercentile(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        for n in (11, 50, 100, 500, 684, 2430, 10**6):
            p = aggregate.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p) / 100, aggregate.TAIL_SAMPLES, n)
            if p < 99:
                self.assertLess(n * (100 - (p + 1)) / 100, aggregate.TAIL_SAMPLES, n)

    def test_known_values(self):
        self.assertIsNone(aggregate.tail_percentile(10))
        self.assertEqual(aggregate.tail_percentile(100), 90)
        self.assertEqual(aggregate.tail_percentile(500), 98)
        self.assertEqual(aggregate.tail_percentile(684), 98)
        self.assertEqual(aggregate.tail_percentile(499), 97)

    def test_p98_needs_500_samples_and_reports_count(self):
        m = aggregate.metrics(raw(samples={"presim_ms": [float(i) for i in range(1, 685)]}), trace=True)
        self.assertEqual(m["presim_ms.samples"], (684.0, "count"))
        self.assertAlmostEqual(m["presim_ms_p98"][0], aggregate.percentile(range(1, 685), 98))
        with self.assertRaises(ValueError):
            aggregate.metrics(raw(samples={"presim_ms": [1.0] * 499}), trace=True)

    def test_percentile_interpolates(self):
        self.assertEqual(aggregate.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(aggregate.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(aggregate.percentile([1, 2, 3, 4], 50), 2.5)


class FailedRatio(unittest.TestCase):
    def test_counts_failures_over_attempts(self):
        self.assertEqual(aggregate.failed_ratio(684, 0), 0.0)
        self.assertAlmostEqual(aggregate.failed_ratio(2052, 3), 3 / 2052)

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(aggregate.failed_ratio(0, 0), 1.0)

    def test_traced_run_reports_it(self):
        m = aggregate.metrics(raw(attempted=18, failures=["pattern P3: GB 1 != PB 2"]), trace=True)
        self.assertAlmostEqual(m["failed_ratio"][0], 1 / 18)


class Names(unittest.TestCase):
    def test_every_metric_name_is_valid_and_unique(self):
        names = [n for n, _, _ in aggregate.END_TO_END + aggregate.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(aggregate.valid_name(n), n)

    def test_rejects_bad_names(self):
        for bad in ("", "a b", "x/y", "é", "a" * 65):
            self.assertFalse(aggregate.valid_name(bad), bad)
        with self.assertRaises(ValueError):
            aggregate.summary(True, 1, 0, {"bad name": (1.0, "s")})

    def test_benchmark_json_lists_the_same_metrics(self):
        if not BENCHMARK_JSON.exists():
            self.skipTest("no BENCHMARK.json beside perfbench")
        spec = json.loads(BENCHMARK_JSON.read_text())
        for key, table in (("end_to_end", aggregate.END_TO_END), ("per_layer", aggregate.PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            self.assertEqual(listed, list(table), key)


class Summary(unittest.TestCase):
    def test_untraced_run_prints_exactly_the_end_to_end_metrics(self):
        m = aggregate.metrics(raw(), trace=False)
        self.assertEqual(list(m), [n for n, _, _ in aggregate.END_TO_END])
        self.assertEqual(m["setup_s"], (1.2, "s"))
        self.assertEqual(m["job_s"], (3.0, "s"))

    def test_traced_run_prints_every_per_layer_metric(self):
        m = aggregate.metrics(raw(layers={"gb_s": 2.5}), trace=True)
        self.assertEqual(list(m), [n for n, _, _ in aggregate.PER_LAYER])
        self.assertEqual(m["gb_s"], (2.5, "s"))
        self.assertEqual(m["SubgraphExtractor.cycleArcs.s"], (0.0, "s"))

    def test_unlisted_layer_is_an_error(self):
        with self.assertRaises(ValueError):
            aggregate.metrics(raw(layers={"NoSuchLayer.s": 1.0}), trace=True)

    def test_round_trip(self):
        for trace in (False, True):
            values = aggregate.metrics(raw(samples={"presim_ms": [0.5] * 600}), trace)
            line = aggregate.summary(True, 10, 0, values)
            self.assertNotIn("\n", line)
            correct, attempted, failed, back = aggregate.parse_summary(line)
            self.assertEqual((correct, attempted, failed), (True, 10, 0))
            self.assertEqual(back, values)

    def test_parse_rejects_extra_keys(self):
        with self.assertRaises(ValueError):
            aggregate.parse_summary('{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}')


class Fingerprints(unittest.TestCase):
    def test_counts_exact_floats_close(self):
        a = {"subgraphs": 684, "presim_flow_sum": 116831.95000000003}
        self.assertTrue(aggregate.same_fingerprint(a, {"subgraphs": 684, "presim_flow_sum": 116831.95}))
        self.assertFalse(aggregate.same_fingerprint(a, {"subgraphs": 683, "presim_flow_sum": 116831.95}))
        self.assertFalse(aggregate.same_fingerprint(a, {"subgraphs": 684, "presim_flow_sum": 116832.0}))
        self.assertFalse(aggregate.same_fingerprint(a, {"subgraphs": 684}))


if __name__ == "__main__":
    unittest.main()
