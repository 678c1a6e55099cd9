"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import math
import unittest

import benchlib


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(xs, 50), 50)
        self.assertEqual(benchlib.percentile(xs, 99), 99)
        self.assertEqual(benchlib.percentile(xs, 100), 100)
        self.assertEqual(benchlib.percentile(xs, 0.5), 1)

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(benchlib.percentile(xs, 50), 3.0)
        self.assertEqual(benchlib.percentile(list(reversed(xs)), 50), 3.0)

    def test_tail_is_a_sample_not_an_interpolation(self):
        xs = [1.0] * 990 + [10.0] * 10
        self.assertEqual(benchlib.percentile(xs, 99), 1.0)
        self.assertEqual(benchlib.percentile(xs, 99.1), 10.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 101)

    def test_median_of_an_even_count_is_the_midpoint(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0, 10.0]), 2.5)


class DurationMask(unittest.TestCase):
    def test_masks_every_unit(self):
        for text in ["52.985921ms", "1.777858508s", "12µs", "7ns", "3s"]:
            self.assertEqual(benchlib.mask_durations(f"x : {text} for y"), "x : TIME for y")

    def test_masks_at_end_of_line_and_before_comma(self):
        self.assertEqual(benchlib.mask_durations("took 1.5s"), "took TIME")
        self.assertEqual(benchlib.mask_durations("a 2ms, b 3ms"), "a TIME, b TIME")

    def test_leaves_other_numbers(self):
        for line in ["20k samples", "C(22,11) subsets", "rank 2567/5040", "   31.70% vs   4.54%"]:
            self.assertEqual(benchlib.mask_durations(line), line)

    def test_only_the_timed_experiment_is_masked(self):
        lines = ["exact (pareto-pruned) : 52.9ms for all C(22,11) subsets"]
        self.assertNotEqual(benchlib.masked("ordering_ablate", lines), lines)
        self.assertEqual(benchlib.masked("table4", lines), lines)


COUNTS = [("a", 2), ("b", 1), ("ordering_ablate", 1)]
REFERENCE = "a1\na2\nb1\nsampled : 1.5s for 20k samples\n"


def run(text, code=0, checks=None):
    ref = benchlib.split_segments(REFERENCE, COUNTS)
    return benchlib.failed_experiments(text, code, COUNTS, ref, checks or {})


class FailureCounting(unittest.TestCase):
    def test_identical_pass_has_no_failures(self):
        self.assertEqual(run(REFERENCE), [])

    def test_durations_may_differ(self):
        self.assertEqual(run(REFERENCE.replace("1.5s", "2.25s")), [])

    def test_a_changed_line_fails_only_its_experiment(self):
        self.assertEqual(run(REFERENCE.replace("b1", "b9")), ["b"])

    def test_a_failed_process_fails_every_experiment(self):
        self.assertEqual(run(REFERENCE, code=1), ["a", "b", "ordering_ablate"])

    def test_surplus_or_missing_output_fails(self):
        self.assertEqual(run(REFERENCE + "extra\n"), ["ordering_ablate"])
        self.assertEqual(run("a1\na2\nb1\n"), ["ordering_ablate"])

    def test_failed_content_check_counts(self):
        self.assertEqual(run(REFERENCE, checks={"a": lambda lines: False}), ["a"])

    def test_a_check_that_raises_is_a_failure_not_an_abort(self):
        def broken(lines):
            raise KeyError("boom")

        self.assertEqual(run(REFERENCE, checks={"b": broken}), ["b"])


def graph12_lines(bad=False):
    ms = [0.025 * i for i in range(1, 13)]
    lines = ["   len" + "".join(f"{m:7.3f}" for m in ms)]
    for s in range(1, 200, 10):
        cells = [100 * (1 - (1 - m) ** s) for m in ms]
        if bad and s == 11:
            cells[0] += 0.2
        lines.append(f"{s:6}" + "".join(f"{c:7.1f}" for c in cells))
    lines += ["", "model dividing lengths (50% of instructions):"]
    lines += [f"  m = {m:.3f}  ->  {math.ceil(math.log(0.5) / math.log(1 - m))}" for m in ms]
    return lines


class ContentChecks(unittest.TestCase):
    def test_graph12(self):
        self.assertTrue(benchlib.check_graph12(graph12_lines()))
        self.assertFalse(benchlib.check_graph12(graph12_lines(bad=True)))

    def test_graph1_must_not_decrease(self):
        good = ["# Graph 1: x", "# rank miss%", "    0     33", "   50     34", ""]
        self.assertTrue(benchlib.check_graph1(good))
        bad = ["# rank miss%", "    0     35", "   50     34"]
        self.assertFalse(benchlib.check_graph1(bad))

    def test_table4_covers_every_subset(self):
        n = math.comb(22, 11)
        lines = [
            f"# Table 4: the most common winning orders over {n} trials",
            "%Trials  Miss% Order",
            "  60.00     37 A B",
            "  40.00     33 B A",
            "",
            "# Graph 2: cumulative trial share of the most common orders",
            "   1    60.0",
            "   2   100.0",
            "",
            "distinct winning orders: 2",
        ]
        self.assertTrue(benchlib.check_table4(lines))
        self.assertFalse(benchlib.check_table4([lines[0].replace(str(n), str(n - 1))] + lines[1:]))
        short = lines[:3] + ["  39.00     33 B A"] + lines[4:]
        self.assertFalse(benchlib.check_table4(short))

    def test_summary_against_oracle(self):
        heuristic = {
            "loop_branches": {"dynamic": 10, "misses": 2, "perfect_misses": 1},
            "nonloop": {"dynamic": 5, "misses": 3, "perfect_misses": 2},
            "all": {"dynamic": 15, "misses": 5, "perfect_misses": 3},
        }
        oracle = {"p": {"exit": [1, 1, 1], "dynamic_branches": 15, "heuristic": heuristic}}
        summary = {"benchmarks": [{"name": "p", "dynamic_branches": 15, "heuristic": heuristic}]}
        lines = json.dumps(summary, indent=2).split("\n")
        self.assertTrue(benchlib.check_summary(lines, oracle))
        summary["benchmarks"][0]["heuristic"] = json.loads(
            json.dumps(heuristic).replace('"misses": 3', '"misses": 4')
        )
        self.assertFalse(benchlib.check_summary(json.dumps(summary).split("\n"), oracle))
        self.assertFalse(benchlib.check_summary(["{not json"], oracle))

    def test_exit_values_must_agree_across_option_sets(self):
        self.assertTrue(benchlib.exits_invariant({"p": {"exit": [3, 3, 3]}}))
        self.assertFalse(benchlib.exits_invariant({"p": {"exit": [3, 3, 4]}}))


class ResultLine(unittest.TestCase):
    def test_shape(self):
        line = benchlib.result_line(True, 19, 0, {"wall_s": (1.25, "s")})
        self.assertEqual(
            json.loads(line),
            {"correct": True, "attempted": 19, "failed": 0,
             "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}},
        )


if __name__ == "__main__":
    unittest.main()
