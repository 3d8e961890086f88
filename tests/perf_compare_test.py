#!/usr/bin/env python3
"""tools/perf_compare.py's summary, from canned perfbench result lines.

Nothing is built or timed: each test feeds the summary code the result
lines perfbench/run.py prints, checks the exit status and the
BENCH_perf.json entry the tool writes against tools/bench_diff.py
--validate, and labels a throwaway git checkout.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    path = os.path.join(ROOT, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_compare = load_tool("perf_compare")
bench_diff = load_tool("bench_diff")
RULES = perf_compare.metric_rules(perf_compare.load_benchmark())

PARENT_KIPS = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


def result(kips, rss=17.8, setup=0.002, correct=True):
    metrics = {"sim_kips": {"value": kips, "unit": "kIPS"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "setup_s": {"value": setup, "unit": "s"},
               "not_in_benchmark_json": {"value": 1, "unit": "count"}}
    return {"correct": correct, "attempted": 10,
            "failed": 0 if correct else 1, "metrics": metrics}


def canned_runs(change_kips, change_rss=17.8, failing_pair=None):
    runs = []
    for pair, (parent, change) in enumerate(zip(PARENT_KIPS, change_kips)):
        runs.append({"pair": pair, "side": "parent", "exit": 0,
                     "result": result(parent), "counts": "{}"})
        ok = pair != failing_pair
        runs.append({"pair": pair, "side": "change", "exit": 0 if ok else 1,
                     "result": result(change, change_rss, correct=ok),
                     "counts": "{}"})
    return runs


def meta(workload, parent="aaaa"):
    return {"workload": workload, "seed": 1, "commit": "bbbb",
            "parent": parent, "host": {"nproc": 4, "cpu": "test cpu"},
            "budget": {"seconds": 30, "trace": 0}}


class SummaryTest(unittest.TestCase):
    rules = RULES

    def test_quartiles_interpolate_between_sorted_values(self):
        self.assertEqual(perf_compare.quartiles([5, 1, 4, 2, 3]), (2, 3, 4))
        self.assertEqual(perf_compare.quartiles([7]), (7, 7, 7))

    def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_iqr(self):
        faster = [k * 1.1 for k in PARENT_KIPS]
        faster[3] = 100  # one pair lost: 9 wins of 10
        summary = perf_compare.summarize(canned_runs(faster), self.rules)
        kips = summary["metrics"]["sim_kips"]
        self.assertEqual(summary["pairs"], 10)
        self.assertTrue(summary["all_correct"])
        self.assertTrue(summary["counts_identical"])
        self.assertEqual(kips["parent"]["median"], 100)
        self.assertEqual((kips["parent"]["q1"], kips["parent"]["q3"]),
                         (99.25, 101))
        self.assertEqual(kips["parent"]["iqr"], 1.75)
        self.assertEqual(kips["wins"], 9)
        self.assertAlmostEqual(kips["ratio_median"], 1.1)
        self.assertEqual(kips["verdict"], "gain")
        # Equal values are ties: no wins, no verdict.
        self.assertEqual(summary["metrics"]["setup_s"]["wins"], 0)
        self.assertEqual(summary["metrics"]["setup_s"]["verdict"], "-")
        # Only metrics BENCHMARK.json names are summarised.
        self.assertNotIn("not_in_benchmark_json", summary["metrics"])

    def test_eight_wins_or_a_gap_inside_the_iqr_is_no_gain(self):
        faster = [k * 1.1 for k in PARENT_KIPS]
        faster[3] = faster[5] = 99
        summary = perf_compare.summarize(canned_runs(faster), self.rules)
        self.assertEqual(summary["metrics"]["sim_kips"]["wins"], 8)
        self.assertEqual(summary["metrics"]["sim_kips"]["verdict"], "-")
        nudged = [k + 1 for k in PARENT_KIPS]  # 10 wins, gap 1 < IQR 1.75
        summary = perf_compare.summarize(canned_runs(nudged), self.rules)
        self.assertEqual(summary["metrics"]["sim_kips"]["wins"], 10)
        self.assertEqual(summary["metrics"]["sim_kips"]["verdict"], "-")
        # Fewer than ten pairs never make a gain, however clear.
        faster = [k * 1.1 for k in PARENT_KIPS]
        summary = perf_compare.summarize(canned_runs(faster)[:18],
                                         self.rules)
        self.assertEqual(summary["metrics"]["sim_kips"]["wins"], 9)
        self.assertEqual(summary["metrics"]["sim_kips"]["verdict"], "-")

    def test_worse_past_the_bound_and_lower_is_better(self):
        summary = perf_compare.summarize(
            canned_runs(PARENT_KIPS, change_rss=17.8 * 1.25), self.rules)
        rss = summary["metrics"]["peak_rss_mb"]
        self.assertEqual(rss["better"], "lower")
        self.assertEqual(rss["wins"], 0)
        self.assertEqual(rss["verdict"], "worse")

    def test_a_failed_run_or_differing_counts_are_reported(self):
        runs = canned_runs(PARENT_KIPS, failing_pair=4)
        runs[0]["counts"] = '{"counts": {"x": 1}}'
        summary = perf_compare.summarize(runs, self.rules)
        self.assertFalse(summary["all_correct"])
        self.assertFalse(summary["counts_identical"])
        # A pair missing its second run is not a pair, and fails the set.
        summary = perf_compare.summarize(canned_runs(PARENT_KIPS)[:-1],
                                         self.rules)
        self.assertEqual(summary["pairs"], 9)
        self.assertFalse(summary["all_correct"])


def finish(runs, workload="figure_grid", parent="aaaa", record=None):
    """perf_compare.finish on `runs`: (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = perf_compare.finish(meta(workload, parent), runs, RULES,
                                   record, 7 if record else None)
    return code, out.getvalue()


class FinishTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def validate(self, path):
        with open(path) as f:
            return bench_diff.validate_perf(json.load(f))

    def test_exit_status_is_0_only_when_every_run_passed(self):
        code, out = finish(canned_runs(PARENT_KIPS))
        self.assertEqual(code, 0)
        self.assertIn("10 pairs, all runs correct, counts identical", out)
        self.assertRegex(out, r"sim_kips .* 100 \[99\.25, 101\]")
        code, out = finish(canned_runs(PARENT_KIPS, failing_pair=0))
        self.assertEqual(code, 1)
        self.assertIn("FAILED RUNS", out)

    def test_record_fills_one_entry_that_validates(self):
        bench = os.path.join(self.dir.name, "BENCH_perf.json")
        faster = [k * 1.1 for k in PARENT_KIPS]
        self.assertEqual(finish(canned_runs(faster), record=bench)[0], 0)
        # One workload of three: the claim is incomplete.
        self.assertTrue(any("no result for" in problem
                            for problem in self.validate(bench)))
        for workload in ("fault_campaign", "reesed_jobs"):
            self.assertEqual(finish(canned_runs(faster), workload,
                                    record=bench)[0], 0)
        self.assertEqual(self.validate(bench), [])
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "bench_diff.py"),
             bench, "--validate"], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)
        with open(bench) as f:
            report = json.load(f)
        self.assertEqual(len(report["entries"]), 1)
        entry = report["entries"][0]
        self.assertEqual((entry["pr"], entry["commit"], entry["parent"],
                          entry["pairs"]), (7, "bbbb", "aaaa", 10))
        self.assertEqual(
            entry["results"][0]["metrics"]["sim_kips"]["verdict"], "gain")
        # Another parent cannot join the same claim.
        with contextlib.redirect_stderr(io.StringIO()), \
                self.assertRaises(SystemExit) as refused:
            finish(canned_runs(faster), "reesed_jobs", parent="cccc",
                   record=bench)
        self.assertEqual(refused.exception.code, 2)
        # A failed run makes the record fail validation.
        finish(canned_runs(faster, failing_pair=2), "reesed_jobs",
               record=bench)
        self.assertTrue(any("not every run was correct" in problem
                            for problem in self.validate(bench)))

    def test_an_unreadable_benchmark_json_is_a_problem(self):
        bench = os.path.join(self.dir.name, "BENCH_perf.json")
        finish(canned_runs(PARENT_KIPS), record=bench)
        with open(bench) as f:
            report = json.load(f)
        broken = os.path.join(self.dir.name, "BENCHMARK.json")
        with open(broken, "w") as f:
            f.write("{")
        for path in (os.path.join(self.dir.name, "missing.json"), broken):
            problems = bench_diff.validate_perf(report, path)
            self.assertEqual(len(problems), 1, problems)
            self.assertIn("cannot read the workloads of", problems[0])


class LabelTest(unittest.TestCase):
    """A checkout with uncommitted edits is labelled by what it holds."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.tree = self.dir.name
        self.git("init", "-q")
        self.write("src/a.cpp", "int a;\n")
        self.write(".gitignore", "__pycache__/\n")
        self.git("add", ".")
        self.git("commit", "-q", "-m", "first")

    def tearDown(self):
        self.dir.cleanup()

    def git(self, *args):
        return subprocess.run(
            ["git", "-C", self.tree, "-c", "user.name=t",
             "-c", "user.email=t@example.com", *args],
            check=True, capture_output=True, text=True).stdout.strip()

    def write(self, path, text):
        full = os.path.join(self.tree, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as f:
            f.write(text)

    def test_a_dirty_checkout_names_its_head_and_digest(self):
        head = self.git("rev-parse", "HEAD")
        clean = perf_compare.tree_digest(self.tree)
        self.assertEqual(perf_compare.materialise(self.tree, "change",
                                                  self.tree)[1], head)
        # Ignored files and files outside src/, tools/ and perfbench/ do
        # not count; an edit or a new file under them does.
        self.write("tools/__pycache__/x.pyc", "bytecode")
        self.write("README.md", "docs\n")
        self.assertEqual(perf_compare.tree_digest(self.tree), clean)
        self.write("src/a.cpp", "int a = 1;\n")
        self.write("perfbench/b.py", "b = 2\n")
        dirty = perf_compare.tree_digest(self.tree)
        self.assertNotEqual(dirty, clean)
        self.assertEqual(perf_compare.materialise(self.tree, "change",
                                                  self.tree)[1],
                         f"{head}+tree:{dirty}")
        # Committing the same files keeps the digest.
        self.git("add", ".")
        self.git("commit", "-q", "-m", "second")
        self.assertEqual(perf_compare.tree_digest(self.tree), dirty)


if __name__ == "__main__":
    unittest.main()
