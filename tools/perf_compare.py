#!/usr/bin/env python3
"""Paired benchmark comparison of two source trees.

Usage (from the repository root):

    python3 tools/perf_compare.py PARENT CHANGE --workload W --pairs N \\
        [--seed S] [--trace 0|1] [--work-dir DIR] \\
        [--record BENCH_perf.json --pr N]

PARENT and CHANGE are each a git revision of this repository, which is
extracted with `git archive` under the work directory, or a directory
holding a checkout, which is used in place and must not change while the
comparison runs. A checkout with uncommitted edits is labelled with its
HEAD and tree_digest(), a digest of its files under src/, tools/ and
perfbench/. Each tree's perfbench is built in its own CARGO_TARGET_DIR
under the work directory (default: a new directory under the system's
temporary directory), by one reduced warm-up run per tree.

Then N pairs of `perfbench/run.py --workload W --seed S --seconds T --trace
X` run, T being BENCHMARK.json's run_seconds, each pair one parent run and
one change run, alternating which side runs first. Per metric that
BENCHMARK.json names, the summary prints both sides' medians with their
interquartile ranges, the median of the per-pair ratios change/parent, and
the pairs the change wins (ties count for neither side). A metric reads "gain" when at least 10 pairs ran, the
change wins at least nine tenths of them and the medians differ by more
than the parent's IQR, and "worse" when the change's median is worse
than the parent's by more than the metric's BENCHMARK.json bound. Each
pair also compares the two runs' `*.counts.json` files, which are
deterministic for a seed.

--record adds the summary to the entry of BENCH_perf.json for PR N
(creating either), which `tools/bench_diff.py BENCH_perf.json --validate`
checks.

Exit status: 0 when every run exited 0 and reported a correct result with no
failed operation, 1 otherwise, 2 on a usage, build or record error.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SCHEMA = "reese-perf-v1"
MIN_PAIRS_FOR_GAIN = 10
# What the benchmark builds and runs: the simulator, reesed and perfbench.
DIGESTED = ("src", "tools", "perfbench")


def fail(message):
    print(f"perf_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_rules(bench):
    """BENCHMARK.json's metrics: name -> (better, bound or None)."""
    rules = {}
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            rules[metric["name"]] = (metric["better"], metric.get("bound"))
    return rules


def quartiles(values):
    """(q1, median, q3), linearly interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, rules):
    """Summary of a list of run records, each {pair, side, result, ...}.

    Returns {"pairs", "all_correct", "counts_identical", "metrics"}, where
    metrics maps each named metric to both sides' median, q1, q3 and iqr,
    the median per-pair ratio change/parent, the change's wins and a
    verdict.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [by_pair[p] for p in sorted(by_pair) if len(by_pair[p]) == 2]
    all_correct = bool(pairs) and len(pairs) == len(by_pair) and all(
        run["exit"] == 0 and run["result"] is not None
        and run["result"].get("correct") is True
        and run["result"].get("failed") == 0
        for pair in pairs for run in pair.values())
    counts = [pair[side].get("counts") for pair in pairs for side in SIDES]
    counts_identical = (None if None in counts else
                        all(pair["parent"]["counts"] == pair["change"]["counts"]
                            for pair in pairs))

    metrics = {}
    names = set()
    for pair in pairs:
        for run in pair.values():
            names.update((run["result"] or {}).get("metrics", {}))
    for name in sorted(names & set(rules)):
        better, bound = rules[name]
        values = {side: [] for side in SIDES}
        ratios, wins, unit = [], 0, None
        for pair in pairs:
            got = [(pair[side]["result"] or {}).get("metrics", {}).get(name)
                   for side in SIDES]
            if None in got:
                continue
            unit = got[0]["unit"]
            parent, change = (m["value"] for m in got)
            values["parent"].append(parent)
            values["change"].append(change)
            if parent != 0:
                ratios.append(change / parent)
            if (change > parent) if better == "higher" else (change < parent):
                wins += 1
        if not values["parent"]:
            continue
        summary = {"unit": unit, "better": better}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            summary[side] = {"median": median, "q1": q1, "q3": q3,
                             "iqr": q3 - q1}
        gap = summary["change"]["median"] - summary["parent"]["median"]
        if better == "lower":
            gap = -gap
        verdict = "-"
        if len(values["parent"]) >= MIN_PAIRS_FOR_GAIN and \
                wins * 10 >= 9 * len(values["parent"]) and \
                gap > summary["parent"]["iqr"]:
            verdict = "gain"
        elif bound is not None and summary["parent"]["median"] != 0 and \
                -gap > bound * abs(summary["parent"]["median"]):
            verdict = "worse"
        summary.update(ratio_median=(statistics.median(ratios) if ratios
                                     else None),
                       wins=wins, verdict=verdict)
        metrics[name] = summary
    return {"pairs": len(pairs), "all_correct": all_correct,
            "counts_identical": counts_identical, "metrics": metrics}


def print_summary(summary, label):
    correct = "all runs correct" if summary["all_correct"] else "FAILED RUNS"
    counts = {True: "identical", False: "DIFFER",
              None: "not compared"}[summary["counts_identical"]]
    print(f"{label}: {summary['pairs']} pairs, {correct}, counts {counts}")
    print(f"{'metric':<26}{'parent median [q1, q3]':>32}"
          f"{'change median [q1, q3]':>32}{'ratio':>8}{'wins':>7}  verdict")
    for name, m in summary["metrics"].items():
        cells = [f"{m[s]['median']:.5g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]"
                 for s in SIDES]
        ratio = "-" if m["ratio_median"] is None else \
            f"{m['ratio_median']:.3f}"
        print(f"{name:<26} {cells[0]:>31} {cells[1]:>31}{ratio:>8}"
              f"{m['wins']:>4}/{summary['pairs']:<2}  {m['verdict']}")


def tree_digest(tree):
    """sha256 (16 hex digits) over the path and bytes of every file under
    DIGESTED that git tracks or would track in the checkout `tree`, in path
    order. A commit of the same files gives the same digest."""
    listed = subprocess.run(
        ["git", "-C", tree, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard", "--", *DIGESTED],
        capture_output=True, text=True, check=True).stdout
    digest = hashlib.sha256()
    for path in sorted(set(listed.split("\0")) - {""}):
        full = os.path.join(tree, path)
        if os.path.isfile(full):  # a deleted file stays listed until staged
            digest.update(path.encode())
            with open(full, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def materialise(spec, side, work_dir):
    """(tree directory, commit label) for a revision or a directory."""
    if os.path.isdir(spec):
        tree = os.path.abspath(spec)
        head = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode != 0:
            return tree, "unversioned"
        dirty = subprocess.run(["git", "-C", tree, "status", "--porcelain"],
                               capture_output=True, text=True).stdout.strip()
        label = head.stdout.strip()
        return tree, label + (f"+tree:{tree_digest(tree)}" if dirty else "")
    found = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                            f"{spec}^{{commit}}"], capture_output=True,
                           text=True)
    if found.returncode != 0:
        fail(f"{spec} is neither a directory nor a revision")
    commit = found.stdout.strip()
    tree = os.path.join(work_dir, f"{side}-tree")
    # A fresh extraction, so no file of an earlier revision stays behind,
    # stamped now (-m): with the commit's older mtimes, a build directory
    # reused from a newer revision would look up to date.
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    extract = subprocess.run(["tar", "-x", "-m", "-C", tree],
                             stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or extract.returncode != 0:
        fail(f"cannot extract {spec} into {tree}")
    return tree, commit


def run_bench(tree, build_dir, args, seconds, extra=()):
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace), *extra]
    counts_path = os.path.join(
        build_dir, "results", f"{args.workload}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}.counts.json")
    if os.path.isfile(counts_path):
        os.remove(counts_path)  # so a run that writes none reads as none
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    counts = None
    if os.path.isfile(counts_path):
        with open(counts_path) as f:
            counts = f.read()
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    return done.returncode, result, counts


def host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def record(path, pr, meta, summary):
    """Add this workload's summary to PR `pr`'s entry in `path`."""
    report = {"schema": SCHEMA, "entries": []}
    if os.path.exists(path):
        with open(path) as f:
            report = json.load(f)
        if report.get("schema") != SCHEMA:
            fail(f"{path} is not a {SCHEMA} report")
    entry = next((e for e in report["entries"] if e["pr"] == pr), None)
    protocol = {k: meta[k] for k in ("commit", "parent", "host", "budget")}
    protocol["pairs"] = summary["pairs"]
    if entry is None:
        entry = {"pr": pr, **protocol, "results": []}
        report["entries"].append(entry)
    elif any(entry[k] != v for k, v in protocol.items()):
        fail(f"PR {pr}'s entry in {path} was measured with another commit, "
             f"parent, host, budget or pair count")
    result = {"workload": meta["workload"], "seed": meta["seed"],
              "all_correct": summary["all_correct"],
              "counts_identical": summary["counts_identical"],
              "metrics": summary["metrics"]}
    entry["results"] = [r for r in entry["results"]
                        if (r["workload"], r["seed"]) !=
                        (result["workload"], result["seed"])] + [result]
    with open(path + ".tmp", "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    os.replace(path + ".tmp", path)


def finish(meta, runs, rules, record_path=None, pr=None):
    """Print the summary of `runs`, record it if asked; the exit status."""
    summary = summarize(runs, rules)
    print(f"parent {meta['parent']} -> change {meta['commit']}; "
          f"{meta['host']['nproc']} x {meta['host']['cpu']}; "
          f"--seconds {meta['budget']['seconds']:g} "
          f"--trace {meta['budget']['trace']}")
    print_summary(summary, f"{meta['workload']} seed {meta['seed']}")
    if record_path:
        record(record_path, pr, meta, summary)
    return 0 if summary["all_correct"] else 1


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0x5EED5EED)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--record", help="BENCH_perf.json to add the "
                                         "summary to")
    parser.add_argument("--pr", type=int, help="the entry --record fills")
    args = parser.parse_args()
    if args.record and args.pr is None:
        fail("--record needs --pr")
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    seconds = bench["run_seconds"]
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="perf_compare_")
    trees, commits, builds = {}, {}, {}
    for side, spec in zip(SIDES, (args.parent, args.change)):
        trees[side], commits[side] = materialise(spec, side, work_dir)
        builds[side] = os.path.join(work_dir, f"{side}-build")
        print(f"perf_compare: building {side} ({commits[side]}) in "
              f"{builds[side]}", file=sys.stderr)
        if run_bench(trees[side], builds[side], args, 0.5,
                     ("--small",))[0] != 0:
            fail(f"the {side} tree's warm-up run failed")
    meta = {"workload": args.workload, "seed": args.seed,
            "commit": commits["change"], "parent": commits["parent"],
            "host": host(), "budget": {"seconds": seconds,
                                       "trace": args.trace}}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            code, result, counts = run_bench(trees[side], builds[side], args,
                                             seconds)
            runs.append({"pair": pair, "side": side, "exit": code,
                         "result": result, "counts": counts})
            kips = (result or {}).get("metrics", {}).get("sim_kips")
            print(f"perf_compare: pair {pair + 1}/{args.pairs} {side}: "
                  f"exit {code}"
                  + (f", sim_kips {kips['value']:.1f}" if kips else ""),
                  file=sys.stderr)
    return finish(meta, runs, metric_rules(bench), args.record, args.pr)


if __name__ == "__main__":
    sys.exit(main())
