#!/usr/bin/env python3
"""Compare two benchmark reports produced by this repo's harnesses.

Usage: bench_diff.py BEFORE.json AFTER.json [--threshold PCT] [--markdown PATH]
       bench_diff.py REPORT.json --validate

Auto-detects the report kind:
  * BENCH_fault.json (bench/fault_coverage, schema
    reese-fault-campaign-v1): per-variant coverage with Wilson bounds.
    Exits 1 when any variant's coverage drops by more than --threshold
    percentage points, or a full-coverage variant gains escapes.
  * BENCH_avf.json (bench/avf_validate, schema reese-avf-v1 kind
    "validation"): per-program Spearman rank correlation between the
    static srv-vuln ranking and measured per-PC fault outcomes. Exits 1
    when any program's rho_window drops by more than --rho-threshold
    (default 0.15, absolute), or a previously-passing program now fails.
  * BENCH_cavf.json (bench/component_avf, schema reese-cavf-v1):
    per-component detection/AVF with Wilson bounds. Exits 1 when any
    site's detection rate drops by more than --threshold percentage
    points, or a site that had zero SDC gains some.
  * BENCH_overnight.json (bench/reese_figs --out, schema
    reese-overnight-v1): per-figure average IPC, at paper scale under the
    `overnight` target. Exits 1 when any figure/model average drops by
    more than --threshold percent.

--validate checks a single report's shape against its schema (currently
reese-overnight-v1) without comparing anything; exits 2 on a malformed
report. The CI `figures` job uses this to gate the artifact upload on
well-formedness; the figure numbers themselves are not gated.

--markdown PATH appends a GitHub-flavoured markdown rendition of the same
table to PATH (use $GITHUB_STEP_SUMMARY in CI to surface the diff on the
workflow run page, or a scratch file to post as a PR comment).

Exits 2 on malformed or mismatched input, or on a report of unknown kind.
Host throughput is not diffed here: perfbench/run.py (BENCHMARK.json) is
the throughput benchmark.
"""

import argparse
import json
import sys


class MarkdownSink:
    """Accumulates a markdown rendition of the diff; no-op when path is None."""

    def __init__(self, path):
        self.path = path
        self.lines = []

    def add(self, line=""):
        if self.path is not None:
            self.lines.append(line)

    def flush(self):
        if self.path is None or not self.lines:
            return
        try:
            with open(self.path, "a") as f:
                f.write("\n".join(self.lines) + "\n")
        except OSError as e:
            print(f"bench_diff: cannot write markdown to {self.path}: {e}",
                  file=sys.stderr)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def pct_change(before, after):
    if before == 0:
        return 0.0
    return 100.0 * (after - before) / before


def report_kind(report):
    if not isinstance(report, dict):
        return "unknown"
    if report.get("schema") == "reese-fault-campaign-v1":
        return "fault"
    if report.get("schema") == "reese-avf-v1":
        return "avf"
    if report.get("schema") == "reese-cavf-v1":
        return "cavf"
    if report.get("schema") == "reese-overnight-v1":
        return "overnight"
    return "unknown"


def validate_overnight(report):
    """Returns a list of schema problems (empty when well-formed)."""
    problems = []
    if report.get("schema") != "reese-overnight-v1":
        return [f"schema is {report.get('schema')!r}, "
                f"expected 'reese-overnight-v1'"]
    if not isinstance(report.get("instructions"), int) \
            or report["instructions"] <= 0:
        problems.append("'instructions' must be a positive integer")
    if not isinstance(report.get("git_sha"), str):
        problems.append("'git_sha' must be a string (may be empty)")
    figures = report.get("figures")
    if not isinstance(figures, list) or not figures:
        return problems + ["'figures' must be a non-empty array"]
    for i, fig in enumerate(figures):
        where = f"figures[{i}]"
        if not isinstance(fig, dict):
            problems.append(f"{where} must be an object")
            continue
        name = fig.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where} needs a non-empty 'name'")
        where = f"figures[{i}] ({name})"
        workloads = fig.get("workloads")
        models = fig.get("models")
        for key, value in (("workloads", workloads), ("models", models)):
            if not isinstance(value, list) or not value \
                    or not all(isinstance(v, str) for v in value):
                problems.append(f"{where}: '{key}' must be a non-empty "
                                f"array of strings")
        for key in ("average", "overhead_pct"):
            values = fig.get(key)
            if not isinstance(values, list) \
                    or not all(isinstance(v, (int, float)) for v in values) \
                    or (isinstance(models, list) and len(values) != len(models)):
                problems.append(f"{where}: '{key}' must be numbers, one per "
                                f"model")
        ipc = fig.get("ipc")
        if not isinstance(ipc, list) \
                or (isinstance(workloads, list) and len(ipc) != len(workloads)) \
                or not all(isinstance(row, list)
                           and (not isinstance(models, list)
                                or len(row) == len(models))
                           and all(isinstance(v, (int, float)) for v in row)
                           for row in ipc):
            problems.append(f"{where}: 'ipc' must be a workloads x models "
                            f"number matrix")
        if not isinstance(fig.get("wall_seconds"), (int, float)):
            problems.append(f"{where}: 'wall_seconds' must be a number")
    return problems


def diff_overnight(before, after, threshold, md):
    before_figs = {f.get("name"): f for f in before.get("figures", [])}
    after_figs = {f.get("name"): f for f in after.get("figures", [])}

    if before.get("instructions") != after.get("instructions"):
        print(f"bench_diff: warning: overnight budgets differ "
              f"({before.get('instructions')} vs {after.get('instructions')})",
              file=sys.stderr)

    md.add("### Paper-scale figures (overnight)")
    md.add()
    md.add("| figure | model | before | after | change |")
    md.add("|---|---|---:|---:|---:|")
    print(f"{'figure':<18}{'model':<18}{'before':>9}{'after':>9}{'change':>9}")
    regressions = []
    for name in sorted(set(before_figs) | set(after_figs)):
        b = before_figs.get(name)
        a = after_figs.get(name)
        if b is None or a is None:
            side = "before" if b is None else "after"
            print(f"{name:<18}{'(missing in ' + side + ')':>30}")
            md.add(f"| {name} | (missing in {side}) | | | |")
            continue
        models = b.get("models", [])
        for m, model in enumerate(models):
            if m >= len(a.get("average", [])) or m >= len(b.get("average", [])):
                continue
            b_avg = b["average"][m]
            a_avg = a["average"][m]
            change = pct_change(b_avg, a_avg)
            print(f"{name:<18}{model:<18}{b_avg:>9.3f}{a_avg:>9.3f}"
                  f"{change:>+8.1f}%")
            flag = " :warning:" if change < -threshold else ""
            md.add(f"| {name} | {model} | {b_avg:.3f} | {a_avg:.3f} | "
                   f"{change:+.1f}%{flag} |")
            if change < -threshold:
                regressions.append((f"{name}/{model}", change))

    for name, change in regressions:
        print(f"bench_diff: REGRESSION {name}: {change:+.1f}% "
              f"(threshold -{threshold}%)", file=sys.stderr)
    md.add()
    if regressions:
        md.add(f"**{len(regressions)} regression(s)** beyond the "
               f"-{threshold}% threshold.")
    else:
        md.add(f"No regressions beyond the -{threshold}% threshold.")
    return 1 if regressions else 0


def diff_fault(before, after, threshold, md):
    before_variants = {v["label"]: v for v in before.get("variants", [])}
    after_variants = {v["label"]: v for v in after.get("variants", [])}

    for key in ("instructions", "replicas", "rate", "seed"):
        if before.get(key) != after.get(key):
            print(f"bench_diff: warning: campaign {key} differs "
                  f"({before.get(key)} vs {after.get(key)}); coverage is "
                  f"still comparable but injection streams are not",
                  file=sys.stderr)

    print(f"total injections {before.get('total_injections', 0)} -> "
          f"{after.get('total_injections', 0)}")
    md.add("### Fault-injection coverage (fault_coverage)")
    md.add()
    md.add(f"Total injections: {before.get('total_injections', 0)} → "
           f"{after.get('total_injections', 0)}")
    md.add()
    md.add("| variant | cov before | cov after | change | wilson lo "
           "| escapes |")
    md.add("|---|---:|---:|---:|---:|---:|")
    print(f"{'variant':<16}{'cov before':>12}{'cov after':>12}{'change':>9}"
          f"{'wilson lo':>11}{'escapes':>9}")
    regressions = []
    for name in sorted(set(before_variants) | set(after_variants)):
        b = before_variants.get(name)
        a = after_variants.get(name)
        if b is None or a is None:
            side = "before" if b is None else "after"
            print(f"{name:<16}{'(missing in ' + side + ')':>33}")
            md.add(f"| {name} | (missing in {side}) | | | | |")
            continue
        b_cov = 100.0 * b.get("coverage", 0.0)
        a_cov = 100.0 * a.get("coverage", 0.0)
        delta = a_cov - b_cov
        print(f"{name:<16}{b_cov:>11.3f}%{a_cov:>11.3f}%{delta:>+8.3f}%"
              f"{100.0 * a.get('wilson_lower', 0.0):>10.3f}%"
              f"{a.get('undetected', 0):>9}")
        flag = ""
        if delta < -threshold:
            regressions.append((name, f"coverage {delta:+.3f}pp "
                                      f"(threshold -{threshold}pp)"))
            flag = " :warning:"
        if (a.get("expect_full_coverage") and a.get("undetected", 0) > 0
                and b.get("undetected", 0) == 0):
            regressions.append((name, f"{a['undetected']} new escapes in a "
                                      f"full-coverage variant"))
            flag = " :warning:"
        md.add(f"| {name} | {b_cov:.3f}% | {a_cov:.3f}% | {delta:+.3f}%{flag} "
               f"| {100.0 * a.get('wilson_lower', 0.0):.3f}% "
               f"| {a.get('undetected', 0)} |")

    for name, why in regressions:
        print(f"bench_diff: REGRESSION {name}: {why}", file=sys.stderr)
    md.add()
    if regressions:
        md.add(f"**{len(regressions)} regression(s)**: "
               + "; ".join(f"{name} — {why}" for name, why in regressions))
    else:
        md.add(f"No coverage regressions beyond the -{threshold}pp threshold.")
    return 1 if regressions else 0


def diff_avf(before, after, rho_threshold, md):
    before_programs = {p["name"]: p for p in before.get("programs", [])}
    after_programs = {p["name"]: p for p in after.get("programs", [])}

    for key in ("replicas", "rate", "seed", "min_rho"):
        if before.get(key) != after.get(key):
            print(f"bench_diff: warning: validation {key} differs "
                  f"({before.get(key)} vs {after.get(key)}); correlations "
                  f"are still comparable but not the same experiment",
                  file=sys.stderr)

    md.add("### AVF cross-validation (avf_validate)")
    md.add()
    md.add("| program | rho before | rho after | change | injected | pass |")
    md.add("|---|---:|---:|---:|---:|---|")
    print(f"{'program':<14}{'rho before':>12}{'rho after':>12}{'change':>9}"
          f"{'injected':>10}{'pass':>6}")
    regressions = []
    for name in sorted(set(before_programs) | set(after_programs)):
        b = before_programs.get(name)
        a = after_programs.get(name)
        if b is None or a is None:
            side = "before" if b is None else "after"
            print(f"{name:<14}{'(missing in ' + side + ')':>33}")
            md.add(f"| {name} | (missing in {side}) | | | | |")
            continue
        b_rho = b.get("rho_window", 0.0)
        a_rho = a.get("rho_window", 0.0)
        delta = a_rho - b_rho
        verdict = "yes" if a.get("pass") else "NO"
        print(f"{name:<14}{b_rho:>+12.3f}{a_rho:>+12.3f}{delta:>+9.3f}"
              f"{a.get('injected', 0):>10}{verdict:>6}")
        flag = ""
        if delta < -rho_threshold:
            regressions.append((name, f"rho_window {delta:+.3f} "
                                      f"(threshold -{rho_threshold})"))
            flag = " :warning:"
        if b.get("pass") and not a.get("pass"):
            regressions.append((name, "was passing, now below min_rho"))
            flag = " :warning:"
        md.add(f"| {name} | {b_rho:+.3f} | {a_rho:+.3f} | {delta:+.3f}{flag} "
               f"| {a.get('injected', 0)} | {verdict} |")

    for name, why in regressions:
        print(f"bench_diff: REGRESSION {name}: {why}", file=sys.stderr)
    md.add()
    if regressions:
        md.add(f"**{len(regressions)} regression(s)**: "
               + "; ".join(f"{name} — {why}" for name, why in regressions))
    else:
        md.add(f"No rank-correlation regressions beyond the "
               f"-{rho_threshold} threshold.")
    return 1 if regressions else 0


def diff_cavf(before, after, threshold, md):
    before_sites = {s["label"]: s for s in before.get("sites", [])}
    after_sites = {s["label"]: s for s in after.get("sites", [])}

    for key in ("instructions", "replicas", "rate", "seed"):
        if before.get(key) != after.get(key):
            print(f"bench_diff: warning: campaign {key} differs "
                  f"({before.get(key)} vs {after.get(key)}); rates are "
                  f"still comparable but strike streams are not",
                  file=sys.stderr)

    md.add("### Per-component AVF (component_avf)")
    md.add()
    md.add("| site | det before | det after | change | sdc | cov loss |")
    md.add("|---|---:|---:|---:|---:|---:|")
    print(f"{'site':<20}{'det before':>12}{'det after':>12}{'change':>9}"
          f"{'sdc':>7}{'cov loss':>10}")
    regressions = []
    for name in sorted(set(before_sites) | set(after_sites)):
        b = before_sites.get(name)
        a = after_sites.get(name)
        if b is None or a is None:
            side = "before" if b is None else "after"
            print(f"{name:<20}{'(missing in ' + side + ')':>33}")
            md.add(f"| {name} | (missing in {side}) | | | | |")
            continue
        b_det = 100.0 * b.get("detection", 0.0)
        a_det = 100.0 * a.get("detection", 0.0)
        delta = a_det - b_det
        print(f"{name:<20}{b_det:>11.3f}%{a_det:>11.3f}%{delta:>+8.3f}%"
              f"{a.get('sdc', 0):>7}{a.get('coverage_loss', 0):>10}")
        flag = ""
        if delta < -threshold:
            regressions.append((name, f"detection {delta:+.3f}pp "
                                      f"(threshold -{threshold}pp)"))
            flag = " :warning:"
        if b.get("sdc", 0) == 0 and a.get("sdc", 0) > 0:
            regressions.append((name, f"{a['sdc']} new SDC outcomes in a "
                                      f"previously SDC-free site"))
            flag = " :warning:"
        md.add(f"| {name} | {b_det:.3f}% | {a_det:.3f}% | {delta:+.3f}%{flag} "
               f"| {a.get('sdc', 0)} | {a.get('coverage_loss', 0)} |")

    for name, why in regressions:
        print(f"bench_diff: REGRESSION {name}: {why}", file=sys.stderr)
    md.add()
    if regressions:
        md.add(f"**{len(regressions)} regression(s)**: "
               + "; ".join(f"{name} — {why}" for name, why in regressions))
    else:
        md.add(f"No detection regressions beyond the -{threshold}pp "
               f"threshold.")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("before")
    parser.add_argument("after", nargs="?")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check a single report instead of "
                             "diffing two (currently reese-overnight-v1)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold: percent average-IPC "
                             "drop (overnight) or percentage points of "
                             "coverage (fault) or detection (cavf); "
                             "default 10")
    parser.add_argument("--rho-threshold", type=float, default=0.15,
                        help="regression threshold for avf reports: absolute "
                             "Spearman rho_window drop; default 0.15")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="append a markdown rendition of the diff to "
                             "PATH (e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args()

    before = load(args.before)

    if args.validate:
        kind = report_kind(before)
        if kind != "overnight":
            print(f"bench_diff: --validate supports reese-overnight-v1 "
                  f"reports, got kind {kind}", file=sys.stderr)
            sys.exit(2)
        problems = validate_overnight(before)
        for problem in problems:
            print(f"bench_diff: {args.before}: {problem}", file=sys.stderr)
        if problems:
            sys.exit(2)
        print(f"bench_diff: {args.before}: valid reese-overnight-v1 "
              f"({len(before['figures'])} figures, "
              f"{before['instructions']} instructions/cell)")
        sys.exit(0)

    if args.after is None:
        print("bench_diff: AFTER.json required unless --validate",
              file=sys.stderr)
        sys.exit(2)
    after = load(args.after)

    kinds = (report_kind(before), report_kind(after))
    if kinds[0] != kinds[1] or kinds[0] == "unknown":
        print(f"bench_diff: cannot compare report kinds {kinds[0]} vs "
              f"{kinds[1]}", file=sys.stderr)
        sys.exit(2)

    md = MarkdownSink(args.markdown)
    if kinds[0] == "fault":
        status = diff_fault(before, after, args.threshold, md)
    elif kinds[0] == "avf":
        status = diff_avf(before, after, args.rho_threshold, md)
    elif kinds[0] == "cavf":
        status = diff_cavf(before, after, args.threshold, md)
    else:
        status = diff_overnight(before, after, args.threshold, md)
    md.flush()
    sys.exit(status)


if __name__ == "__main__":
    main()
