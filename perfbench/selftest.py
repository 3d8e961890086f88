#!/usr/bin/env python3
"""Self-test of the repository benchmark, at reduced sizes (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs an untraced and a traced reduced-size run and
checks that each exits 0 with a correct result whose metrics are exactly the
ones BENCHMARK.json names, with their units, and that the report prints the
workload's named end-to-end metrics. Then it runs every workload against a
deliberately wrong reference and checks that the run fails. Exit status 0
when all checks pass.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics each workload's untraced report must print by name, with a unit.
PRINTED = {
    "figure_grid": ["sim_kips"],
    "fault_campaign": ["injections_per_s"],
    "reesed_jobs": ["jobs_per_s", "job_latency_p50_ms", "job_latency_p95_ms"],
}
PRINTED_EVERYWHERE = ["setup_s", "peak_rss_mb", "failed_frac"]


def run(workload, trace, corrupt=False):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--trace", str(trace), "--small",
               "--seconds", "0.5"]
    if corrupt:
        command.append("--corrupt-reference")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, done.stdout, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []

    def expect(condition, message):
        if not condition:
            errors.append(message)
            print("FAIL:", message)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            rc, stdout, result = run(workload, trace)
            expect(rc == 0, f"{tag}: exit status {rc}")
            expect(result is not None, f"{tag}: no result line")
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{tag}: not correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{tag}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(got) ^ set(wanted[trace]))}")
            if trace == 0:
                for name in PRINTED[workload] + PRINTED_EVERYWHERE:
                    expect(re.search(rf"^metric {re.escape(name)} = \S+ \S+",
                                     stdout, re.M),
                           f"{tag}: metric {name} not printed with a unit")
            print(f"ok: {tag}")

        rc, _, result = run(workload, 0, corrupt=True)
        expect(rc != 0 and result is not None and result["failed"] > 0
               and result["correct"] is False,
               f"{workload}: a wrong reference was not reported as a failure")
        print(f"ok: {workload} --corrupt-reference fails")

    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
