#!/usr/bin/env python3
"""Name the first instruction whose timing differs between two traces.

Usage: trace_diff.py A.json B.json

A and B are Chrome trace_event files written by reese_cli --trace-out
(core::Tracer, DESIGN.md §12), typically the same run from two builds or
two configurations. The true-path lifecycles of both are paired by seq:
the P-stream slice gives dispatch (its start) and writeback (its end), the
R-stream slice gives R-issue and R-compare. The first seq in program order
whose four cycles differ, or that only one trace holds, is printed with its
pc, its instruction and each stage that differs.

Exit status: 0 when every paired lifecycle matches, 1 at the first
difference, 2 on usage or unreadable input.
"""

import json
import sys

P_STREAM_TID = 0
R_STREAM_TID = 1
STAGES = ("dispatch", "writeback", "R-issue", "R-compare")


class TraceError(Exception):
    pass


def lifecycles(path):
    """seq -> {"pc", "inst", stage: cycle} for the true path of `path`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise TraceError(f"{path}: {error}") from error
    rows = {}
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args", {})
        if args.get("spec") is not False:
            continue  # wrong-path entries share their seq; skip them
        try:
            seq, start = int(args["seq"]), int(event["ts"])
            end = start + int(event["dur"])
        except (KeyError, TypeError, ValueError) as error:
            raise TraceError(f"{path}: malformed slice {event}") from error
        row = rows.setdefault(seq, {"pc": args.get("pc"),
                                    "inst": event.get("name")})
        if event.get("tid") == P_STREAM_TID:
            row["dispatch"], row["writeback"] = start, end
        elif event.get("tid") == R_STREAM_TID:
            row["R-issue"], row["R-compare"] = start, end
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        a, b = lifecycles(argv[1]), lifecycles(argv[2])
    except TraceError as error:
        print(f"trace_diff: {error}", file=sys.stderr)
        return 2
    for seq in sorted(a.keys() | b.keys()):
        row = a.get(seq) or b.get(seq)
        where = f"seq {seq} (pc {row['pc']}, {row['inst']})"
        if seq not in a or seq not in b:
            only = argv[1] if seq in a else argv[2]
            print(f"trace_diff: first difference at {where}: "
                  f"only {only} holds it")
            return 1
        differing = [stage for stage in STAGES
                     if a[seq].get(stage) != b[seq].get(stage)]
        if differing:
            print(f"trace_diff: first difference at {where}")
            for stage in differing:
                print(f"  {stage}: {a[seq].get(stage, '-')} in {argv[1]}, "
                      f"{b[seq].get(stage, '-')} in {argv[2]}")
            return 1
    print(f"trace_diff: {len(a)} true-path lifecycles match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
