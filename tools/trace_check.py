#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file emitted by ChromeTraceTracer
(core/chrome_trace.h).

Usage: trace_check.py TRACE.json [TRACE.json ...]

Checks that the file is loadable by Perfetto / chrome://tracing and that it
keeps the invariants DESIGN.md §12 promises:

  * top level is {"traceEvents": [...]};
  * every event has a name, a known phase, and integer pid/tid;
  * duration events ("X") carry ts >= 0 and dur >= 0;
  * every flow start ("s") has a matching finish ("f") with the same id,
    and the finish never happens before the start;
  * instant events ("i") are restricted to the documented names;
  * the P-stream and R-stream thread_name metadata events are present;
  * R-stream slices never begin before the matching P-stream slice's start
    (an R-execution cannot precede its own dispatch).

Exit status: 0 when every file passes, 1 on any violation, 2 on usage or
unreadable input. Independent of the simulator build — CI can run it on an
archived trace artifact alone.
"""

import json
import sys

KNOWN_PHASES = {"X", "M", "i", "s", "f"}
KNOWN_INSTANTS = {"squash", "error-detected"}
P_STREAM_TID = 0
R_STREAM_TID = 1


def fail(path, index, message):
    print(f"trace_check: {path}: event {index}: {message}")
    return False


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"trace_check: {path}: {error}")
        return False

    if not isinstance(document, dict) or "traceEvents" not in document:
        print(f"trace_check: {path}: top level must be {{\"traceEvents\": [...]}}")
        return False
    events = document["traceEvents"]
    if not isinstance(events, list):
        print(f"trace_check: {path}: traceEvents must be an array")
        return False

    ok = True
    thread_names = {}
    flow_starts = {}  # id -> ts
    flow_finishes = {}  # id -> ts
    p_slice_start = {}  # seq -> ts of the P-stream slice
    r_slices = []  # (index, seq, ts)

    for index, event in enumerate(events):
        if not isinstance(event, dict):
            ok = fail(path, index, "event is not an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            ok = fail(path, index, f"unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            ok = fail(path, index, "missing or empty name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                ok = fail(path, index, f"missing integer {key}")

        if phase == "M":
            if event["name"] == "thread_name":
                thread_names[event.get("tid")] = event.get("args", {}).get("name")
            continue

        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            ok = fail(path, index, "missing non-negative integer ts")
            continue

        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                ok = fail(path, index, "duration event without dur >= 0")
                continue
            args = event.get("args", {})
            seq = args.get("seq")
            if seq is None:
                ok = fail(path, index, "slice without args.seq")
            else:
                # Wrong-path entries may reuse a true-path seq, so slices
                # are matched on (seq, spec).
                slice_key = (seq, bool(args.get("spec")))
                if event["tid"] == P_STREAM_TID:
                    p_slice_start[slice_key] = ts
                elif event["tid"] == R_STREAM_TID:
                    r_slices.append((index, slice_key, ts))
        elif phase == "i":
            if event["name"] not in KNOWN_INSTANTS:
                ok = fail(path, index, f"unknown instant {event['name']!r}")
        elif phase == "s":
            flow_id = event.get("id")
            if flow_id is None:
                ok = fail(path, index, "flow start without id")
            elif flow_id in flow_starts:
                ok = fail(path, index, f"duplicate flow start id {flow_id}")
            else:
                flow_starts[flow_id] = ts
        elif phase == "f":
            flow_id = event.get("id")
            if flow_id is None:
                ok = fail(path, index, "flow finish without id")
            elif flow_id in flow_finishes:
                ok = fail(path, index, f"duplicate flow finish id {flow_id}")
            else:
                flow_finishes[flow_id] = ts

    if thread_names.get(P_STREAM_TID) != "P-stream" or (
        thread_names.get(R_STREAM_TID) != "R-stream"
    ):
        print(f"trace_check: {path}: missing P-stream/R-stream thread_name "
              f"metadata (got {thread_names})")
        ok = False

    for flow_id, ts in flow_starts.items():
        if flow_id not in flow_finishes:
            print(f"trace_check: {path}: flow id {flow_id} starts but never "
                  f"finishes")
            ok = False
        elif flow_finishes[flow_id] < ts:
            print(f"trace_check: {path}: flow id {flow_id} finishes at "
                  f"{flow_finishes[flow_id]} before its start at {ts}")
            ok = False
    for flow_id in flow_finishes:
        if flow_id not in flow_starts:
            print(f"trace_check: {path}: flow id {flow_id} finishes but "
                  f"never starts")
            ok = False

    for index, slice_key, ts in r_slices:
        if slice_key in p_slice_start and ts < p_slice_start[slice_key]:
            ok = fail(path, index,
                      f"R-stream slice for seq {slice_key[0]} starts at {ts}, "
                      f"before its P-stream slice at {p_slice_start[slice_key]}")

    if ok:
        slices = sum(1 for e in events
                     if isinstance(e, dict) and e.get("ph") == "X")
        print(f"trace_check: {path}: OK ({len(events)} events, "
              f"{slices} slices, {len(flow_starts)} flows)")
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[3])
        return 2
    ok = True
    for path in argv[1:]:
        ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
