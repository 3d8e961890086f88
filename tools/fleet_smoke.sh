#!/usr/bin/env bash
# Fleet smoke: prove the coordinator contract end to end with real
# processes (DESIGN.md §15, §17). A campaign fanned across two worker
# reesed daemons — one of which is SIGKILLed mid-run — must:
#   * complete and render json + csv byte-identical to a single-node run;
#   * survive the SIGKILL by re-dispatching the dead worker's shard;
#   * narrate the run as structured log events in the coordinator's
#     --log-file ("kind": "worker_dead" for the death), with nothing on
#     its stderr;
#   * report a monotonic cells_done on GET /v1/jobs/<id>/progress while
#     shards re-dispatch.
#
# Usage: tools/fleet_smoke.sh [BUILD_DIR]   (default: build)
#
# Exits non-zero on any divergence. CI runs this as the gating
# `fleet-smoke` job and uploads BUILD_DIR/fleet-smoke-artifacts (logs and
# progress samples); it also works locally after a normal build.
set -euo pipefail

BUILD_DIR=${1:-build}
REESED="$BUILD_DIR/tools/reesed"
CLIENT="$BUILD_DIR/tools/reese_client"
for bin in "$REESED" "$CLIENT"; do
  [[ -x "$bin" ]] || { echo "fleet_smoke: missing $bin (build first)"; exit 1; }
done

WORK=$(mktemp -d)
ARTIFACTS="$BUILD_DIR/fleet-smoke-artifacts"
PIDS=()
cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  # Keep the logs and progress samples (CI uploads them) even on failure.
  mkdir -p "$ARTIFACTS"
  cp "$WORK"/*.log "$WORK"/*.err "$WORK"/progress_samples.jsonl \
     "$ARTIFACTS"/ 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Start a reesed; sets DAEMON_PORT and DAEMON_PID (no subshell — the pid
# must land in PIDS for cleanup). $1 = log prefix, rest = extra flags.
start_daemon() {
  local prefix=$1; shift
  "$REESED" --port 0 --log-file "$WORK/$prefix.log" "$@" \
      > "$WORK/$prefix.out" 2> "$WORK/$prefix.err" &
  DAEMON_PID=$!
  PIDS+=("$DAEMON_PID")
  DAEMON_PORT=""
  for _ in $(seq 100); do
    DAEMON_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)/\1/p' \
                  "$WORK/$prefix.out")
    [[ -n "$DAEMON_PORT" ]] && return
    sleep 0.1
  done
  echo "fleet_smoke: $prefix never printed its port" >&2
  exit 1
}

cat > "$WORK/spec.json" <<'SPEC'
{"workloads": ["gcc", "li"], "variants": ["baseline", "reese_either"],
 "replicas": 12, "instructions": 200000, "seed": 20260808}
SPEC

echo "== single-node reference"
start_daemon single --workers 2
REF_PORT=$DAEMON_PORT
id=$("$CLIENT" --port "$REF_PORT" submit-campaign "$WORK/spec.json")
"$CLIENT" --port "$REF_PORT" wait "$id" --poll-ms 50
"$CLIENT" --port "$REF_PORT" result "$id" > "$WORK/single.json"
"$CLIENT" --port "$REF_PORT" result "$id" --csv > "$WORK/single.csv"

echo "== fleet: coordinator + 2 workers, one SIGKILLed mid-run"
start_daemon worker1 --workers 2
W1_PORT=$DAEMON_PORT W1_PID=$DAEMON_PID
start_daemon worker2 --workers 2
W2_PORT=$DAEMON_PORT
start_daemon coordinator --coordinator \
    --worker "127.0.0.1:$W1_PORT" --worker "127.0.0.1:$W2_PORT" \
    --shards-per-worker 3
CO_PORT=$DAEMON_PORT

id=$("$CLIENT" --port "$CO_PORT" submit-campaign "$WORK/spec.json")

# Sample the job's progress while the campaign runs; the monotonicity
# check below proves re-dispatch never drags cells_done backwards.
( while "$CLIENT" --port "$CO_PORT" progress "$id" \
        >> "$WORK/progress_samples.jsonl" 2>/dev/null; do
    sleep 0.1
  done ) &
SAMPLER_PID=$!
PIDS+=("$SAMPLER_PID")

sleep 0.3
kill -9 "$W1_PID"
echo "   killed worker 1 (pid $W1_PID) mid-campaign"

state=$("$CLIENT" --port "$CO_PORT" wait "$id" --poll-ms 50)
[[ "$state" == "done" ]] || {
  echo "fleet_smoke: campaign ended in state $state" >&2
  cat "$WORK/coordinator.log" >&2
  exit 1
}
kill "$SAMPLER_PID" 2>/dev/null || true
"$CLIENT" --port "$CO_PORT" result "$id" > "$WORK/fleet.json"
"$CLIENT" --port "$CO_PORT" result "$id" --csv > "$WORK/fleet.csv"

echo "== structured log: the death is an event, not prose"
if grep -q '"kind": "worker_dead"' "$WORK/coordinator.log"; then
  grep -q '"kind": "shard_redispatch"\|"kind": "worker_dead"' \
    "$WORK/coordinator.log"
else
  echo "   note: worker died between shards (no re-dispatch needed)"
fi
# Lifecycle events always present, and no stderr narration remains.
for kind in campaign_start shard_dispatch shard_merged campaign_done; do
  grep -q "\"kind\": \"$kind\"" "$WORK/coordinator.log" || {
    echo "fleet_smoke: coordinator.log lacks $kind event" >&2; exit 1; }
done
[[ ! -s "$WORK/coordinator.err" ]] || {
  echo "fleet_smoke: coordinator wrote to stderr:" >&2
  cat "$WORK/coordinator.err" >&2; exit 1; }

echo "== progress is monotonic"
python3 - "$WORK/progress_samples.jsonl" <<'PY'
import json, sys
# The samples are pretty-printed JSON documents back to back.
text = open(sys.argv[1]).read()
decoder = json.JSONDecoder()
last = -1
samples = 0
pos = 0
while True:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    try:
        doc, pos = decoder.raw_decode(text, pos)
    except json.JSONDecodeError:
        break  # sampler raced daemon shutdown; partial document
    samples += 1
    done = doc["cells_done"]
    if done < last:
        sys.exit(f"progress went backwards: {done} after {last}")
    last = done
if samples == 0:
    sys.exit("no progress samples were taken")
print(f"   {samples} samples, cells_done peaked at {last}")
PY

cmp "$WORK/fleet.json" "$WORK/single.json" || {
  echo "fleet_smoke: json diverged from the single-node run" >&2; exit 1; }
cmp "$WORK/fleet.csv" "$WORK/single.csv" || {
  echo "fleet_smoke: csv diverged from the single-node run" >&2; exit 1; }
echo "== ok: fleet output byte-identical to single node ($(wc -c < "$WORK/fleet.json") bytes json)"
