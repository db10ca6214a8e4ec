#!/usr/bin/env bash
#
# cobra_serve end-to-end smoke: the CI leg of docs/SERVICE.md's
# robustness claims. Exercises, against a real daemon process:
#
#   1. a mixed spool: a healthy grid, a fault-injected grid, and an
#      invalid request — per-point records, schema-valid result and
#      status documents, explicit rejection;
#   2. graceful drain: SIGTERM once the first point is journaled exits
#      0 with a checkpointed journal, a "stopped" status document and
#      interrupted work left queued or parked;
#   3. crash recovery: kill -9 mid-run, restart on the same spool,
#      and verify the journaled points were republished verbatim
#      rather than re-simulated;
#   4. the watch loop: at a 30 s poll, a request renamed into an idle
#      daemon's incoming/ gets its result within 5 s, and SIGTERM
#      ends the idle daemon within 5 s; --poll-ms 0 is a usage error.
#
# Usage: tools/serve_smoke.sh [path-to-cobra_serve]
set -euo pipefail

SERVE="${1:-build/tools/cobra_serve}"
CHECK="$(dirname "$0")/check_stats_schema.py"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/cobra_serve_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

say() { printf '\n=== %s ===\n' "$*"; }
die() { printf 'serve_smoke: FAIL: %s\n' "$*" >&2; exit 1; }

submit() { # submit <spool> <name> <json-text>
    printf '%s' "$3" > "$1/incoming/$2.tmp"
    mv "$1/incoming/$2.tmp" "$1/incoming/$2"
}

# await_point <spool> <pid>: wait until the daemon <pid> journals its
# first completed point; kill it and fail after 20 s.
await_point() {
    for _ in $(seq 1 200); do
        if [ -f "$1/journal.log" ] \
            && grep -q '"ev": "point"' "$1/journal.log"; then
            return 0
        fi
        sleep 0.1
    done
    kill -9 "$2" 2>/dev/null || true
    die "no point completed within 20 s"
}

# ---------------------------------------------------------------------
say "leg 1: mixed spool, --once drain"
S1="$WORK/spool1"
mkdir -p "$S1/incoming"

submit "$S1" healthy.json '{
  "id": "healthy", "client": "ci", "priority": 2,
  "designs": ["tagel", "b2"], "workloads": ["leela"],
  "insts": 30000, "warmup": 5000}'
submit "$S1" faulty.json '{
  "id": "faulty", "client": "ci",
  "designs": ["b2"], "workloads": ["x264"],
  "insts": 30000, "warmup": 5000,
  "fault_rate": 1e-4, "fault_seed": 7}'
# Unknown design: must become an explicit rejection, not silence.
submit "$S1" invalid.json '{
  "id": "invalid", "client": "ci",
  "designs": ["warpcore"], "workloads": ["leela"]}'

"$SERVE" --spool "$S1" --jobs 2 --once --verbose

[ -f "$S1/done/healthy.json" ]    || die "healthy request not retired to done/"
[ -f "$S1/done/faulty.json" ]     || die "faulty request not retired to done/"
[ -f "$S1/failed/invalid.json" ]  || die "invalid request not moved to failed/"

python3 "$CHECK" --kind serve-result "$S1/results/healthy.json"
python3 "$CHECK" --kind serve-result "$S1/results/faulty.json"
python3 "$CHECK" --kind serve-result "$S1/results/invalid.json"
python3 "$CHECK" --kind serve-status "$S1/status.json"

python3 - "$S1" <<'EOF'
import json, sys
root = sys.argv[1]
healthy = json.load(open(f"{root}/results/healthy.json"))
assert healthy["status"] == "ok", healthy["status"]
labels = [p["label"] for p in healthy["points"]]
assert labels == ["TAGE-L/leela", "B2/leela"], labels
assert all(p["status"] == "ok" and p["attempts"] == 1
           for p in healthy["points"])
faulty = json.load(open(f"{root}/results/faulty.json"))
assert faulty["points"][0]["faults_injected"] > 0, "no faults injected"
invalid = json.load(open(f"{root}/results/invalid.json"))
assert invalid["status"] == "rejected", invalid["status"]
assert invalid["reason"] == "invalid_request", invalid["reason"]
assert "design" in invalid["detail"], invalid["detail"]
status = json.load(open(f"{root}/status.json"))
assert status["state"] == "stopped" and status["retired"] == 2, status
counters = status["stats"]["serve"]["counters"]
assert counters["accepted"] == 2 and counters["rejected"] == 1, counters
assert counters["points_ok"] == 3, counters
print("leg 1 OK: 2 retired, 1 rejected, 3 points ok")
EOF

# ---------------------------------------------------------------------
say "leg 2: SIGTERM graceful drain"
S2="$WORK/spool2"
mkdir -p "$S2/incoming"
# Enough queued work that the drain provably interrupts some of it.
for i in 1 2 3 4; do
    submit "$S2" "drain$i.json" '{
      "id": "drain'"$i"'", "client": "ci",
      "designs": ["tagel", "b2", "tourney"], "workloads": ["leela"],
      "insts": 200000, "warmup": 5000}'
done

"$SERVE" --spool "$S2" --jobs 2 --poll-ms 50 &
PID=$!
# Signal on the first journaled point, not after a fixed sleep: a
# fast build can retire all four requests in a couple of seconds.
await_point "$S2" "$PID"
kill -TERM "$PID"
if ! wait "$PID"; then die "daemon exited non-zero on SIGTERM"; fi

python3 "$CHECK" --kind serve-status "$S2/status.json"
python3 - "$S2" <<'EOF'
import json, sys
status = json.load(open(f"{sys.argv[1]}/status.json"))
assert status["state"] == "stopped", status["state"]
assert status["queued"] + status["parked"] >= 1, status
print(f"leg 2 OK: clean drain, retired={status['retired']}, "
      f"queued={status['queued']}, parked={status['parked']}")
EOF
[ -s "$S2/journal.log" ] || die "drain left no checkpointed journal"

# ---------------------------------------------------------------------
say "leg 3: kill -9, restart, journal recovery"
S3="$WORK/spool3"
mkdir -p "$S3/incoming"
# A long grid: the hard kill lands while later points still run, so
# the journal holds completed points the restart must NOT redo.
submit "$S3" recover.json '{
  "id": "recover", "client": "ci",
  "designs": ["tagel", "b2", "tourney"],
  "workloads": ["leela", "x264"],
  "insts": 120000, "warmup": 5000}'

"$SERVE" --spool "$S3" --jobs 1 --poll-ms 50 &
PID=$!
await_point "$S3" "$PID"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

JOURNALED=$(grep -c '"ev": "point"' "$S3/journal.log")
[ -f "$S3/active/recover.json" ] || die "request not left in active/"

"$SERVE" --spool "$S3" --jobs 2 --once --verbose

[ -f "$S3/done/recover.json" ] || die "restart did not retire the request"
python3 "$CHECK" --kind serve-result "$S3/results/recover.json"
python3 - "$S3" "$JOURNALED" <<'EOF'
import json, sys
root, journaled = sys.argv[1], int(sys.argv[2])
doc = json.load(open(f"{root}/results/recover.json"))
assert doc["status"] == "ok", doc["status"]
assert len(doc["points"]) == 6, len(doc["points"])
assert all(p["status"] == "ok" for p in doc["points"])
status = json.load(open(f"{root}/status.json"))
recovered = status["stats"]["serve"]["counters"]["recovered_points"]
assert recovered == journaled, (recovered, journaled)
assert recovered >= 1, "journal recovery replayed nothing"
print(f"leg 3 OK: {recovered} journaled points replayed, "
      f"{6 - recovered} re-run after restart")
EOF

# ---------------------------------------------------------------------
say "leg 4: an idle daemon wakes on arrival and drains at once"
ms_now() { date +%s%3N; }

# Out-of-range polls are refused before the daemon starts (--once
# keeps a build that accepts them from spinning forever).
for bad in 0 3600001; do
    rc=0
    "$SERVE" --spool "$WORK/spool4-bad" --once --poll-ms "$bad" \
        >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || die "--poll-ms $bad exited $rc, expected 2"
done

S4="$WORK/spool4"
mkdir -p "$S4/incoming"
"$SERVE" --spool "$S4" --jobs 1 --poll-ms 30000 &
PID=$!
die4() { kill -9 "$PID" 2>/dev/null || true; die "$@"; }
for _ in $(seq 1 300); do
    [ -f "$S4/status.json" ] && break
    sleep 0.1
done
[ -f "$S4/status.json" ] || die4 "daemon did not start"
sleep 0.5 # Let it fall into its idle wait.

T0=$(ms_now)
submit "$S4" wake.json '{
  "id": "wake", "client": "ci", "designs": ["b2"],
  "workloads": ["leela"], "insts": 8000, "warmup": 1000}'
for _ in $(seq 1 250); do
    [ -f "$S4/results/wake.json" ] && break
    sleep 0.02
done
ARRIVAL_MS=$(( $(ms_now) - T0 ))
[ -f "$S4/results/wake.json" ] \
    || die4 "no result ${ARRIVAL_MS} ms after an arrival at a 30 s poll"

sleep 0.5 # Idle again.
T0=$(ms_now)
kill -TERM "$PID"
for _ in $(seq 1 250); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.02
done
kill -0 "$PID" 2>/dev/null \
    && die4 "idle daemon still running 5 s after SIGTERM"
if ! wait "$PID"; then die "daemon exited non-zero on SIGTERM"; fi
STOP_MS=$(( $(ms_now) - T0 ))

python3 "$CHECK" --kind serve-result "$S4/results/wake.json"
python3 "$CHECK" --kind serve-status "$S4/status.json"
python3 - "$S4" "$ARRIVAL_MS" "$STOP_MS" <<'EOF'
import json, sys
root, arrival_ms, stop_ms = sys.argv[1], sys.argv[2], sys.argv[3]
doc = json.load(open(f"{root}/results/wake.json"))
assert doc["status"] == "ok", doc["status"]
status = json.load(open(f"{root}/status.json"))
assert status["state"] == "stopped", status["state"]
counters = status["stats"]["serve"]["counters"]
assert counters["arrival_wakeups"] >= 1, counters
print(f"leg 4 OK: result {arrival_ms} ms after arrival, exit "
      f"{stop_ms} ms after SIGTERM, at a 30000 ms poll")
EOF

say "serve_smoke: all legs passed"
