#!/usr/bin/env bash
# Multi-process chaos smoke test.
#
# Leg 1 (survival): boots a coordinator (durable store + dispatch) and two
# dtmb-worker processes running under a seeded chaos schedule — crashes
# mid-shard, duplicate submissions, synthetic 503s on the coordinator
# transport — submits a distributed sweep, and byte-compares the merged
# NDJSON stream against the same sweep on a dispatch-free server with a cold
# cache. Chaos a job survives must be invisible in its bytes.
#
# Leg 2 (quarantine): a worker that crashes on every lease against a
# coordinator with a dispatch budget of 2 per shard. The job must fail
# promptly with reason=poison_shard — a typed, observable error instead of
# an infinite redispatch loop — and the quarantine/retry counters must show
# on /metrics.
#
# Leg 3 (restart): kill -9 leg 1's coordinator and start a plain server on
# its store directory. The replayed job must stream the same bytes from
# cursor 0 and from cursor 5. Then one byte in the middle of its result log
# is overwritten and the server restarted again: a sealed log serves its
# sealed records or none, so the job must be failed/storage and stream only
# its error line.
set -euo pipefail

cd "$(dirname "$0")/.."

CHAOS_PORT="${CHAOS_PORT:-18093}"
LOCAL_PORT="${CHAOS_LOCAL_PORT:-18094}"
QUAR_PORT="${CHAOS_QUAR_PORT:-18095}"
RESTART_PORT=18096
TMP="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/dtmb-serve" ./cmd/dtmb-serve
go build -o "$TMP/dtmb-worker" ./cmd/dtmb-worker

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "127.0.0.1:$1/readyz" >/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "server on port $1 never became ready" >&2
  return 1
}

# json_field BLOB NAME extracts a scalar field from a one-line JSON blob.
json_field() { sed -E "s/.*\"$2\":\"?([^\",}]+)\"?.*/\1/" <<<"$1"; }

# metric EXPOSITION NAME prints an unlabeled metric's value, or 0 if absent.
metric() { awk -v n="$2" '$1==n{print $2; found=1} END{if(!found)print 0}' <<<"$1"; }

# wait_terminal PORT JOB polls a job until it leaves the running state and
# echoes its final status blob.
wait_terminal() {
  local status state
  for _ in $(seq 1 600); do
    status=$(curl -sf "127.0.0.1:$1/v2/jobs/$2")
    state=$(json_field "$status" state)
    case "$state" in completed | failed | cancelled) break ;; esac
    sleep 0.2
  done
  echo "$status"
}

echo "=== leg 1: byte identity survives crash/duplicate/transport chaos ==="
GRID='"strategies":["local","hex"],"designs":["DTMB(2,6)"],"n_primaries":[100],"p_min":0.90,"p_max":0.99,"p_points":12,"defect_models":["independent"],"runs":20000,"seed":3'

# Short lease TTL so crashed shards redispatch quickly; a raised dispatch
# budget so a 30% crash rate cannot statistically exhaust any shard.
"$TMP/dtmb-serve" -addr "127.0.0.1:$CHAOS_PORT" -dispatch -store-dir "$TMP/jobs" \
  -shard-size 2 -lease-ttl 1s -max-shard-dispatches 10 -log-level warn &
coordinator=$!
pids+=($!)
wait_ready "$CHAOS_PORT"

"$TMP/dtmb-worker" -coordinator "http://127.0.0.1:$CHAOS_PORT" -name c1 -poll 100ms -log-level error \
  -chaos 'worker.crash=0.3,worker.duplicate_submit=0.5,transport.5xx=0.05' -chaos-seed 1 &
pids+=($!)
"$TMP/dtmb-worker" -coordinator "http://127.0.0.1:$CHAOS_PORT" -name c2 -poll 100ms -log-level error \
  -chaos 'worker.crash=0.3,worker.duplicate_submit=0.5,transport.5xx=0.05' -chaos-seed 2 &
pids+=($!)

created=$(curl -sf -H 'Content-Type: application/json' \
  -d "{$GRID,\"distributed\":true}" "127.0.0.1:$CHAOS_PORT/v2/jobs")
job=$(json_field "$created" id)
chaos_job=$job
echo "chaos job: $job"

status=$(wait_terminal "$CHAOS_PORT" "$job")
state=$(json_field "$status" state)
if [ "$state" != completed ]; then
  echo "chaos job ended $state: $status" >&2
  exit 1
fi
curl -sfN "127.0.0.1:$CHAOS_PORT/v2/jobs/$job/results?cursor=0" >"$TMP/chaos.ndjson"

# Single-process reference: fresh dispatch-free server, cold cache.
"$TMP/dtmb-serve" -addr "127.0.0.1:$LOCAL_PORT" -log-level warn &
pids+=($!)
wait_ready "$LOCAL_PORT"
local_created=$(curl -sf -H 'Content-Type: application/json' \
  -d "{$GRID}" "127.0.0.1:$LOCAL_PORT/v2/jobs")
local_job=$(json_field "$local_created" id)
wait_terminal "$LOCAL_PORT" "$local_job" >/dev/null
curl -sfN "127.0.0.1:$LOCAL_PORT/v2/jobs/$local_job/results?cursor=0" >"$TMP/local.ndjson"

if ! cmp -s "$TMP/local.ndjson" "$TMP/chaos.ndjson"; then
  echo "chaos-survivor stream is NOT byte-identical to the single-process run:" >&2
  diff "$TMP/local.ndjson" "$TMP/chaos.ndjson" | head -20 >&2
  exit 1
fi
exposition=$(curl -sf "127.0.0.1:$CHAOS_PORT/metrics")
retries=$(metric "$exposition" dmfb_retries_total)
if ! grep -q '^dmfb_retries_total' <<<"$exposition"; then
  echo "/metrics lacks dmfb_retries_total" >&2
  exit 1
fi
echo "byte-identical: $(wc -c <"$TMP/local.ndjson") bytes, $retries shard redispatches absorbed"

echo "=== leg 2: poison shard quarantines with a typed failure ==="
"$TMP/dtmb-serve" -addr "127.0.0.1:$QUAR_PORT" -dispatch -store-dir "$TMP/jobs2" \
  -shard-size 8 -lease-ttl 500ms -max-shard-dispatches 2 -log-level warn &
pids+=($!)
wait_ready "$QUAR_PORT"
"$TMP/dtmb-worker" -coordinator "http://127.0.0.1:$QUAR_PORT" -name poison -poll 50ms \
  -log-level error -chaos 'worker.crash=1' -chaos-seed 3 &
pids+=($!)

SMALL='"strategies":["local"],"designs":["DTMB(2,6)"],"n_primaries":[40],"ps":[0.95],"defect_models":["independent"],"runs":200,"seed":7'
created=$(curl -sf -H 'Content-Type: application/json' \
  -d "{$SMALL,\"distributed\":true}" "127.0.0.1:$QUAR_PORT/v2/jobs")
job=$(json_field "$created" id)
echo "poison job: $job"

status=$(wait_terminal "$QUAR_PORT" "$job")
state=$(json_field "$status" state)
reason=$(json_field "$status" reason)
if [ "$state" != failed ] || [ "$reason" != poison_shard ]; then
  echo "poison job ended state=$state reason=$reason, want failed/poison_shard: $status" >&2
  exit 1
fi
exposition=$(curl -sf "127.0.0.1:$QUAR_PORT/metrics")
quarantined=$(metric "$exposition" dmfb_shards_quarantined_total)
retries=$(metric "$exposition" dmfb_retries_total)
if [ "${quarantined%%.*}" -lt 1 ] || [ "${retries%%.*}" -lt 1 ]; then
  echo "counters: quarantined=$quarantined retries=$retries, want both >= 1" >&2
  exit 1
fi
echo "quarantined after budget: reason=$reason, $quarantined shard(s) quarantined, $retries redispatch(es)"

echo "=== leg 3: a restarted store serves a sealed log's records or none ==="
{ kill -9 "$coordinator" && wait "$coordinator"; } 2>/dev/null || true
"$TMP/dtmb-serve" -addr "127.0.0.1:$RESTART_PORT" -store-dir "$TMP/jobs" -log-level warn &
restarted=$!
pids+=($!)
wait_ready "$RESTART_PORT"
curl -sfN "127.0.0.1:$RESTART_PORT/v2/jobs/$chaos_job/results?cursor=0" >"$TMP/restart.ndjson"
curl -sfN "127.0.0.1:$RESTART_PORT/v2/jobs/$chaos_job/results?cursor=5" >"$TMP/restart5.ndjson"
if ! cmp -s "$TMP/local.ndjson" "$TMP/restart.ndjson" ||
  ! cmp -s <(tail -n +6 "$TMP/local.ndjson") "$TMP/restart5.ndjson"; then
  echo "replayed stream is NOT byte-identical to the single-process run" >&2
  exit 1
fi
{ kill "$restarted" && wait "$restarted"; } 2>/dev/null || true

log="$TMP/jobs/$chaos_job/results.ndjson"
printf '#' | dd of="$log" bs=1 seek=$(($(wc -c <"$log") / 2)) count=1 conv=notrunc status=none
"$TMP/dtmb-serve" -addr "127.0.0.1:$RESTART_PORT" -store-dir "$TMP/jobs" -log-level warn &
pids+=($!)
wait_ready "$RESTART_PORT"
status=$(curl -sf "127.0.0.1:$RESTART_PORT/v2/jobs/$chaos_job")
state=$(json_field "$status" state)
reason=$(json_field "$status" reason)
curl -sfN "127.0.0.1:$RESTART_PORT/v2/jobs/$chaos_job/results?cursor=0" >"$TMP/corrupt.ndjson"
if [ "$state" != failed ] || [ "$reason" != storage ] || [ "$(wc -l <"$TMP/corrupt.ndjson")" -ne 1 ]; then
  echo "edited log: state=$state reason=$reason, $(wc -l <"$TMP/corrupt.ndjson") stream lines; want failed/storage and only the error line: $status" >&2
  exit 1
fi
echo "restart: $(wc -c <"$TMP/restart.ndjson") bytes replayed identically; an edited log serves none"
echo "chaos smoke passed"
