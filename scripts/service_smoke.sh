#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke of the sweep service daemon.
#
# Usage:
#   scripts/service_smoke.sh [scenario-name] [workdir]
#
# Starts `vcebench serve` on an ephemeral port over a fresh cache
# directory, submits the same spec twice over HTTP, and asserts the
# multi-client contracts CI relies on:
#   1. the second, identical submission performs ZERO simulations — every
#      cell replays from the shared content-addressed cache;
#   2. the report fetched from the daemon is byte-identical to the
#      report.json a plain CLI run of the same spec writes;
#   3. the daemon shuts down cleanly on SIGTERM (exit 0, state persisted);
#   4. a shutdown while one sweep runs and another is queued behind it
#      (-max-sweeps 1) ends the queued sweep's open event stream with
#      `interrupted`, exits 0 within 5 s, and a restart on the same cache
#      directory runs both sweeps to done.
# Exits non-zero on any divergence. Needs curl and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

name="${1:-hetero-baseline}"
runs="${RUNS:-3}"
owned=0
if [[ -n "${2:-}" ]]; then
  work="$2" # caller-owned: kept for inspection
else
  work="$(mktemp -d)"
  owned=1
fi

serve_pid=""
stream_pid=""
cleanup() {
  for pid in "$serve_pid" "$stream_pid"; do
    if [[ -n "$pid" ]]; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  if [[ "$owned" == 1 ]]; then rm -rf "$work"; fi
}
trap cleanup EXIT

echo "== building vcebench"
go build -o "$work/vcebench" ./cmd/vcebench

echo "== CLI reference run ($name, runs=$runs)"
"$work/vcebench" -name "$name" -runs "$runs" -q -out "$work/cli" >/dev/null
"$work/vcebench" -name "$name" -runs "$runs" -dump > "$work/spec.json"

# start_daemon CACHE_DIR LOG [serve flags...] starts `vcebench serve` on an
# ephemeral port and sets serve_pid and addr (the daemon prints its
# resolved address because we ask for port 0).
start_daemon() {
  local cache="$1" log="$2"
  shift 2
  "$work/vcebench" serve -addr 127.0.0.1:0 -cache-dir "$cache" "$@" 2> "$log" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's!.*listening on http://\([^ ]*\) .*!\1!p' "$log" | head -n1)"
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "FAIL: daemon never printed its listen address" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "daemon up at $addr"
}

# stop_daemon LOG sends SIGTERM and requires exit 0 with persisted state.
stop_daemon() {
  local log="$1"
  kill -TERM "$serve_pid"
  if ! wait "$serve_pid"; then
    echo "FAIL: daemon exited non-zero on SIGTERM" >&2
    cat "$log" >&2
    exit 1
  fi
  serve_pid=""
  if ! grep -q 'sweep state persisted for resume' "$log"; then
    echo "FAIL: daemon did not report persisted state on shutdown" >&2
    cat "$log" >&2
    exit 1
  fi
}

submit() {
  curl -sS -X POST --data-binary @"${1:-$work/spec.json}" "http://$addr/sweeps"
}

wait_done() {
  local id="$1"
  for _ in $(seq 1 600); do
    state="$(curl -sS "http://$addr/sweeps/$id" | jq -r .state)"
    case "$state" in
      done) return 0 ;;
      failed)
        echo "FAIL: sweep $id failed" >&2
        curl -sS "http://$addr/sweeps/$id" >&2
        return 1
        ;;
    esac
    sleep 0.1
  done
  echo "FAIL: sweep $id never finished (state $state)" >&2
  return 1
}

echo "== starting vcebench serve"
start_daemon "$work/cache" "$work/serve.err"

echo "== first submission (cold)"
id1="$(submit | jq -r .id)"
wait_done "$id1"
cold="$(curl -sS "http://$addr/sweeps/$id1")"
echo "cold: $(jq -c '{done, cached, simulated}' <<<"$cold")"

echo "== second identical submission (must be all cache hits)"
id2="$(submit | jq -r .id)"
if [[ "$id2" == "$id1" ]]; then
  echo "FAIL: second submission reused sweep id $id1" >&2
  exit 1
fi
wait_done "$id2"
warm="$(curl -sS "http://$addr/sweeps/$id2")"
echo "warm: $(jq -c '{done, cached, simulated}' <<<"$warm")"
if [[ "$(jq -r .simulated <<<"$warm")" != "0" ]]; then
  echo "FAIL: second identical sweep still simulated (want 0 simulations)" >&2
  exit 1
fi
if [[ "$(jq -r .cached <<<"$warm")" != "$(jq -r .total <<<"$warm")" ]]; then
  echo "FAIL: second sweep did not replay every cell from the cache" >&2
  exit 1
fi
echo "OK: second identical submission performed zero simulations"

echo "== daemon report vs CLI report.json"
curl -sS "http://$addr/sweeps/$id1/report" -o "$work/daemon-report.json"
if ! cmp "$work/daemon-report.json" "$work/cli/report.json"; then
  echo "FAIL: daemon report is not byte-identical to the CLI run" >&2
  exit 1
fi
echo "OK: daemon report is byte-identical to the CLI run"

echo "== /stats"
curl -sS "http://$addr/stats" | jq .

echo "== graceful shutdown on SIGTERM"
stop_daemon "$work/serve.err"
echo "OK: daemon shut down cleanly; sweep state persisted"

echo "== shutdown with a queued sweep (-max-sweeps 1)"
# The first sweep is a 50x-task, 50x-run copy: it runs for seconds on two
# cores, so once it reads `running` a SIGTERM lands while it still runs and
# the reseeded copy submitted behind it is still queued.
jq '.workload.tasks *= 50 | .horizon_s *= 100 | .runs *= 50' "$work/spec.json" > "$work/spec-heavy.json"
jq '.seed += 1' "$work/spec.json" > "$work/spec-reseeded.json"
start_daemon "$work/cache-queued" "$work/serve-queued.err" -max-sweeps 1
qa="$(submit "$work/spec-heavy.json" | jq -r .id)"
qb="$(submit "$work/spec-reseeded.json" | jq -r .id)"
curl -sS -N -D "$work/stream.hdr" "http://$addr/sweeps/$qb/events" > "$work/stream.ndjson" &
stream_pid=$!
# The stream is open once its response headers have arrived.
for _ in $(seq 1 100); do
  [[ -s "$work/stream.hdr" ]] && break
  sleep 0.05
done
if [[ ! -s "$work/stream.hdr" ]]; then
  echo "FAIL: event stream of sweep $qb never opened" >&2
  exit 1
fi
state=""
for _ in $(seq 1 100); do
  state="$(curl -sS "http://$addr/sweeps/$qa" | jq -r .state)"
  [[ "$state" != "queued" ]] && break
  sleep 0.05
done
if [[ "$state" != "running" ]]; then
  echo "FAIL: heavy sweep $qa read '$state' before the shutdown, want running" >&2
  exit 1
fi
start_ns="$(date +%s%N)"
stop_daemon "$work/serve-queued.err"
took_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
wait "$stream_pid" || true
stream_pid=""
last="$(tail -n1 "$work/stream.ndjson" | jq -r .type)"
echo "second sweep's stream ended with '$last'; daemon exited in ${took_ms} ms"
if [[ "$last" != "interrupted" ]]; then
  echo "FAIL: queued sweep's stream ended with '$last', want interrupted" >&2
  exit 1
fi
if (( took_ms >= 5000 )); then
  echo "FAIL: daemon took ${took_ms} ms to exit with a sweep queued (want < 5000)" >&2
  exit 1
fi

echo "== restart on the same cache dir: both sweeps run to done"
start_daemon "$work/cache-queued" "$work/serve-restart.err" -max-sweeps 1
wait_done "$qa"
wait_done "$qb"
stop_daemon "$work/serve-restart.err"
echo "OK: queued sweep's stream ended at shutdown and both sweeps resumed to done"
echo "PASS: service smoke"
