#!/usr/bin/env bash
# live_smoke.sh — end-to-end smoke of the live protocol stack.
#
# Usage:
#   scripts/live_smoke.sh [workdir]
#
# Runs every entry point of the live stack (daemons, execution program,
# channels, the in-process facade) and asserts:
#   1. every examples/<name> program exits 0;
#   2. two `vced` daemons (a founder and a joiner) form a WORKSTATION group
#      over loopback TCP, and `vcerun` dispatches the two-instance script
#      `WORKSTATION 2 "/demo/hello.vce"` through them: exit 0, two placements;
#   3. both daemons exit on SIGINT (graceful group leave).
# Exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

owned=0
if [[ -n "${1:-}" ]]; then
  work="$1" # caller-owned: kept for inspection
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  owned=1
fi

founder_pid=""
joiner_pid=""
cleanup() {
  for pid in "$founder_pid" "$joiner_pid"; do
    if [[ -n "$pid" ]]; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  if [[ "$owned" == 1 ]]; then rm -rf "$work"; fi
}
trap cleanup EXIT

echo "== building examples, vced and vcerun"
mkdir -p "$work/bin"
for dir in examples/*/; do
  [[ -f "$dir/main.go" ]] || continue
  go build -o "$work/bin/$(basename "$dir")" "./$dir"
done
go build -o "$work/bin/vced" ./cmd/vced
go build -o "$work/bin/vcerun" ./cmd/vcerun

for dir in examples/*/; do
  [[ -f "$dir/main.go" ]] || continue
  name="$(basename "$dir")"
  echo "== example $name"
  if ! "$work/bin/$name" > "$work/$name.out" 2>&1; then
    echo "FAIL: example $name exited non-zero" >&2
    cat "$work/$name.out" >&2
    exit 1
  fi
done
echo "OK: every example exited 0"

# start_daemon LOG [vced flags...] starts vced and waits for its on-line
# line; it sets daemon_pid and daemon_addr (the daemon's contact address).
start_daemon() {
  local log="$1"
  shift
  "$work/bin/vced" -class WORKSTATION "$@" 2> "$log" &
  daemon_pid=$!
  daemon_addr=""
  for _ in $(seq 1 100); do
    daemon_addr="$(sed -n 's!.* on-line at \([^ ]*\) .*!\1!p' "$log" | head -n1)"
    [[ -n "$daemon_addr" ]] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      break
    fi
    sleep 0.1
  done
  if [[ -z "$daemon_addr" ]]; then
    echo "FAIL: vced $* never came on-line" >&2
    cat "$log" >&2
    exit 1
  fi
}

# stop_daemon PID LOG sends SIGINT and requires the daemon to exit within
# five seconds.
stop_daemon() {
  local pid="$1" log="$2"
  kill -INT "$pid"
  for _ in $(seq 1 50); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: vced (pid $pid) still running 5 s after SIGINT" >&2
    cat "$log" >&2
    exit 1
  fi
  wait "$pid" || true
}

echo "== vced founder + joiner over loopback TCP"
start_daemon "$work/founder.err" -name ws1
founder_pid="$daemon_pid"
contact="$daemon_addr"
echo "founder on-line at $contact"
start_daemon "$work/joiner.err" -name ws2 -contact "$contact"
joiner_pid="$daemon_pid"
echo "joiner on-line at $daemon_addr"

echo "== vcerun: WORKSTATION 2 \"/demo/hello.vce\""
if ! echo 'WORKSTATION 2 "/demo/hello.vce"' |
  "$work/bin/vcerun" -timeout 20s -contacts "WORKSTATION=$contact" - > "$work/vcerun.out" 2> "$work/vcerun.err"; then
  echo "FAIL: vcerun exited non-zero" >&2
  cat "$work/vcerun.out" "$work/vcerun.err" "$work/founder.err" "$work/joiner.err" >&2
  exit 1
fi
cat "$work/vcerun.out"
placements="$(grep -c ' instance [0-9]* on ' "$work/vcerun.out" || true)"
if [[ "$placements" != 2 ]]; then
  echo "FAIL: vcerun reported $placements placements, want 2" >&2
  exit 1
fi
echo "OK: vcerun placed two instances through the daemon group"

echo "== SIGINT both daemons"
stop_daemon "$joiner_pid" "$work/joiner.err"
joiner_pid=""
stop_daemon "$founder_pid" "$work/founder.err"
founder_pid=""
echo "OK: both daemons exited on SIGINT"
echo "PASS: live smoke"
