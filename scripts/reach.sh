#!/usr/bin/env bash
# reach.sh — the reachability ratchet: no function lands that no entry
# point runs.
#
# Usage:
#   scripts/reach.sh [workdir]
#
# Builds every production entry point with coverage instrumentation
# (`go build -cover`, measured set vce, vce/cmd/..., vce/examples/... and
# vce/internal/...; benchmark/ runs as an entry point but its own functions
# are not listed, so a benchmark-only change never edits the list) and
# drives them the way the smokes and CI do:
#   - vcesim (every experiment, plus one in -md form);
#   - vcebench on the five example specs (with progress lines) and on every
#     built-in, cached (cold then warm), traced and profiled, plus -list and
#     -dump;
#   - vcebench check -seeds 25;
#   - scripts/sweep_shards.sh, scripts/service_smoke.sh and
#     scripts/live_smoke.sh (every example, vced x2 + vcerun over TCP);
#   - the benchmark binary at -seconds 2;
# and lists every function with zero coverage as "path<TAB>func" (sorted,
# duplicates kept). The list is compared with testdata/unreached.txt, whose
# "#" lines are headings giving the reason for each group. The script fails
# when
#   - a function is unreached but not listed (new dead code, or code an
#     entry point stopped reaching), or
#   - a listed function no longer exists (delete its line),
# and only reports a listed function that is now reached, so paths reached
# on timing alone cannot flake it. It also fails when a package of the
# measured set is linked into no entry point at all.
#
# The run's own list is left in <workdir>/unreached.now; with no workdir a
# temporary one is used and removed. Needs curl and jq (service smoke).
set -euo pipefail
cd "$(dirname "$0")/.."

listed="testdata/unreached.txt"
owned=0
if [[ -n "${1:-}" ]]; then
  work="$(mkdir -p "$1" && cd "$1" && pwd)" # caller-owned: kept for inspection
else
  work="$(mktemp -d)"
  owned=1
fi
cleanup() { if [[ "$owned" == 1 ]]; then rm -rf "$work"; fi; }
trap cleanup EXIT

cov="$work/cov"
bin="$work/bin"
rm -rf "$cov" "$bin"
mkdir -p "$cov" "$bin"

measured="vce,vce/cmd/...,vce/examples/...,vce/internal/..."
export GOFLAGS="-cover -coverpkg=$measured" GOCOVERDIR="$cov"

echo "== building instrumented entry points"
for cmd in vcebench vcesim vced vcerun; do
  go build -o "$bin/$cmd" "./cmd/$cmd"
done
# A binary whose main package is outside -coverpkg writes no coverage data,
# so the benchmark is built with itself in the set and filtered out below.
go build -coverpkg="$measured,vce/benchmark" -o "$bin/vce-benchmark" ./benchmark

echo "== vcesim"
"$bin/vcesim" > "$work/vcesim.out"
"$bin/vcesim" -md -run E6 > /dev/null

echo "== vcebench: example specs"
for spec in examples/scenarios/*.json; do
  "$bin/vcebench" -spec "$spec" -out "$work/spec-$(basename "$spec" .json)" > /dev/null 2>&1
done

echo "== vcebench: built-ins, cached, traced and profiled"
"$bin/vcebench" -list > /dev/null
for name in $("$bin/vcebench" -list | awk '{print $1}'); do
  "$bin/vcebench" -name "$name" -dump > /dev/null
  for pass in cold warm; do
    "$bin/vcebench" -name "$name" -q -cache-dir "$work/cache" \
      -trace "$work/$name-$pass.trace.json" -telemetry \
      -cpuprofile "$work/$name-$pass.cpu" -memprofile "$work/$name-$pass.mem" \
      -out "$work/builtin-$name-$pass" > /dev/null 2>&1
  done
done

echo "== vcebench check -seeds 25"
"$bin/vcebench" check -seeds 25 -q -out "$work/check" > /dev/null

echo "== smokes"
scripts/sweep_shards.sh hetero-baseline 2 "$work/shards" > "$work/shards.log"
scripts/service_smoke.sh hetero-baseline "$work/service" > "$work/service.log"
scripts/live_smoke.sh "$work/live" > "$work/live.log"

echo "== benchmark binary (-seconds 2)"
mkdir -p "$work/bench"
"$bin/vce-benchmark" -dir "$work/bench" -seconds 2 > "$work/bench.out"

unset GOFLAGS GOCOVERDIR

echo "== coverage"
go tool covdata textfmt -i="$cov" -o "$work/cover.txt"
# `go tool cover -func` prints "path:line:<TAB>func<TAB>pct%"; keep path and
# func only, so the list does not churn when code moves within a file.
go tool cover -func="$work/cover.txt" |
  awk -F'\t+' '$1 != "total:" && $1 !~ /^vce\/benchmark\// { sub(/:[0-9]+:$/, "", $1); print $1 "\t" $2 "\t" $NF }' > "$work/funcs.tsv"
awk -F'\t' '{ print $1 "\t" $2 }' "$work/funcs.tsv" | LC_ALL=C sort > "$work/all.txt"
awk -F'\t' '$3 == "0.0%" { print $1 "\t" $2 }' "$work/funcs.tsv" | LC_ALL=C sort > "$work/unreached.now"
grep -v -e '^#' -e '^[[:space:]]*$' "$listed" | LC_ALL=C sort > "$work/listed.txt"

status=0

# Packages of the measured set that no entry point links have no coverage
# data at all, so their functions would never appear as unreached.
go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' vce vce/cmd/... vce/examples/... vce/internal/... |
  LC_ALL=C sort > "$work/pkgs.txt"
awk -F'\t' '{ sub(/\/[^\/]*$/, "", $1); print $1 }' "$work/all.txt" | LC_ALL=C sort -u > "$work/linked.txt"
unlinked="$(LC_ALL=C comm -23 "$work/pkgs.txt" "$work/linked.txt")"
if [[ -n "$unlinked" ]]; then
  echo "FAIL: packages no entry point links:" >&2
  echo "$unlinked" >&2
  status=1
fi

# comm on sorted lists with repeats compares them as multisets: each
# repeat of a line pairs with one repeat on the other side.
new="$(LC_ALL=C comm -23 "$work/unreached.now" "$work/listed.txt")"
gone="$(LC_ALL=C comm -23 "$work/listed.txt" "$work/all.txt")"
reached="$(LC_ALL=C comm -23 "$work/listed.txt" "$work/unreached.now" | LC_ALL=C comm -12 - "$work/all.txt")"

if [[ -n "$new" ]]; then
  echo "FAIL: unreached by every entry point but not listed in $listed:" >&2
  echo "$new" >&2
  echo "Reach them from an entry point, delete them, or list them under a heading that says why." >&2
  status=1
fi
if [[ -n "$gone" ]]; then
  echo "FAIL: listed in $listed but no longer defined (delete the lines):" >&2
  echo "$gone" >&2
  status=1
fi
if [[ -n "$reached" ]]; then
  echo "note: listed in $listed but reached in this run (delete the lines if they stay reached):"
  echo "$reached"
fi

total="$(wc -l < "$work/all.txt")"
zero="$(wc -l < "$work/unreached.now")"
echo "functions measured: $total, unreached: $zero, listed: $(wc -l < "$work/listed.txt")"
if [[ "$status" == 0 ]]; then
  echo "PASS: reachability ratchet"
fi
exit "$status"
