#!/usr/bin/env bash
# identity.sh — the working tree writes the same artifacts as a revision.
#
# Usage:
#   scripts/identity.sh <rev> [workdir]
#
# Builds vcebench and vcesim at <rev> (in a temporary git worktree) and from
# the working tree. It runs both vcesim builds on each deterministic
# experiment and fails unless the tables are identical once the elapsed
# time is stripped from each "=== ID: title (elapsed)" header; E1–E4 and
# E12 print wall-clock measurements, so they are not compared. It then runs
# both vcebench builds on every examples/scenarios/*.json, every
# internal/scenario/specgen/testdata/corpus/*.json and every engine fixture
# internal/scenario/testdata/*.json (paths no generated spec reaches, such
# as placed-drops.json's Locality drops of tasks that already ran), each at
# its own seed and at -seed 7, and fails unless every run's seven artifacts
# are byte-identical. A change that
# keeps EngineVersion must pass; one that moves numbers needs the bump (CI's
# golden-drift job checks that).
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/identity.sh <rev> [workdir]}"
if [[ -n "${2:-}" ]]; then
  work="$2" # caller-owned: kept for inspection
  mkdir -p "$work"
  cleanup() { :; }
else
  work="$(mktemp -d)"
  cleanup() { rm -rf "$work"; }
fi
base="$work/base-src"
trap 'git worktree remove --force "$base" 2>/dev/null || true; cleanup' EXIT

echo "== building vcebench and vcesim at $rev and from the working tree"
rm -rf "$base" "$work/base" "$work/head"
git worktree add --quiet --detach "$base" "$rev"
(cd "$base" && go build -o "$work/vcebench.base" ./cmd/vcebench && go build -o "$work/vcesim.base" ./cmd/vcesim)
go build -o "$work/vcebench.head" ./cmd/vcebench
go build -o "$work/vcesim.head" ./cmd/vcesim

tables=0
mkdir -p "$work/base" "$work/head"
for id in E5 E6 E7 E7a E7b E8 E9 E10 E10a E11 E13 E14; do
  for side in base head; do
    if ! "$work/vcesim.$side" -run "$id" >"$work/$side/$id.raw"; then
      echo "FAIL: $side vcesim -run $id exited non-zero" >&2
      exit 1
    fi
    sed -E 's/^(=== .*) \([^)]*\)$/\1/' "$work/$side/$id.raw" >"$work/$side/$id.txt"
  done
  if ! diff "$work/base/$id.txt" "$work/head/$id.txt"; then
    echo "FAIL: $id: the working tree's experiment table differs from $rev's" >&2
    exit 1
  fi
  tables=$((tables + 1))
done
echo "OK: $tables experiment tables are identical at $rev and in the working tree"

runs=0
for spec in examples/scenarios/*.json internal/scenario/specgen/testdata/corpus/*.json internal/scenario/testdata/*.json; do
  for seed in own 7; do
    args=(-spec "$spec" -q)
    [[ "$seed" == own ]] || args+=(-seed "$seed")
    id="$(basename "$(dirname "$spec")")-$(basename "$spec" .json)-seed-$seed"
    for side in base head; do
      if ! "$work/vcebench.$side" "${args[@]}" -out "$work/$side/$id" >/dev/null; then
        echo "FAIL: $side vcebench ${args[*]} exited non-zero" >&2
        exit 1
      fi
    done
    if [[ "$(ls "$work/head/$id" | wc -l)" -ne 7 ]]; then
      echo "FAIL: $id wrote $(ls "$work/head/$id" | wc -l) artifacts, want 7" >&2
      exit 1
    fi
    if ! diff -r "$work/base/$id" "$work/head/$id"; then
      echo "FAIL: $id: the working tree's artifacts differ from $rev's" >&2
      exit 1
    fi
    runs=$((runs + 1))
  done
done
echo "OK: $runs runs wrote byte-identical artifacts at $rev and in the working tree"
