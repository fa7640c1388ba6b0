#!/usr/bin/env bash
# run.sh — build the benchmark and run it, reading and writing nothing
# outside the checkout: the Go build cache, the binary and the scratch
# directory all live under .bench_build/ (git-ignored), and the scratch
# directory is emptied before the run and removed after it. This is the
# command BENCHMARK.json names; arguments pass through, e.g.
#
#   bash benchmark/run.sh --workload sweep_cold --seed 1 --seconds 20 --trace 0
#
# A person at a shell runs `go run ./benchmark -seed 1` instead, which keeps
# its scratch in the system's temporary directory, or where -dir says.
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark is a package of the repository's module and measures the
# repository's code: without the module there is nothing to build or measure.
if [[ ! -f go.mod || ! -d internal/scenario ]]; then
  echo "benchmark/run.sh: $PWD is not a checkout of the repository (no go.mod, no internal/scenario)" >&2
  exit 1
fi

build="$PWD/.bench_build"
scratch="$build/scratch"
rm -rf "$scratch"
mkdir -p "$build/tmp" "$scratch"
trap 'rm -rf "$scratch"' EXIT
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"

go build -o "$build/vce-benchmark" ./benchmark
"$build/vce-benchmark" -dir "$scratch" "$@"
