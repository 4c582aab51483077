#!/usr/bin/env bash
# Builds the tools under test and the benchmark from this checkout, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
# The go command otherwise forks a detached telemetry process that can
# outlive this script; mode "off" stops it from starting one.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off' > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/" ./cmd/vmtrace ./cmd/vmsweep ./cmd/vmserved ./cmd/vmsim
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
