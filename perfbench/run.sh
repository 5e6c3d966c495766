#!/usr/bin/env bash
# Builds the benchmark and the nmserve daemon from the sources of the
# checkout it is run from, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# per-run scratch space all live under .bench_build/ in that root, so the
# run reads and writes nothing outside the checkout. Build output goes to
# standard error; standard output carries only the benchmark's report.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/nmserve" ]; then
    echo "perfbench: run from the repository root: $root has no module sources" >&2
    exit 2
fi

mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
# XDG_CONFIG_HOME moves the go command's own configuration and telemetry
# files; GOPROXY=off and GOTOOLCHAIN=local keep it from fetching anything.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
    GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOPROXY=off

(cd "$bench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/nmserve" nmdetect/cmd/nmserve) >&2
exec "$out/bin/perfbench" -root "$root" -nmserve "$out/bin/nmserve" "$@"
