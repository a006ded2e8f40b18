#!/usr/bin/env bash
# Builds gcolord and the benchmark from the sources of the checkout it is
# run from, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload symmetry --seed 1 --seconds 30 --trace 0
#
# Everything it writes (binaries, the Go build cache, run files) goes under
# .bench_build/ in that root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Keep the go command's cache, temporary files and telemetry (under the
# user config directory) inside the checkout, and off the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/gcolord" ./cmd/gcolord
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --gcolord "$out/gcolord" --workdir "$out" "$@"
