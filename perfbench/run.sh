#!/usr/bin/env bash
# Builds the system under test (cmd/elastisimd, cmd/sweep) and the
# benchmark from source, then runs one benchmark invocation. Run it from
# the root of a checkout; arguments pass through to perfbench:
#
#   bash perfbench/run.sh --workload sim-xl-rigid --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, temporary files, and the toolchain's user
# configuration (its local telemetry counters included).
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/elastisimd || ! -d cmd/sweep ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/go-cache" "$out/gopath" "$out/tmp" "$out/config" "$out/work"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/" ./cmd/elastisimd ./cmd/sweep
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
