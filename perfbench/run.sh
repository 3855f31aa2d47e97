#!/usr/bin/env bash
# Builds cmd/emapsd and the perfbench program from source, then runs one
# benchmark workload against the freshly built daemon. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload estimate --seed 1 --seconds 10 --trace 0
#
# Everything it builds, caches or writes stays under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/emapsd" ./cmd/emapsd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/emapsd" -work "$out/run" "$@"
