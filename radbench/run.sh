#!/usr/bin/env bash
# Builds radlocd and the benchmark from this checkout, then runs the
# benchmark. Run from the checkout root:
#
#   bash radbench/run.sh --workload fuse-b --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/cmd/radlocd" ] || {
	echo "radbench: run from the radloc checkout root (no go.mod or cmd/radlocd here)" >&2
	exit 2
}
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go build -o "$out/radlocd" ./cmd/radlocd
(cd "$root/radbench" && go build -o "$out/radbench" .)
if [ "${1:-}" = compare ]; then
	exec "$out/radbench" "$@"
fi
exec "$out/radbench" --root "$root" --radlocd "$out/radlocd" "$@"
