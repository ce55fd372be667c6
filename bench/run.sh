#!/usr/bin/env bash
# Builds soupsd and the benchmark from source into .bench_build/ under the
# checkout root (nothing is read or written outside the checkout: the Go
# build cache, temp dir and HOME are redirected there too), then runs the
# benchmark with the arguments given. The build is not part of any metric
# but setup; its wall time is reported as bench.build_s.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home/.config/go/telemetry"
# With no mode file in its (redirected) config dir the go command starts a
# detached telemetry sidecar, "go ** telemetry **", that outlives this script
# when the build is short or fails. A run must leave no process behind.
echo off >"$build/home/.config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
gobuild() { HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build "$@"; }
start=$(date +%s.%N)
(cd "$root" && gobuild -o "$build/bin/soupsd" ./cmd/soupsd)
(cd "$root/bench" && gobuild -o "$build/bin/bench" .)
end=$(date +%s.%N)
cd "$root"
exec "$build/bin/bench" -root "$root" -soupsd "$build/bin/soupsd" \
	-build-s "$(echo "$end $start" | awk '{printf "%.3f", $1-$2}')" "$@"
