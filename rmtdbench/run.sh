#!/usr/bin/env bash
# Builds rmtdbench from this checkout and runs it with the given arguments,
# e.g. bash rmtdbench/run.sh --workload run-mix --seed 1 --seconds 15 --trace 0
# Run from the repository root. The binary, the Go build cache, temporary
# files and the go command's own state live under .bench_build/ in the
# checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/rmtdbench" && go build -o "$out/rmtdbench" .)
exec "$out/rmtdbench" "$@"
