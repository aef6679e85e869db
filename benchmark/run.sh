#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the given arguments. Everything the Go toolchain writes (build cache,
# module cache, toolchain telemetry) is kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/zipflm-benchmark" .
cd "$root"
exec "$build/zipflm-benchmark" "$@"
