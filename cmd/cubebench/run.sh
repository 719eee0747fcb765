#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cubebench inside the checkout
# and runs it. Everything the Go toolchain writes (build cache, module cache,
# its own configuration) is pointed into .cubebench/, so nothing is written
# outside the checkout. cubebench builds ./cmd/cubed itself and reports the
# time as client.build_s.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.cubebench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bin/cubebench" .)
exec "$out/bin/cubebench" -root "$root" "$@"
