#!/usr/bin/env bash
# Builds the perfbench runner from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload analog-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
#
# Run it from the root of a checkout. Everything the build and the runs
# write (Go build cache, binary, job stores, trace files) goes under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" --scratch "$out" "$@"
