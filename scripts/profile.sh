#!/bin/sh
# Captures a CPU profile of the simulator's hot loop (the RK4 step kernel
# every settle poll chunk runs) and prints the top functions. This is the
# workflow that motivated the fused step kernel: the profile shows where
# eval time goes per engine.
#
# Usage: scripts/profile.sh [bench-regex] [benchtime]
#
#   scripts/profile.sh                          # fused RK4 step at 32x32
#   scripts/profile.sh 'Step(32Fused|Reference)' # fused vs reference step
#   scripts/profile.sh 'Eval128Fused' 3s        # fused kernel eval at 128x128
#
# Artifacts land in profiles/: cpu.out (pprof), circuit.test (the binary
# needed to symbolise it). Inspect interactively with:
#
#   go tool pprof profiles/circuit.test profiles/cpu.out
#
# For a live service, cmd/alad exposes the same data over HTTP instead:
# start it with -pprof :6060 and use `go tool pprof http://host:6060/debug/pprof/profile`.
set -eu
cd "$(dirname "$0")/.."

BENCH="${1:-Step32Fused}"
BENCHTIME="${2:-1s}"
OUTDIR=profiles
mkdir -p "$OUTDIR"

go test ./internal/circuit -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" \
	-cpuprofile "$OUTDIR/cpu.out" -o "$OUTDIR/circuit.test"

echo
echo "=== top 15 by flat CPU time ==="
go tool pprof -top -nodecount=15 "$OUTDIR/circuit.test" "$OUTDIR/cpu.out"
echo
echo "wrote $OUTDIR/cpu.out (binary: $OUTDIR/circuit.test)"
