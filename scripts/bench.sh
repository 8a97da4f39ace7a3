#!/bin/sh
# Regenerates a BENCH_*.json file deterministically from `go test -bench`:
# fixed benchtime, fixed benchmark selection, one JSON emitter. Custom
# b.ReportMetric values (configs/op, sweeps/op, ...) are captured alongside
# the standard ns/bytes/allocs columns.
#
# Usage: scripts/bench.sh <suite> [benchtime]
#
#   scripts/bench.sh 1       # BENCH_1.json: circuit hot-loop microbenchmarks
#   scripts/bench.sh 3 10x   # BENCH_3.json: decomposition scaling
#   scripts/bench.sh 4       # BENCH_4.json: session cache + batch solves
#   scripts/bench.sh 5       # BENCH_5.json: fused step kernel at 32x32 and 128x128
#   scripts/bench.sh 6       # BENCH_6.json: lane-batched vs sequential batch
#   scripts/bench.sh 7       # BENCH_7.json: federation zipf-load routing policies
#   scripts/bench.sh 8       # BENCH_8.json: micro-batching coalescer on a hot operator
#   scripts/bench.sh 9       # BENCH_9.json: operator registry by-reference wire path
set -eu
cd "$(dirname "$0")/.."

SUITE="${1:?usage: scripts/bench.sh <suite-number> [benchtime]}"
case "$SUITE" in
1)
	PKG=./internal/circuit
	BENCH='Eval|Step'
	BENCHTIME="${2:-1s}"
	DESC="internal/circuit hot loop (32x32 Poisson fig8 netlist): reference interpreter vs fused kernel eval and RK4 step"
	;;
3)
	PKG=./internal/core
	BENCH='Decomposed'
	BENCHTIME="${2:-5x}"
	DESC="block-Jacobi decomposition: sequential one-chip vs parallel pinned sessions at 1/2/4/8 workers (8 blocks, 4 distinct groups)"
	;;
4)
	PKG=./internal/serve
	BENCH='PoolCheckout|BatchSolve16|SequentialSolve16'
	BENCHTIME="${2:-20x}"
	DESC="session cache + batch solves: warm vs cold pool checkout (configs/hits per op) and batch-of-16 vs 16 sequential sessions (rescales per op)"
	;;
5)
	PKG=./internal/circuit
	BENCH='(Eval|Step)(32|128)'
	BENCHTIME="${2:-1s}"
	DESC="fused kernel: eval and RK4 step on the fig8 Poisson netlist at 32x32 and 128x128"
	;;
6)
	PKG=./internal/circuit
	BENCH='Batch32'
	BENCHTIME="${2:-2s}"
	DESC="lane-batched fused engine vs sequential batch path: 16 solve instances on the 32x32 Poisson fig8 netlist, one RK4 step and one 50-step settle segment, as a single 16-lane run vs sixteen scalar fused runs"
	;;
7)
	PKG=./internal/federation
	BENCH='Zipf'
	BENCHTIME="${2:-3x}"
	DESC="zipf-operator load on a 3-node in-process federation: fingerprint-affinity routing vs affinity-disabled (random member) vs single node — cluster session-cache hit rate and p50/p99 latency"
	;;
8)
	PKG=./internal/serve
	BENCH='HotOperator16|SolveRoundTrip'
	BENCHTIME="${2:-600x}"
	DESC="dynamic micro-batching: 16 workers hammering one hot operator through the HTTP path, waves formed at chip checkout (solves/s, wave occupancy, coalesced fraction), plus the single-stream round-trip allocation probe"
	;;
9)
	PKG=./internal/serve
	BENCH='RegistryRequestBytes|HotOperatorBy|JobWALBytes'
	BENCHTIME="${2:-100x}"
	DESC="operator registry by-reference wire path: encoded request bytes for the n=1024 2-D Poisson operator by value vs by fingerprint, hot-operator p50/p99 latency and solves/s both ways over HTTP, and durable-job WAL bytes per job after the submit-time payload rewrite"
	;;
*)
	echo "bench.sh: unknown suite $SUITE (known: 1, 3, 4, 5, 6, 7, 8, 9)" >&2
	exit 2
	;;
esac
OUT="BENCH_${SUITE}.json"

RAW=$(go test "$PKG" -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem)
echo "$RAW"

echo "$RAW" | awk -v host="$(uname -sm)" -v go="$(go env GOVERSION)" -v desc="$DESC" '
BEGIN {
	print "{"
	printf "  \"suite\": \"%s\",\n", desc
	printf "  \"go\": \"%s\",\n", go
	printf "  \"host\": \"%s\",\n", host
	print "  \"benchmarks\": ["
	first = 1
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""; extras = ""
	# Fields after the iteration count come in value-unit pairs; standard
	# units get their own keys, anything else (ReportMetric) is kept under
	# its unit name with / mapped to _per_.
	for (i = 3; i < NF; i += 2) {
		val = $i; unit = $(i + 1)
		if (unit == "ns/op") ns = val
		else if (unit == "B/op") bytes = val
		else if (unit == "allocs/op") allocs = val
		else {
			key = unit
			gsub(/\//, "_per_", key)
			extras = extras sprintf(", \"%s\": %s", key, val)
		}
	}
	if (!first) printf ",\n"
	first = 0
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", \
		name, $2, ns, bytes, allocs, extras
}
END {
	print "\n  ]"
	print "}"
}' > "$OUT"

echo "wrote $OUT"
