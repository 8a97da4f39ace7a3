#!/bin/sh
# Regenerates a BENCH_*.json file deterministically from `go test -bench`:
# fixed benchtime, fixed benchmark selection, one JSON emitter. Custom
# b.ReportMetric values (configs/op, sweeps/op, ...) are captured alongside
# the standard ns/bytes/allocs columns. Every suite runs RUNS times
# (`-count`) and each column records the per-benchmark median of those
# runs: single runs of one tree swing 1.5-2x on a shared host, so one run
# cannot show a change smaller than that.
#
# Usage: scripts/bench.sh <suite> [benchtime]
#
#   scripts/bench.sh 1       # BENCH_1.json: circuit engines, fused kernel and 16-lane runs
#   scripts/bench.sh 3 10x   # BENCH_3.json: decomposition scaling
#   scripts/bench.sh 4       # BENCH_4.json: session cache + batch solves
#   scripts/bench.sh 7       # BENCH_7.json: federation zipf-load routing policies
#   scripts/bench.sh 8       # BENCH_8.json: micro-batching coalescer on a hot operator
#   scripts/bench.sh 9       # BENCH_9.json: operator registry by-reference wire path
set -eu
cd "$(dirname "$0")/.."

SUITE="${1:?usage: scripts/bench.sh <suite-number> [benchtime]}"
case "$SUITE" in
1)
	PKG=./internal/circuit
	BENCH='Eval|Step|RunBatch'
	BENCHTIME="${2:-1s}"
	DESC="internal/circuit hot loop on the fig8 Poisson netlist: reference interpreter vs fused kernel eval and RK4 step (32x32 and 128x128), and 16 solve instances at 32x32 as one 16-lane run vs sixteen scalar fused runs (one RK4 step and one 50-step settle segment)"
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
	DESC="operator registry by-reference wire path: encoded request bytes for the n=1024 2-D Poisson operator by value vs by fingerprint, hot-operator p50/p99 latency and solves/s both ways over HTTP, and durable-job bytes per job (the job WAL alone, and the WAL plus the operator journal) after the submit-time payload rewrite, for queued jobs and for submit-and-wait loops by value and by reference"
	;;
*)
	echo "bench.sh: unknown suite $SUITE (known: 1, 3, 4, 7, 8, 9)" >&2
	exit 2
	;;
esac
OUT="BENCH_${SUITE}.json"
RUNS=5

RAW=$(go test "$PKG" -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem -count "$RUNS")
echo "$RAW"

echo "$RAW" | awk -v host="$(uname -sm)" -v go="$(go env GOVERSION)" -v desc="$DESC" '
# median sorts the n values vals[1..n] (insertion sort: n is the run
# count) and returns the middle one, or the mean of the middle two.
function median(vals, n,    i, j, v) {
	for (i = 2; i <= n; i++) {
		v = vals[i]
		for (j = i - 1; j >= 1 && vals[j] + 0 > v + 0; j--) vals[j + 1] = vals[j]
		vals[j + 1] = v
	}
	if (n % 2) return vals[(n + 1) / 2]
	return (vals[n / 2] + vals[n / 2 + 1]) / 2
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in runs)) {
		order[++names] = name
		ncols[name] = 0
	}
	r = ++runs[name]
	# Fields after the iteration count come in value-unit pairs; standard
	# units get their own keys (columns 2-4), anything else (ReportMetric)
	# is kept under its unit name with / mapped to _per_, in output order.
	key[name, 1] = "iterations"; val[name, 1, r] = $2
	key[name, 2] = "ns_per_op"; key[name, 3] = "bytes_per_op"; key[name, 4] = "allocs_per_op"
	cols = 4
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		if (unit == "ns/op") c = 2
		else if (unit == "B/op") c = 3
		else if (unit == "allocs/op") c = 4
		else {
			c = ++cols
			key[name, c] = unit
			gsub(/\//, "_per_", key[name, c])
		}
		val[name, c, r] = $i
	}
	ncols[name] = cols
}
END {
	print "{"
	printf "  \"suite\": \"%s\",\n", desc
	printf "  \"go\": \"%s\",\n", go
	printf "  \"host\": \"%s\",\n", host
	printf "  \"statistic\": \"median of each column over the runs\",\n"
	print "  \"benchmarks\": ["
	for (b = 1; b <= names; b++) {
		name = order[b]
		line = sprintf("    {\"name\": \"%s\", \"runs\": %d", name, runs[name])
		for (c = 1; c <= ncols[name]; c++) {
			n = 0
			for (r = 1; r <= runs[name]; r++) vals[++n] = val[name, c, r]
			line = line sprintf(", \"%s\": %s", key[name, c], median(vals, n))
		}
		printf "%s}%s\n", line, (b < names ? "," : "")
	}
	print "  ]"
	print "}"
}' > "$OUT"

echo "wrote $OUT"
