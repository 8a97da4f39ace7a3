#!/bin/sh
# CI gate: vet plus the full test suite under the race detector.
# The -race run is what exercises the concurrent paths for real:
# internal/core's Farm (SolveDecomposedParallel), internal/bench's
# runPoints/RunMany worker pools, and internal/serve's chip pool and
# admission queue (TestPoolStress fires more solvers than chips).
set -eux
cd "$(dirname "$0")/.."
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt needed on:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
go vet ./...
# The lane kernels are amd64 assembly; vet an arm64 build too, so the
# kernel stubs (internal/circuit/lanes_avx_stub.go) and every test that
# switches the kernels off keep compiling without them.
GOARCH=arm64 go vet ./...
go build ./...
go test -race ./...

# The fpdebug build tag swaps the fingerprint collision check from
# "trust the hash" to a full deep matrix comparison that panics on any
# mismatch. Running the core suite under it proves adoption and block
# grouping never pair a fingerprint with the wrong matrix.
go test -tags fpdebug ./internal/core

# The parallel decomposition engine is the newest concurrent path — pinned
# sessions, per-chip scratch, the Jacobi sweep barrier, and the pool-backed
# WorkerProvider. Run its tests a second time under -race with -count=2 to
# shake out schedule-dependent interleavings the full-suite pass may miss.
go test -race -count=2 -run 'ParallelDecompose|PoolProvider|PoolTryCheckout|ServeDecomposed|FansOut' ./internal/core ./internal/serve

# Session-cache concurrency: fingerprint-aware Checkout/Checkin with mixed
# matrices races chip adoption against LRU eviction and drift invalidation.
go test -race -count=2 -run 'PoolAffinity|PoolLRU|PoolCalibrationDrift|PoolCacheStress|PoolPrefersBlank|SolveBatch' ./internal/core ./internal/serve

# Durable state: the journal package under the job WAL and the operator
# journal (truncation at every byte offset, every single-byte flip, a
# failed open/write/fsync/rename at every call, and the FuzzLogReplay
# seed corpus), then the job queue on top of it (WAL replay at every
# byte offset, journal-before-apply, lease expiry determinism,
# fingerprint dedup, tenant fairness, and the worker loops) — all
# schedule-sensitive, so run twice under -race. The serve-side pass
# covers the job HTTP surface, adaptive Retry-After, the client's 429
# retry loop, boots on damaged journals (which must fail, naming the
# file, and leave it untouched), and by-reference jobs replayed from a
# WAL cut at every frame boundary.
go test -race -count=2 ./internal/journal ./internal/jobs
go test -race -count=2 -run 'Job|Journal|Retry|Busy' ./internal/serve

# Operator registry: concurrent register/lookup racing LRU and
# byte-cap eviction, journal replay with torn tails, and the
# by-reference ≡ by-value differentials across solve, batch,
# decomposed, async-job, and gzip-upload paths.
go test -race -count=2 -run 'TestRegistry|TestOperator' ./internal/serve

# Micro-batching coalescer: a wave goes straight to chip checkout, so
# formation races enrollment against the checkout handoff, the boarding
# debounce, the 16-lane close and per-member deadline abandonment — the
# churn test drives 96 requests over 4 operators with mixed deadlines
# through 16 workers, twice under -race. The bit-identity tests gather
# their waves by holding the pool's chips until every member has
# enrolled. The cross-path differential holds the solo, coalesced,
# batch, 1-RHS batch, solve-job and batch-job paths (by value and by
# reference) bit-identical to the solo answer on the one execution
# path, and the job-wave test holds sixteen queued same-operator jobs,
# leased as one group, to one 16-lane wave of solo-identical answers.
go test -race -count=2 -run 'TestCoalesce|TestCrossPath|TestJobGroupRidesOneWave' ./internal/serve

# Federation router: rendezvous routing, concurrent membership polls,
# remote block scatter-gather, and the zipf load generator all mix
# goroutines with shared counters — run the whole package twice under
# -race on top of the full-suite pass. The same pass covers metrics:
# internal/metric (the one counter/histogram type and Prometheus writer
# under serve and federation) races observers against a renderer, and
# the federation package's exposition lint and series contract scrape a
# router-wrapped node that has served every request kind.
go test -race -count=2 ./internal/metric ./internal/federation

# End-to-end serve smoke: start a real alad daemon on a random port, solve the Equation 2 system through serve.Client, scrape
# /metrics to confirm the solve counter moved, POST a 3-RHS
# /v1/solve/batch and assert its items ran scalar (narrower than a lane
# wave), round-trip alasolve -server, alasolve -rhs-file with 16
# right-hand sides (which must settle at 16 lanes where the CPU has the
# lane kernels), and the alasolve -async / -job flow, then SIGTERM and
# assert a clean drain.
# Finally the crash-replay gauntlet: submit a job against a journal-backed
# daemon, SIGKILL it mid-solve, restart on the same store, and assert the
# job completes exactly once, bit-identically, on attempt 2, with the
# replay/lease/dedup counters visible in /metrics. Then the federation
# gauntlet: a real 3-node cluster routes a repeat operator to its affinity
# owner from a different entry node (warm hit, cluster counters moving),
# alasolve prints served-by/affinity provenance, an oversized solve
# scatter-gathers across the cluster bit-identically to a standalone
# daemon, and SIGKILLing the affinity owner re-routes to the rendezvous
# fallback. See scripts/smoke/main.go.
BIN="${TMPDIR:-/tmp}/alad-smoke-$$"
mkdir -p "$BIN"
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/alad" ./cmd/alad
go build -o "$BIN/alasolve" ./cmd/alasolve
go run ./scripts/smoke -alad "$BIN/alad" -alasolve "$BIN/alasolve"

# Engine equivalence: the fused kernel (scalar and lane) must stay
# bit-identical to the reference interpreter. The fuzz seed corpora replay
# the checked-in differential cases through both engines and through full
# 16-lane runs carrying batches of 1/2/7/16 items, each on the AVX2
# kernels (where the CPU has them) and on the pure-Go lane loops, and the
# core lane-batch differentials hold batches of full waves plus a scalar
# remainder equal, end to end, to the same batch on a device without lane
# mode.
go test -race -count=2 -run 'Fused|Lane|EngineEquivalence|Fuzz' ./internal/circuit
go test -race -count=2 -run 'Lane|SolveBatch' ./internal/core

# The end-to-end benchmark is its own Go module (perfbench/go.mod, with a
# replace back to this one), so the root-level vet and test runs above
# never compile it. Vet and test it here so an API change it builds
# against fails CI rather than the next benchmark run.
(cd perfbench && go vet . && go test .)

# A bounded fuzz pass past the seed corpora: 20 s of fresh randomized
# netlists through each differential (reference vs fused kernel; a
# 16-lane run vs scalar runs), then 20 s of random diagonally dominant
# banded systems through the core batch differential (16–47 items on a
# device without lane mode vs on a lane-capable chip: the same error
# text, or bit-identical answers and equal per-item Stats). The seed
# corpora above replay only the checked-in cases; this explores new ones.
go test -run '^$' -fuzz '^FuzzEngineEquivalence$' -fuzztime 20s ./internal/circuit
go test -run '^$' -fuzz '^FuzzLaneEquivalence$' -fuzztime 20s ./internal/circuit
go test -run '^$' -fuzz '^FuzzLaneBatchWidths$' -fuzztime 20s ./internal/core

# 20 s each of random input through the two file parsers every by-value
# route uses (MatrixMarket and the triplet system format): no panic, no
# allocation sized by a header the body does not back, and every accepted
# matrix round-trips through its writer to the same CSR.
go test -run '^$' -fuzz '^FuzzReadMatrixMarket$' -fuzztime 20s ./internal/la
go test -run '^$' -fuzz '^FuzzReadSystem$' -fuzztime 20s ./internal/la

# 20 s each of random request bodies through the server's decoder, plain
# and gzip (no panic, the body limit holds on the wire and after
# inflation), of random bodies through the one-pass decoder against
# encoding/json (whatever it accepts, encoding/json accepts as the same
# struct, and every body decodes to encoding/json's struct or error), and
# of random strings through the fingerprint wire form (no panic, every
# formatted fingerprint parses back to itself).
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 20s ./internal/serve
go test -run '^$' -fuzz '^FuzzDecodeOnePass$' -fuzztime 20s ./internal/serve
go test -run '^$' -fuzz '^FuzzParseFingerprint$' -fuzztime 20s ./internal/serve

# 20 s of random bytes through the journal reader under the job WAL and
# the operator journal: no panic, and the frames it accepts, written back,
# reproduce the input up to the dropped torn tail.
go test -run '^$' -fuzz '^FuzzLogReplay$' -fuzztime 20s ./internal/journal

# The paper tables: rerun every section of experiments_full.txt and fail
# on any cell or note that moved (host-timed cells and the federation
# section, which vary between runs of one build, excepted).
go run ./cmd/alabench -check experiments_full.txt -q
