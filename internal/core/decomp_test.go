package core

import (
	"context"
	"math"
	"testing"

	"analogacc/internal/chip"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

// mkAccs builds n identical simulated accelerators. Identical specs (and
// therefore identical noise seeds) are what make the parallel schedule
// unable to change the answer: any chip programs any block the same way.
func mkAccs(t *testing.T, n, dim, maxRowNNZ int) Accelerators {
	t.Helper()
	spec := chip.ScaledSpec(dim, 12, 20e3, maxRowNNZ)
	accs := make(Accelerators, n)
	for i := range accs {
		acc, _, err := NewSimulated(spec)
		if err != nil {
			t.Fatal(err)
		}
		accs[i] = acc
	}
	return accs
}

func TestParallelDecomposeBlockSizeOne(t *testing.T) {
	// Block size 1 degenerates to point Jacobi: each "submatrix" is a
	// single diagonal entry solved on a chip. Slow but exact semantics.
	a := la.Tridiag(6, -1, 4, -1)
	b := la.Constant(6, 1)
	pd := &ParallelDecompose{
		Provider: mkAccs(t, 2, 1, 2),
		Workers:  2,
		Opt: DecomposeOptions{
			BlockSize: 1, OuterTolerance: 1e-5, MaxSweeps: 2000,
			Inner: SolveOptions{Tolerance: 1e-7},
		},
	}
	x, stats, err := pd.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, stats)
	}
	if stats.Blocks != 6 {
		t.Fatalf("blocks = %d, want 6", stats.Blocks)
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if !x.Equal(want, want.NormInf()*0.001) {
		t.Fatalf("x=%v want %v", x, want)
	}
	// All six 1×1 blocks hold the same matrix [4]: grouping shares one
	// representative, so at most one configuration per chip.
	if stats.Configs > stats.Chips {
		t.Fatalf("%d configs on %d chips for identical 1×1 blocks", stats.Configs, stats.Chips)
	}
}

func TestParallelDecomposeRaggedTail(t *testing.T) {
	// n=10 over blocks of 4: blocks of 4, 4, and 2 — the last block is
	// smaller than the scratch buffers, exercising the reslice path.
	a := la.Tridiag(10, -1, 4, -1)
	b := la.Constant(10, 1)
	pd := &ParallelDecompose{
		Provider: mkAccs(t, 3, 4, 4),
		Workers:  3,
		Opt: DecomposeOptions{
			BlockSize: 4, OuterTolerance: 1e-5,
			Inner: SolveOptions{Tolerance: 1e-7},
		},
	}
	x, stats, err := pd.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, stats)
	}
	if stats.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3 (4+4+2)", stats.Blocks)
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if !x.Equal(want, want.NormInf()*0.001) {
		t.Fatalf("x=%v want %v", x, want)
	}
}

func TestParallelDecomposeSingleBlock(t *testing.T) {
	// Block size ≥ n: one block, one sweep, no outer iteration needed —
	// the engine degenerates to a plain refined solve.
	a := la.Tridiag(4, -1, 4, -1)
	b := la.Constant(4, 1)
	pd := &ParallelDecompose{
		Provider: mkAccs(t, 2, 4, 4),
		Opt: DecomposeOptions{
			BlockSize: 99, OuterTolerance: 1e-6,
			Inner: SolveOptions{Tolerance: 1e-8},
		},
	}
	x, stats, err := pd.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 1 || stats.Sweeps != 1 || stats.Chips != 1 {
		t.Fatalf("degenerate single block: %+v", stats)
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if !x.Equal(want, want.NormInf()*0.001) {
		t.Fatalf("x=%v want %v", x, want)
	}
}

// TestParallelDecomposeDeterministic is the schedule-independence
// guarantee: with identical chips, the same system solved over 1, 2, or 3
// workers — and solved twice with the same worker count — produces
// byte-identical results. Jacobi sweeps read only the previous iterate, so
// neither goroutine interleaving nor block→chip assignment can leak into
// the arithmetic.
func TestParallelDecomposeDeterministic(t *testing.T) {
	g, _ := la.NewGrid(2, 6)
	a := la.PoissonMatrix(g)
	b := la.NewVector(g.N())
	for i := range b {
		b[i] = 1 + float64(i%3)*0.25
	}
	run := func(workers int) la.Vector {
		pd := &ParallelDecompose{
			Provider: mkAccs(t, workers, 6, 4),
			Workers:  workers,
			Opt: DecomposeOptions{
				BlockSize: 6, OuterTolerance: 1e-4,
				Inner: SolveOptions{Tolerance: 1e-6},
			},
		}
		x, _, err := pd.Solve(context.Background(), a, b)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return x
	}
	ref := run(1)
	for _, workers := range []int{1, 2, 3} {
		got := run(workers)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%d workers: x[%d] = %x differs from 1-worker %x",
					workers, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

// TestParallelDecomposePinnedConfigs is the session-pinning economy: over
// a multi-sweep solve, matrix configurations grow with the number of
// distinct block matrices, never with blocks×sweeps.
func TestParallelDecomposePinnedConfigs(t *testing.T) {
	g, _ := la.NewGrid(2, 6)
	a := la.PoissonMatrix(g)
	b := la.Constant(g.N(), 1)
	pd := &ParallelDecompose{
		Provider: mkAccs(t, 2, 6, 4),
		Workers:  2,
		Opt: DecomposeOptions{
			BlockSize: 6, OuterTolerance: 1e-4,
			Inner: SolveOptions{Tolerance: 1e-6},
		},
	}
	_, stats, err := pd.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sweeps < 2 {
		t.Fatalf("need a multi-sweep solve to observe pinning, got %+v", stats)
	}
	if stats.Configs > stats.Blocks {
		t.Fatalf("%d configs for %d blocks over %d sweeps: pinning broken", stats.Configs, stats.Blocks, stats.Sweeps)
	}
	wantHits := stats.Sweeps*stats.Blocks - stats.Configs
	if stats.ReuseHits != wantHits {
		t.Fatalf("reuse hits %d, want %d", stats.ReuseHits, wantHits)
	}
}

func TestParallelDecomposeErrors(t *testing.T) {
	a := la.Tridiag(4, -1, 4, -1)
	b := la.Constant(4, 1)
	// No provider.
	if _, _, err := (&ParallelDecompose{}).Solve(context.Background(), a, b); err == nil {
		t.Fatal("nil provider accepted")
	}
	// No block size and a provider that chooses none.
	bare := providerFunc(func(ctx context.Context, sample Matrix, want int) ([]BlockWorker, func(), error) {
		return []BlockWorker{mkAccs(t, 1, 4, 4)[0]}, nil, nil
	})
	if _, _, err := (&ParallelDecompose{Provider: bare}).Solve(context.Background(), a, b); err == nil {
		t.Fatal("missing block size accepted")
	}
	// Mismatched b.
	pd := &ParallelDecompose{Provider: mkAccs(t, 1, 4, 4), Opt: DecomposeOptions{BlockSize: 4}}
	if _, _, err := pd.Solve(context.Background(), a, la.NewVector(3)); err == nil {
		t.Fatal("mismatched b accepted")
	}
	// Cancelled context aborts before the first sweep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pd.Solve(ctx, a, b); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

type providerFunc func(ctx context.Context, sample Matrix, want int) ([]BlockWorker, func(), error)

func (f providerFunc) AcquireWorkers(ctx context.Context, sample Matrix, want int) ([]BlockWorker, func(), error) {
	return f(ctx, sample, want)
}

func (providerFunc) MaxBlockSize(*la.CSR) int { return 0 }

// TestLightCommitSkipsRebuild verifies the chip-level fast path the pinned
// sessions ride on: once a matrix is programmed, further solves on the
// same session only rewrite biases and initial conditions — a
// parameter-only commit, not a netlist rebuild — and still get the right
// answer. Reprogramming a different matrix must rebuild.
func TestLightCommitSkipsRebuild(t *testing.T) {
	a := la.Tridiag(4, -1, 4, -1)
	acc, dev, err := NewSimulated(chip.ScaledSpec(4, 12, 20e3, 4))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := acc.BeginSession(a)
	if err != nil {
		t.Fatal(err)
	}
	base := dev.Rebuilds()
	if base == 0 {
		t.Fatal("programming the matrix did not build the netlist")
	}
	for _, scale := range []float64{1, 0.5, -0.25} {
		b := la.Constant(4, scale)
		u, _, err := sess.SolveForRefined(b, SolveOptions{Tolerance: 1e-7})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := solvers.SolveCSRDirect(a, b)
		if !u.Equal(want, want.NormInf()*0.001+1e-9) {
			t.Fatalf("scale %v: u=%v want %v", scale, u, want)
		}
	}
	if got := dev.Rebuilds(); got != base {
		t.Fatalf("bias-only solves rebuilt the netlist: %d → %d rebuilds", base, got)
	}
	// A different matrix is a topology/gain change: full rebuild.
	a2 := la.Tridiag(4, -0.5, 3, -0.5)
	if _, err := acc.BeginSession(a2); err != nil {
		t.Fatal(err)
	}
	if got := dev.Rebuilds(); got <= base {
		t.Fatalf("new matrix did not rebuild: still %d rebuilds", got)
	}
}

// TestBlockRHSNoAllocs guards the per-sweep hot path: forming a block's
// right-hand side in caller scratch must not allocate, or the outer loop
// regresses to the pre-pinning allocation profile.
func TestBlockRHSNoAllocs(t *testing.T) {
	a := la.Tridiag(12, -1, 4, -1)
	b := la.Constant(12, 1)
	x := la.Constant(12, 0.5)
	idx := []int{4, 5, 6, 7}
	dst := la.NewVector(4)
	off := la.NewVector(4)
	if n := testing.AllocsPerRun(100, func() {
		blockRHS(dst, off, a, idx, b, x)
	}); n != 0 {
		t.Fatalf("blockRHS allocates %v per call", n)
	}
}

// TestSolveDecomposedNoSweepAllocs pins the sequential outer loop's
// allocation budget: after the block sessions exist, additional sweeps
// must reuse the preallocated scratch. The second identical solve on the
// same accelerator reuses the chip's programming, so its per-sweep cost is
// the pure outer-loop path.
func TestSolveDecomposedNoSweepAllocs(t *testing.T) {
	a := la.Tridiag(8, -1, 4, -1)
	b := la.Constant(8, 1)
	accs := mkAccs(t, 1, 4, 4)
	opt := DecomposeOptions{
		BlockSize: 4, Jacobi: true, OuterTolerance: 1e-5,
		Inner: SolveOptions{Tolerance: 1e-7},
	}
	if _, _, err := accs[0].SolveDecomposed(a, b, opt); err != nil {
		t.Fatal(err)
	}
	// The steady-state solve still allocates inside the analog block
	// solves (simulator reads, refinement vectors — about 8k/op on this
	// system); the guard is a generous 2× ceiling that trips if the outer
	// loop starts allocating per sweep again or the hot loop regresses to
	// per-step allocation.
	res := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			if _, _, err := accs[0].SolveDecomposed(a, b, opt); err != nil {
				tb.Fatal(err)
			}
		}
	})
	if res.AllocsPerOp() > 16000 {
		t.Fatalf("SolveDecomposed allocates %d/op — the sweep path is reallocating", res.AllocsPerOp())
	}
}
