package serve

import (
	"context"
	"errors"
	"testing"

	"analogacc/internal/core"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

func testDecompPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{ChipsPerClass: 2, WarmSizes: []int{2}, MinClass: 2, MaxDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolFits(t *testing.T) {
	p := testDecompPool(t)
	if err := p.Fits(la.Tridiag(8, -1, 4, -1)); err != nil {
		t.Fatalf("n=8 should fit MaxDim 8: %v", err)
	}
	err := p.Fits(la.Tridiag(16, -1, 4, -1))
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("n=16 vs MaxDim 8: want ErrTooLarge, got %v", err)
	}
	// Fits is a routing probe: it must not build or lend chips.
	if got := p.Builds(); got != 2 {
		t.Fatalf("Fits built chips: %d builds (want the 2 warm ones)", got)
	}
}

func TestPoolTryCheckout(t *testing.T) {
	p := testDecompPool(t)
	// n=8 fits only the largest class (cap 2), so exhaustion is reachable:
	// two non-blocking checkouts succeed, the third reports it as
	// (nil, nil) rather than blocking or erroring. (A smaller sample would
	// escalate into the bigger classes first, like Checkout does.)
	a := la.Tridiag(8, -1, 4, -1)
	c1, err := p.TryCheckout(a)
	if err != nil || c1 == nil {
		t.Fatalf("first TryCheckout: %v %v", c1, err)
	}
	c2, err := p.TryCheckout(a)
	if err != nil || c2 == nil {
		t.Fatalf("second TryCheckout: %v %v", c2, err)
	}
	c3, err := p.TryCheckout(a)
	if err != nil || c3 != nil {
		t.Fatalf("exhausted pool: want (nil, nil), got %v %v", c3, err)
	}
	p.Checkin(c1)
	if c, err := p.TryCheckout(a); err != nil || c == nil {
		t.Fatalf("after checkin: %v %v", c, err)
	}
	p.Checkin(c2)
}

func TestPoolProviderDegradesUnderLoad(t *testing.T) {
	p := testDecompPool(t)
	a := la.Tridiag(8, -1, 4, -1) // only the class-8 subpool (cap 2) fits
	// Hold one of the two class-8 chips hostage: a want=3 acquisition must
	// come back with the one remaining chip instead of blocking for more.
	hostage, err := p.Checkout(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	accs, release, err := p.DecompProvider().AcquireWorkers(context.Background(), a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 1 {
		t.Fatalf("got %d chips with 1 free, want 1", len(accs))
	}
	release()
	p.Checkin(hostage)
	// With the pool idle, want=3 gets both chips of the class (cap 2).
	accs, release, err = p.DecompProvider().AcquireWorkers(context.Background(), a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 2 {
		t.Fatalf("idle pool lent %d chips, want 2", len(accs))
	}
	release()
}

func TestPoolProviderMaxBlockSize(t *testing.T) {
	p := testDecompPool(t)
	pp := p.DecompProvider()
	// A sparse tridiagonal system decomposes at the largest class order.
	if got := pp.MaxBlockSize(la.Tridiag(32, -1, 4, -1)); got != 8 {
		t.Fatalf("tridiagonal block size %d, want the largest class 8", got)
	}
	// A small system is one block of its own order.
	if got := pp.MaxBlockSize(la.Tridiag(3, -1, 4, -1)); got != 3 {
		t.Fatalf("n=3 block size %d, want 3", got)
	}
}

// TestPoolProviderSolvesOversized is the provider end-to-end: a system
// larger than the pool's largest class solves through the parallel
// decomposition engine on leased chips and matches the direct answer.
func TestPoolProviderSolvesOversized(t *testing.T) {
	p := testDecompPool(t)
	a := la.Tridiag(20, -1, 4, -1)
	b := la.Constant(20, 1)
	if p.Fits(a) == nil {
		t.Fatal("n=20 should exceed MaxDim 8")
	}
	pd := &core.ParallelDecompose{
		Provider: p.DecompProvider(),
		Workers:  2,
		Opt: core.DecomposeOptions{
			OuterTolerance: 1e-6,
			Inner:          core.SolveOptions{Tolerance: 1e-8},
		},
	}
	x, stats, err := pd.Solve(context.Background(), a, b)
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, stats)
	}
	if stats.Blocks < 3 || stats.Chips < 1 || stats.Chips > 2 {
		t.Fatalf("stats %+v", stats)
	}
	direct, err := solvers.SolveCSRDirect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(direct, direct.NormInf()*0.001) {
		t.Fatalf("x=%v want %v", x, direct)
	}
	// Everything went back: both chips are checkout-able again.
	c1, _ := p.TryCheckout(la.Tridiag(8, -1, 4, -1))
	c2, _ := p.TryCheckout(la.Tridiag(8, -1, 4, -1))
	if c1 == nil || c2 == nil {
		t.Fatal("chips not returned to the pool after the solve")
	}
	p.Checkin(c1)
	p.Checkin(c2)
}

// TestServeDecomposedWorkersDefault pins the documented default of an
// unset workers field: one worker per block, bounded by what the pool
// lends. Four blocks on four idle class-8 chips use all four.
func TestServeDecomposedWorkersDefault(t *testing.T) {
	_, client, done := newTestServer(t, Config{Pool: PoolConfig{ChipsPerClass: 4, WarmSizes: []int{8}, MinClass: 8, MaxDim: 8}})
	defer done()
	const n = 32
	a := la.Tridiag(n, -1, 4, -1)
	req := SolveRequest{Backend: "decomposed", N: n, A: MatrixEntries(a), B: la.Constant(n, 1), Tol: 1e-6}
	resp, err := client.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d := resp.Decompose; d == nil || d.Blocks != 4 || d.Chips != 4 {
		t.Fatalf("workers unset: decompose stats %+v, want 4 blocks on 4 chips", d)
	}
}
