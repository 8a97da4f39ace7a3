package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"analogacc/internal/chip"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

// lane6System is a 6-variable 1-D Poisson system with a batch of seven
// right-hand sides — wide enough to exercise partial final waves at every
// tested lane width (7 items at width 2 → waves of 2,2,2,1; at width 16 →
// one wave of 7).
func lane6System() (*la.CSR, []la.Vector) {
	g, _ := la.NewGrid(1, 6)
	a := la.PoissonMatrix(g)
	rhs := []la.Vector{
		la.VectorOf(0.5, -0.2, 0.3, 0.1, 0.0, -0.4),
		la.VectorOf(-0.1, 0.4, -0.3, 0.2, 0.5, 0.1),
		la.VectorOf(0.2, 0.2, 0.2, 0.2, 0.2, 0.2),
		la.VectorOf(0.6, 0.0, -0.1, 0.0, 0.3, -0.2),
		la.VectorOf(-0.3, -0.3, 0.4, 0.1, -0.2, 0.5),
		la.VectorOf(0.1, 0.5, 0.0, -0.4, 0.2, 0.3),
		la.VectorOf(0.4, -0.1, 0.2, 0.3, -0.5, 0.0),
	}
	return a, rhs
}

func lane6Spec() chip.Spec {
	g, _ := la.NewGrid(1, 6)
	a := la.PoissonMatrix(g)
	spec := chip.ScaledSpec(6, 12, 20e3, a.MaxRowNNZ()+1)
	spec.FanoutsPerMB = 2
	spec.Seed = 31
	return spec
}

// TestSolveBatchLaneWidthsIdentical is the core-level lane differential:
// one batch solved at every interesting lane width — 1 (the sequential
// scalar path), 2 and 7 (multi-wave schedules with a partial final wave),
// 16 (one full-width wave), and 0 (device limit) — must produce
// bit-identical solutions on identically seeded chips. Widths ≥ 2 must
// actually take the lane path (the probe marks the device lane-capable).
func TestSolveBatchLaneWidthsIdentical(t *testing.T) {
	a, rhs := lane6System()
	solve := func(width int) ([]la.Vector, *Accelerator) {
		acc := simAcc(t, lane6Spec())
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		us, stats, err := sess.SolveBatch(context.Background(), rhs, SolveOptions{MaxLanes: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for k := range stats {
			if stats[k].Runs == 0 || stats[k].AnalogTime <= 0 {
				t.Fatalf("width %d rhs %d: stats not accounted: %+v", width, k, stats[k])
			}
		}
		return us, acc
	}
	ref, _ := solve(1)
	want, err := solvers.SolveCSRDirect(a, rhs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ref[0].Equal(want, want.NormInf()*0.02+1e-3) {
		t.Fatalf("sequential batch inaccurate: %v want %v", ref[0], want)
	}
	for _, width := range []int{0, 2, 7, 16} {
		us, acc := solve(width)
		if acc.laneSupport != 1 {
			t.Fatalf("width %d: lane path never entered (laneSupport=%d)", width, acc.laneSupport)
		}
		for k := range rhs {
			for i := range us[k] {
				if us[k][i] != ref[k][i] {
					t.Fatalf("width %d rhs %d component %d: %v != sequential %v",
						width, k, i, us[k][i], ref[k][i])
				}
			}
		}
	}
}

// TestSolveBatchRefinedLaneWidthsIdentical repeats the width differential
// through Algorithm 2: refined batches at widths 1, 2, 7, and 16 must be
// bit-identical and all meet the tolerance.
func TestSolveBatchRefinedLaneWidthsIdentical(t *testing.T) {
	a, rhs := lane6System()
	opt := SolveOptions{Tolerance: 1e-8}
	solve := func(width int) []la.Vector {
		o := opt
		o.MaxLanes = width
		acc := simAcc(t, lane6Spec())
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		us, stats, err := sess.SolveBatchRefined(context.Background(), rhs, o)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for k := range rhs {
			if stats[k].Residual > opt.Tolerance {
				t.Fatalf("width %d rhs %d: residual %v above tolerance", width, k, stats[k].Residual)
			}
		}
		return us
	}
	ref := solve(1)
	for _, width := range []int{2, 7, 16} {
		us := solve(width)
		for k := range rhs {
			for i := range us[k] {
				if us[k][i] != ref[k][i] {
					t.Fatalf("width %d rhs %d component %d: %v != sequential %v",
						width, k, i, us[k][i], ref[k][i])
				}
			}
		}
	}
}

// TestSolveBatchStaggeredSettleExits drives one wave whose lanes settle at
// very different times: A = diag(0.9, 0.09) has a 10× spread in mode time
// constants, so right-hand sides exciting only the fast mode settle whole
// doubling chunks before the slow-mode items. Fast lanes must exit the
// wave early (strictly smaller per-item settle times) and the staggered
// exits must not perturb the late lanes — results stay bit-identical to
// per-item solves from the batch's entry state.
func TestSolveBatchStaggeredSettleExits(t *testing.T) {
	a := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.9},
		{Row: 1, Col: 1, Val: 0.09},
	})
	rhs := []la.Vector{
		la.VectorOf(0.5, 0),     // fast mode only
		la.VectorOf(0, 0.05),    // slow mode only
		la.VectorOf(0.4, 0.02),  // both
		la.VectorOf(-0.3, 0.04), // both, opposite signs
	}
	spec := chip.PrototypeSpec()
	spec.ADCBits = 12
	spec.DACBits = 12
	spec.Seed = 17

	seq := make([]la.Vector, len(rhs))
	for k, b := range rhs {
		acc := simAcc(t, spec)
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		u, _, err := sess.SolveFor(b, SolveOptions{DisableBoost: true})
		if err != nil {
			t.Fatal(err)
		}
		seq[k] = u
	}

	acc := simAcc(t, spec)
	sess, err := acc.BeginSession(a)
	if err != nil {
		t.Fatal(err)
	}
	us, stats, err := sess.SolveBatch(context.Background(), rhs, SolveOptions{DisableBoost: true})
	if err != nil {
		t.Fatal(err)
	}
	if acc.laneSupport != 1 {
		t.Fatalf("lane path never entered (laneSupport=%d)", acc.laneSupport)
	}
	for k := range rhs {
		for i := range us[k] {
			if us[k][i] != seq[k][i] {
				t.Fatalf("rhs %d component %d: batch %v != sequential %v", k, i, us[k][i], seq[k][i])
			}
		}
	}
	if stats[0].SettleTime <= 0 || stats[1].SettleTime <= 0 {
		t.Fatalf("settle times not recorded: %+v / %+v", stats[0], stats[1])
	}
	if stats[0].SettleTime >= stats[1].SettleTime {
		t.Fatalf("fast-mode lane did not exit early: fast settle %v, slow settle %v",
			stats[0].SettleTime, stats[1].SettleTime)
	}
}

// TestSolveBatchRefinedItemsGuessQuality pins mid-batch per-lane
// refinement exits: an item seeded with the exact digital solution
// converges in fewer passes than cold-started items, shrinking later
// waves — and the early exit must leave every item bit-identical across
// lane widths.
func TestSolveBatchRefinedItemsGuessQuality(t *testing.T) {
	a, rhs := lane6System()
	exact, err := solvers.SolveCSRDirect(a, rhs[2])
	if err != nil {
		t.Fatal(err)
	}
	opt := SolveOptions{Tolerance: 1e-8}
	solve := func(width int) ([]la.Vector, []Stats) {
		o := opt
		o.MaxLanes = width
		items := make([]BatchItem, len(rhs))
		for k, b := range rhs {
			items[k] = BatchItem{RHS: b}
		}
		items[2].Guess = exact.Clone()
		acc := simAcc(t, lane6Spec())
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		us, stats, _, err := sess.SolveBatchRefinedItems(context.Background(), items, o)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return us, stats
	}
	ref, refStats := solve(1)
	if refStats[2].Refinements >= refStats[0].Refinements {
		t.Fatalf("exact guess did not converge faster: item 2 %d passes, item 0 %d",
			refStats[2].Refinements, refStats[0].Refinements)
	}
	for _, width := range []int{3, 16} {
		us, stats := solve(width)
		for k := range rhs {
			if stats[k].Refinements != refStats[k].Refinements {
				t.Fatalf("width %d rhs %d: %d refinement passes, sequential took %d",
					width, k, stats[k].Refinements, refStats[k].Refinements)
			}
			for i := range us[k] {
				if us[k][i] != ref[k][i] {
					t.Fatalf("width %d rhs %d component %d: %v != sequential %v",
						width, k, i, us[k][i], ref[k][i])
				}
			}
		}
	}
}

// fuzzBandSystem builds a random strictly diagonally dominant banded
// system of order n (bandwidth 1 or 2, unsymmetric, random signs) and k
// random right-hand sides, all from seed.
func fuzzBandSystem(seed int64, n, k int) (*la.CSR, []la.Vector) {
	rng := rand.New(rand.NewSource(seed))
	band := 1 + rng.Intn(2)
	var entries []la.COOEntry
	for i := 0; i < n; i++ {
		row := len(entries)
		var off float64
		for j := i - band; j <= i+band; j++ {
			if j < 0 || j >= n || j == i {
				continue
			}
			v := rng.Float64()*2 - 1
			off += math.Abs(v)
			entries = append(entries, la.COOEntry{Row: i, Col: j, Val: v})
		}
		entries = append(entries, la.COOEntry{Row: i, Col: i, Val: off + 0.05 + rng.Float64()})
		if rng.Intn(4) == 0 {
			// A row at another scale: slow and fast modes in one system.
			f := 0.1 + rng.Float64()*3
			for e := row; e < len(entries); e++ {
				entries[e].Val *= f
			}
		}
	}
	rhs := make([]la.Vector, k)
	for r := range rhs {
		b := la.NewVector(n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		rhs[r] = b
	}
	return la.MustCSR(n, entries), rhs
}

// FuzzLaneBatchWidths is the lane differential over random systems: a
// batch solved at width 1 (sequential scalar solves) and at width w on
// identically seeded fresh chips must either fail with the same error
// text on both, or return bit-identical solutions with equal per-item
// Stats (the wave width aside). Order 2–8, 2–9 items, widths 2–16, plain
// (boost on) or refined batches. An odd seed first warms the session with
// one solve, so the batch starts from a learned σ gain that may not fit
// its items: that is what sends a plain batch's items to the boost path
// (from a cold start a diagonally dominant system reads ‖û‖∞ > ½, far
// above the boost threshold).
func FuzzLaneBatchWidths(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, order, items, width uint8, refined bool) {
		n := 2 + int(order)%7
		k := 2 + int(items)%8
		w := 2 + int(width)%15
		a, rhs := fuzzBandSystem(seed, n, k+1)
		warm, rhs := rhs[k], rhs[:k]
		spec := chip.ScaledSpec(n, 12, 20e3, a.MaxRowNNZ()+1)
		spec.FanoutsPerMB = 2
		spec.Seed = seed
		solve := func(width int) ([]la.Vector, []Stats, error) {
			acc := simAcc(t, spec)
			sess, err := acc.BeginSession(a)
			if err != nil {
				t.Fatal(err)
			}
			if seed%2 != 0 {
				if _, _, err := sess.SolveFor(warm, SolveOptions{}); err != nil {
					t.Fatalf("warm-up solve: %v", err)
				}
			}
			opt := SolveOptions{MaxLanes: width}
			if refined {
				opt.Tolerance = 1e-8
				return sess.SolveBatchRefined(context.Background(), rhs, opt)
			}
			return sess.SolveBatch(context.Background(), rhs, opt)
		}
		refU, refStats, refErr := solve(1)
		us, stats, err := solve(w)
		if refErr != nil || err != nil {
			if refErr == nil || err == nil || refErr.Error() != err.Error() {
				t.Fatalf("width 1 error %v, width %d error %v", refErr, w, err)
			}
			return
		}
		for r := range rhs {
			for i := range us[r] {
				if math.Float64bits(us[r][i]) != math.Float64bits(refU[r][i]) {
					t.Fatalf("width %d rhs %d component %d: %v != sequential %v", w, r, i, us[r][i], refU[r][i])
				}
			}
			if statsBesideLanes(stats[r]) != statsBesideLanes(refStats[r]) {
				t.Fatalf("width %d rhs %d stats:\n got %+v\nwant %+v", w, r, stats[r], refStats[r])
			}
		}
	})
}
