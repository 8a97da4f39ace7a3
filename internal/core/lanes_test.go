package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"analogacc/internal/chip"
	"analogacc/internal/circuit"
	"analogacc/internal/isa"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

// lane6System is a 6-variable 1-D Poisson system with seven right-hand
// sides.
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

// lane6Batch returns a batch of k right-hand sides for lane6System's
// matrix: its seven, then deterministic pseudo-random ones.
func lane6Batch(k int) []la.Vector {
	_, rhs := lane6System()
	rng := rand.New(rand.NewSource(6))
	for len(rhs) < k {
		b := la.NewVector(6)
		for i := range b {
			b[i] = rng.Float64() - 0.5
		}
		rhs = append(rhs, b)
	}
	return rhs[:k]
}

func lane6Spec() chip.Spec {
	g, _ := la.NewGrid(1, 6)
	a := la.PoissonMatrix(g)
	spec := chip.ScaledSpec(6, 12, 20e3, a.MaxRowNNZ()+1)
	spec.FanoutsPerMB = 2
	spec.Seed = 31
	return spec
}

// batchSizes are the items per batch the lane differentials cover: a
// pair and a partial wave run scalar, then one full wave, a full wave
// plus a scalar remainder, and two full waves.
var batchSizes = []int{2, 7, 16, 23, 32}

// laneProbe is a transport that records the lane count of every setLanes
// frame the host sends. With refuse set it is an older device: it
// answers setLanes with StatusBadOpcode, so the host probes once and runs
// every batch scalar — the reference the lane differentials compare with.
type laneProbe struct {
	lb     *isa.Loopback
	refuse bool
	counts []uint16
}

func (p *laneProbe) Transact(frame []byte) ([]byte, error) {
	if op, payload, err := isa.DecodeFrame(frame); err == nil && op == isa.OpSetLanes {
		if len(payload) == 2 {
			p.counts = append(p.counts, isa.GetU16(payload, 0))
		}
		if p.refuse {
			return isa.EncodeResponse(isa.StatusBadOpcode, nil)
		}
	}
	return p.lb.Transact(frame)
}

// probeAcc binds a driver to a fresh simulated chip through a laneProbe.
func probeAcc(t testing.TB, spec chip.Spec, refuse bool) (*Accelerator, *laneProbe) {
	t.Helper()
	dev, err := chip.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := &laneProbe{lb: isa.NewLoopback(dev), refuse: refuse}
	acc, err := New(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	return acc, p
}

// scalarAcc is a fresh chip of spec behind an older device's transport.
func scalarAcc(t testing.TB, spec chip.Spec) *Accelerator {
	t.Helper()
	acc, _ := probeAcc(t, spec, true)
	return acc
}

// wantLaneSupport is the lane probe's verdict after a batch of items on
// a noise-free fused chip: unprobed below a full wave, else lane mode
// where the CPU has the lane kernels and refused where it does not.
func wantLaneSupport(items int) int8 {
	switch {
	case items < circuit.LaneWidth:
		return 0
	case circuit.LaneKernels():
		return 1
	default:
		return -1
	}
}

// expectBitIdentical fails unless two batches' answers agree bit for bit.
func expectBitIdentical(t testing.TB, tag string, got, want []la.Vector) {
	t.Helper()
	for k := range want {
		for i := range want[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("%s rhs %d component %d: %v != scalar %v", tag, k, i, got[k][i], want[k][i])
			}
		}
	}
}

// TestSolveBatchLaneWidthsIdentical is the core-level lane differential:
// batches of every size in batchSizes — scalar sets, full waves, and full
// waves with a scalar remainder — must produce bit-identical solutions to
// the same batch on an identically seeded device without lane mode, and
// take the lane path exactly when they fill a wave on a CPU with the lane
// kernels.
func TestSolveBatchLaneWidthsIdentical(t *testing.T) {
	a, _ := lane6System()
	solve := func(acc *Accelerator, rhs []la.Vector) []la.Vector {
		t.Helper()
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		us, stats, err := sess.SolveBatch(context.Background(), rhs, SolveOptions{})
		if err != nil {
			t.Fatalf("%d items: %v", len(rhs), err)
		}
		for k := range stats {
			if stats[k].Runs == 0 || stats[k].AnalogTime <= 0 {
				t.Fatalf("%d items rhs %d: stats not accounted: %+v", len(rhs), k, stats[k])
			}
		}
		return us
	}
	for _, k := range batchSizes {
		rhs := lane6Batch(k)
		ref := solve(scalarAcc(t, lane6Spec()), rhs)
		want, err := solvers.SolveCSRDirect(a, rhs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !ref[0].Equal(want, want.NormInf()*0.02+1e-3) {
			t.Fatalf("scalar batch inaccurate: %v want %v", ref[0], want)
		}
		acc := simAcc(t, lane6Spec())
		us := solve(acc, rhs)
		if acc.laneSupport != wantLaneSupport(k) {
			t.Fatalf("%d items: laneSupport=%d, want %d", k, acc.laneSupport, wantLaneSupport(k))
		}
		expectBitIdentical(t, fmt.Sprintf("%d items", k), us, ref)
	}
}

// TestSolveBatchRefinedLaneWidthsIdentical repeats the batch-size
// differential through Algorithm 2: refined batches of every size must be
// bit-identical to the scalar device's and all meet the tolerance.
func TestSolveBatchRefinedLaneWidthsIdentical(t *testing.T) {
	a, _ := lane6System()
	opt := SolveOptions{Tolerance: 1e-8}
	solve := func(acc *Accelerator, rhs []la.Vector) []la.Vector {
		t.Helper()
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		us, stats, err := sess.SolveBatchRefined(context.Background(), rhs, opt)
		if err != nil {
			t.Fatalf("%d items: %v", len(rhs), err)
		}
		for k := range rhs {
			if stats[k].Residual > opt.Tolerance {
				t.Fatalf("%d items rhs %d: residual %v above tolerance", len(rhs), k, stats[k].Residual)
			}
		}
		return us
	}
	for _, k := range batchSizes {
		rhs := lane6Batch(k)
		ref := solve(scalarAcc(t, lane6Spec()), rhs)
		acc := simAcc(t, lane6Spec())
		us := solve(acc, rhs)
		if acc.laneSupport != wantLaneSupport(k) {
			t.Fatalf("%d items: laneSupport=%d, want %d", k, acc.laneSupport, wantLaneSupport(k))
		}
		expectBitIdentical(t, fmt.Sprintf("%d items", k), us, ref)
	}
}

// TestLaneWavesOnlyFull pins the lane rule: a batch narrower than a full
// wave never enters lane mode, and a wider one runs full waves and its
// remainder scalar. With a σ hint above every answer and the boost off,
// no item overflows or falls back, so the items of the first
// items/LaneWidth waves settle in them. The host may send setLanes only
// with 0 or LaneWidth, and on a CPU with the lane kernels an item reports
// Lanes = LaneWidth exactly when it settled in a full wave.
func TestLaneWavesOnlyFull(t *testing.T) {
	a, _ := lane6System()
	for k := 2; k <= 2*circuit.LaneWidth+3; k++ {
		rhs := lane6Batch(k)
		var peak float64
		for _, b := range rhs {
			u, err := solvers.SolveCSRDirect(a, b)
			if err != nil {
				t.Fatal(err)
			}
			peak = math.Max(peak, u.NormInf())
		}
		acc, probe := probeAcc(t, lane6Spec(), false)
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := sess.SolveBatch(context.Background(), rhs, SolveOptions{SigmaHint: 1.5 * peak, DisableBoost: true})
		if err != nil {
			t.Fatalf("%d items: %v", k, err)
		}
		for _, c := range probe.counts {
			if c != 0 && c != circuit.LaneWidth {
				t.Fatalf("%d items: setLanes(%d), want only 0 or %d", k, c, circuit.LaneWidth)
			}
		}
		if k < circuit.LaneWidth && len(probe.counts) != 0 {
			t.Fatalf("%d items probed lane mode: setLanes %v", k, probe.counts)
		}
		inWaves := 0
		if circuit.LaneKernels() {
			inWaves = k / circuit.LaneWidth * circuit.LaneWidth
		}
		for i, st := range stats {
			if st.Rescales != 0 || st.Overflows != 0 {
				t.Fatalf("%d items rhs %d rescaled: %+v", k, i, st)
			}
			want := 0
			if i < inWaves {
				want = circuit.LaneWidth
			}
			if st.Lanes != want {
				t.Fatalf("%d items rhs %d: Lanes=%d, want %d", k, i, st.Lanes, want)
			}
		}
	}
}

// TestOldDeviceRunsScalar drives a refined batch wider than a wave through
// two devices without lane mode: an older one that answers setLanes with
// StatusBadOpcode, and a chip on the interpreter engine, which refuses
// lane mode at commit as a CPU without the lane kernels does. Each must
// probe once across every pass, run every item scalar, and answer bit
// for bit like the lane-capable chip.
func TestOldDeviceRunsScalar(t *testing.T) {
	a, _ := lane6System()
	rhs := lane6Batch(2*circuit.LaneWidth + 7)
	solve := func(acc *Accelerator) ([]la.Vector, []Stats) {
		t.Helper()
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		us, stats, err := sess.SolveBatchRefined(context.Background(), rhs, SolveOptions{Tolerance: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		return us, stats
	}
	ref, refStats := solve(simAcc(t, lane6Spec()))
	interp := lane6Spec()
	interp.Engine = "interpreter"
	for _, c := range []struct {
		name   string
		spec   chip.Spec
		refuse bool
		counts []uint16
	}{
		{"old device", lane6Spec(), true, []uint16{circuit.LaneWidth}},
		// The commit refuses; the host unstages the lanes and commits.
		{"interpreter chip", interp, false, []uint16{circuit.LaneWidth, 0}},
	} {
		acc, probe := probeAcc(t, c.spec, c.refuse)
		us, stats := solve(acc)
		if acc.laneSupport != -1 {
			t.Fatalf("%s: laneSupport=%d, want -1", c.name, acc.laneSupport)
		}
		if fmt.Sprint(probe.counts) != fmt.Sprint(c.counts) {
			t.Fatalf("%s: setLanes %v, want one probe %v", c.name, probe.counts, c.counts)
		}
		for k := range stats {
			if stats[k].Lanes != 0 {
				t.Fatalf("%s rhs %d: Lanes=%d on a device without lane mode", c.name, k, stats[k].Lanes)
			}
			if statsBesideLanes(stats[k]) != statsBesideLanes(refStats[k]) {
				t.Fatalf("%s rhs %d stats:\n got %+v\nwant %+v", c.name, k, stats[k], refStats[k])
			}
		}
		expectBitIdentical(t, c.name, us, ref)
	}
}

// TestSolveBatchStaggeredSettleExits drives one full wave whose lanes
// settle at very different times: A = diag(0.9, 0.09) has a 10× spread in
// mode time constants, so right-hand sides exciting only the fast mode
// settle whole chunks before the slow-mode items. Fast lanes must exit
// the wave early (strictly smaller per-item settle times) and the
// staggered exits must not perturb the late lanes — results stay
// bit-identical to per-item solves from the batch's entry state.
func TestSolveBatchStaggeredSettleExits(t *testing.T) {
	a := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.9},
		{Row: 1, Col: 1, Val: 0.09},
	})
	base := []la.Vector{
		la.VectorOf(0.5, 0),     // fast mode only
		la.VectorOf(0, 0.05),    // slow mode only
		la.VectorOf(0.4, 0.02),  // both
		la.VectorOf(-0.3, 0.04), // both, opposite signs
	}
	var rhs []la.Vector
	for len(rhs) < circuit.LaneWidth {
		f := 1 - 0.1*float64(len(rhs)/len(base))
		for _, b := range base {
			rhs = append(rhs, b.Scaled(f))
		}
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
	if acc.laneSupport != wantLaneSupport(len(rhs)) {
		t.Fatalf("laneSupport=%d, want %d", acc.laneSupport, wantLaneSupport(len(rhs)))
	}
	expectBitIdentical(t, "staggered wave", us, seq)
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
// passes — and the early exit must leave every item bit-identical to the
// scalar device's, for a batch that runs scalar and for one that runs a
// full wave plus a scalar remainder.
func TestSolveBatchRefinedItemsGuessQuality(t *testing.T) {
	a, _ := lane6System()
	opt := SolveOptions{Tolerance: 1e-8}
	solve := func(acc *Accelerator, rhs []la.Vector) ([]la.Vector, []Stats) {
		t.Helper()
		exact, err := solvers.SolveCSRDirect(a, rhs[2])
		if err != nil {
			t.Fatal(err)
		}
		items := make([]BatchItem, len(rhs))
		for k, b := range rhs {
			items[k] = BatchItem{RHS: b}
		}
		items[2].Guess = exact
		sess, err := acc.BeginSession(a)
		if err != nil {
			t.Fatal(err)
		}
		us, stats, _, err := sess.SolveBatchRefinedItems(context.Background(), items, opt)
		if err != nil {
			t.Fatalf("%d items: %v", len(rhs), err)
		}
		return us, stats
	}
	for _, k := range []int{7, circuit.LaneWidth + 7} {
		rhs := lane6Batch(k)
		ref, refStats := solve(scalarAcc(t, lane6Spec()), rhs)
		if refStats[2].Refinements >= refStats[0].Refinements {
			t.Fatalf("exact guess did not converge faster: item 2 %d passes, item 0 %d",
				refStats[2].Refinements, refStats[0].Refinements)
		}
		us, stats := solve(simAcc(t, lane6Spec()), rhs)
		for i := range rhs {
			if stats[i].Refinements != refStats[i].Refinements {
				t.Fatalf("%d items rhs %d: %d refinement passes, scalar took %d",
					k, i, stats[i].Refinements, refStats[i].Refinements)
			}
		}
		expectBitIdentical(t, fmt.Sprintf("%d items", k), us, ref)
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
// batch solved on a device without lane mode and on an identically seeded
// fresh chip with lanes must either fail with the same error text on
// both, or return bit-identical solutions with equal per-item Stats (the
// wave width aside). Order 2–8; 16–47 items, one or two full waves
// (items) plus a scalar remainder of 0–15 (width), so each input drives
// at least one full lane wave where the CPU has the lane kernels; plain
// (boost on) or refined batches. An odd seed first warms the session with
// one solve, so the batch starts from a learned σ gain that may not fit
// its items: that is what sends a plain batch's items to the boost path
// (from a cold start a diagonally dominant system reads ‖û‖∞ > ½, far
// above the boost threshold). The corpus files keep the names of the lane
// widths the arguments picked before the width was fixed.
func FuzzLaneBatchWidths(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, order, items, width uint8, refined bool) {
		n, k := fuzzBatchShape(order, items, width)
		a, rhs := fuzzBandSystem(seed, n, k+1)
		warm, rhs := rhs[k], rhs[:k]
		spec := chip.ScaledSpec(n, 12, 20e3, a.MaxRowNNZ()+1)
		spec.FanoutsPerMB = 2
		spec.Seed = seed
		solve := func(acc *Accelerator) ([]la.Vector, []Stats, error) {
			sess, err := acc.BeginSession(a)
			if err != nil {
				t.Fatal(err)
			}
			if seed%2 != 0 {
				if _, _, err := sess.SolveFor(warm, SolveOptions{}); err != nil {
					t.Fatalf("warm-up solve: %v", err)
				}
			}
			if refined {
				return sess.SolveBatchRefined(context.Background(), rhs, SolveOptions{Tolerance: 1e-8})
			}
			return sess.SolveBatch(context.Background(), rhs, SolveOptions{})
		}
		refU, refStats, refErr := solve(scalarAcc(t, spec))
		acc := simAcc(t, spec)
		us, stats, err := solve(acc)
		if refErr != nil || err != nil {
			if refErr == nil || err == nil || refErr.Error() != err.Error() {
				t.Fatalf("scalar error %v, lane error %v (%d items)", refErr, err, k)
			}
			return
		}
		if acc.laneSupport != wantLaneSupport(k) {
			t.Fatalf("%d items: laneSupport=%d, want %d", k, acc.laneSupport, wantLaneSupport(k))
		}
		expectBitIdentical(t, fmt.Sprintf("%d items", k), us, refU)
		for r := range rhs {
			if statsBesideLanes(stats[r]) != statsBesideLanes(refStats[r]) {
				t.Fatalf("%d items rhs %d stats:\n got %+v\nwant %+v", k, r, stats[r], refStats[r])
			}
		}
	})
}

// fuzzBatchShape maps FuzzLaneBatchWidths' arguments to a system order
// and a batch size: one or two full lane waves plus a remainder.
func fuzzBatchShape(order, items, width uint8) (n, k int) {
	return 2 + int(order)%7, circuit.LaneWidth*(1+int(items)%2) + int(width)%circuit.LaneWidth
}
