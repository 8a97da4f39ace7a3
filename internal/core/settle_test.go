package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"analogacc/internal/chip"
	"analogacc/internal/isa"
	"analogacc/internal/la"
	"analogacc/internal/pde"
)

// statsBesideLanes clears the one Stats field that legitimately differs
// across lane widths (the wave width an item rode).
func statsBesideLanes(s Stats) Stats {
	s.Lanes = 0
	return s
}

// TestSolveBatchStatsMatchScalar pins per-item cost accounting across lane
// widths: a scalar solve is a one-job wave through the same settle loop,
// so every Stats field an item reports — analog time to the last bit,
// runs, rescales, overflows, refinements, scaling, residual and settle
// time — must equal the width-1 (sequential scalar) batch's, for plain
// batches with the dynamic-range boost on and for refined batches.
func TestSolveBatchStatsMatchScalar(t *testing.T) {
	a, rhs := lane6System()
	type solveFn func(*Session, SolveOptions) ([]la.Vector, []Stats, error)
	modes := []struct {
		name  string
		opt   SolveOptions
		solve solveFn
	}{
		{"SolveBatch", SolveOptions{}, func(s *Session, o SolveOptions) ([]la.Vector, []Stats, error) {
			return s.SolveBatch(context.Background(), rhs, o)
		}},
		{"SolveBatchRefined", SolveOptions{Tolerance: 1e-8}, func(s *Session, o SolveOptions) ([]la.Vector, []Stats, error) {
			return s.SolveBatchRefined(context.Background(), rhs, o)
		}},
	}
	for _, m := range modes {
		run := func(width int) []Stats {
			o := m.opt
			o.MaxLanes = width
			acc := simAcc(t, lane6Spec())
			sess, err := acc.BeginSession(a)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := m.solve(sess, o)
			if err != nil {
				t.Fatalf("%s width %d: %v", m.name, width, err)
			}
			return stats
		}
		ref := run(1)
		for _, width := range []int{2, 7, 16} {
			got := run(width)
			for k := range rhs {
				if statsBesideLanes(got[k]) != statsBesideLanes(ref[k]) {
					t.Errorf("%s width %d rhs %d:\n got %+v\nwant %+v", m.name, width, k, got[k], ref[k])
				}
			}
		}
	}
}

// trafficRecorder is a transport that hashes the shape of every request
// frame — opcode and payload length, in order — before passing it to the
// loopback. Float payload bytes are left out: platforms that fuse
// multiply-adds may round the programmed values differently.
type trafficRecorder struct {
	lb     *isa.Loopback
	h      hash.Hash64
	frames int
}

func (r *trafficRecorder) Transact(frame []byte) ([]byte, error) {
	op, payload, err := isa.DecodeFrame(frame)
	if err == nil {
		var rec [3]byte
		rec[0] = byte(op)
		binary.BigEndian.PutUint16(rec[1:], uint16(len(payload)))
		r.h.Write(rec[:])
		r.frames++
	}
	return r.lb.Transact(frame)
}

// boostSystem is TestDynamicRangeBoost's system: a dense 10×10 matrix
// whose constant right-hand side settles deep inside the dynamic range.
func boostSystem() (*la.CSR, la.Vector) {
	const n = 10
	entries := make([]la.COOEntry, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.09
			if i == j {
				v = 0.14
			}
			entries = append(entries, la.COOEntry{Row: i, Col: j, Val: v})
		}
	}
	return la.MustCSR(n, entries), la.Constant(n, 0.1)
}

func recordedAcc(t *testing.T, spec chip.Spec) (*Accelerator, *trafficRecorder) {
	t.Helper()
	dev, err := chip.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trafficRecorder{lb: isa.NewLoopback(dev), h: fnv.New64a()}
	acc, err := New(rec, spec)
	if err != nil {
		t.Fatal(err)
	}
	return acc, rec
}

// TestSettleISATraffic pins the ISA traffic of successful solves: the
// order, opcodes and payload lengths of every request frame, from the
// first configuration write to the last readout. A scalar solve that
// boosts, one that overflows, a refined solve at 8-bit ADCs (alone, and
// as a one-item batch), and a refined lane batch at widths 16 and 2 each
// hash to a recorded constant. A change to the settle schedule moves these on purpose and
// must say why.
func TestSettleISATraffic(t *testing.T) {
	boostA, boostB := boostSystem()
	boostSpec := chip.ScaledSpec(10, 12, 20e3, 11)
	boostSpec.FanoutsPerMB = 5
	// TestOverflowDrivesRescale's system: u ≈ 8 overflows the first runs.
	overflowA := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 0, Col: 1, Val: -0.45},
		{Row: 1, Col: 0, Val: -0.45}, {Row: 1, Col: 1, Val: 0.5},
	})
	overflowB := la.VectorOf(0.4, 0.4)
	overflowSpec := chip.PrototypeSpec()
	overflowSpec.ADCBits = 12
	overflowSpec.DACBits = 12
	laneA, laneRHS := lane6System()
	laneBatch := func(width int) func(*Accelerator) error {
		return func(acc *Accelerator) error {
			sess, err := acc.BeginSession(laneA)
			if err != nil {
				return err
			}
			_, _, err = sess.SolveBatchRefined(context.Background(), laneRHS,
				SolveOptions{Tolerance: 1e-8, MaxLanes: width})
			return err
		}
	}
	cases := []struct {
		name   string
		spec   chip.Spec
		solve  func(*Accelerator) error
		frames int
		hash   uint64
	}{
		{"boost", boostSpec, func(acc *Accelerator) error {
			_, st, err := acc.Solve(boostA, boostB, SolveOptions{})
			if err == nil && st.Rescales == st.Overflows {
				t.Errorf("boost solve never boosted: %+v", st)
			}
			return err
		}, 906, 0xba7ccc16db68b06d},
		{"overflow", overflowSpec, func(acc *Accelerator) error {
			_, st, err := acc.Solve(overflowA, overflowB, SolveOptions{})
			if err == nil && st.Overflows == 0 {
				t.Errorf("overflow solve never overflowed: %+v", st)
			}
			return err
		}, 159, 0x708226c339d2f75f},
		{"refined-eq2-8bit", chip.PrototypeSpec(), func(acc *Accelerator) error {
			a, b := eq2System()
			_, _, err := acc.SolveRefined(a, b, SolveOptions{Tolerance: 1e-7})
			return err
		}, 128, 0x32763497d8dc341a},
		// A one-item batch is a solo solve: the same frames as above.
		{"refined-eq2-8bit-one-item-batch", chip.PrototypeSpec(), func(acc *Accelerator) error {
			a, b := eq2System()
			sess, err := acc.BeginSession(a)
			if err != nil {
				return err
			}
			_, _, err = sess.SolveBatchRefined(context.Background(), []la.Vector{b}, SolveOptions{Tolerance: 1e-7})
			return err
		}, 128, 0x32763497d8dc341a},
		{"lane6-refined-width16", lane6Spec(), laneBatch(16), 1483, 0x7b61940491f26972},
		{"lane6-refined-width2", lane6Spec(), laneBatch(2), 1759, 0xe533d28620b57c85},
	}
	for _, c := range cases {
		acc, rec := recordedAcc(t, c.spec)
		if err := c.solve(acc); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := rec.h.Sum64(); rec.frames != c.frames || got != c.hash {
			t.Errorf("%s: %d frames hashing to %#x, want %d frames hashing to %#x",
				c.name, rec.frames, got, c.frames, c.hash)
		}
	}
}

// TestSettleTimeTracksFineGrid checks that Stats.SettleTime measures the
// settle, not the poll grid. For fig8's 2-D Poisson chips at 8- and 12-bit
// ADCs it replays each solve's one attempt on an identically seeded fresh
// chip, polling through the ISA every 1/16 of the first chunk. The
// reference settle t_ref is the earliest fine poll from which on every
// poll reads the residual at its floor (m ≤ 1) with codes within the
// stability slack of the final poll's. SettleTime must sit within
// [0.8, 1.5]·t_ref, and the armed AnalogTime within 1.75·t_ref.
func TestSettleTimeTracksFineGrid(t *testing.T) {
	for _, bits := range []int{8, 12} {
		for _, l := range []int{3, 4, 6, 8} {
			prob, err := pde.Poisson(2, l)
			if err != nil {
				t.Fatal(err)
			}
			spec := chip.ScaledSpec(l*l, bits, 20e3, 6)
			spec.FanoutsPerMB = 3
			opt := SolveOptions{SigmaHint: prob.Exact.NormInf() * 1.1, DisableBoost: true}
			_, st, err := simAcc(t, spec).Solve(prob.A, prob.B, opt)
			if err != nil {
				t.Fatalf("%d-bit L=%d: %v", bits, l, err)
			}
			if st.Rescales != 0 {
				t.Fatalf("%d-bit L=%d: %d rescales, want a single attempt", bits, l, st.Rescales)
			}
			ref := fineSettle(t, spec, prob.A, prob.B, st.Scaling.Sigma, 2*st.AnalogTime+1e-3)
			t.Logf("%d-bit L=%d: t_ref %.4g s, SettleTime %.2f×, AnalogTime %.2f×",
				bits, l, ref, st.SettleTime/ref, st.AnalogTime/ref)
			if r := st.SettleTime / ref; r < 0.8 || r > 1.5 {
				t.Errorf("%d-bit L=%d: SettleTime %.4g s is %.2f× the fine-grid settle %.4g s, want 0.8–1.5×",
					bits, l, st.SettleTime, r, ref)
			}
			if r := st.AnalogTime / ref; r > 1.75 {
				t.Errorf("%d-bit L=%d: AnalogTime %.4g s is %.2f× the fine-grid settle %.4g s, want ≤ 1.75×",
					bits, l, st.AnalogTime, r, ref)
			}
		}
	}
}

// fineSettle programs a on a fresh chip of spec, biases it with b at
// solution scale sigma, and polls every 1/16 of the first chunk for span
// analog seconds. It returns the analog time of the earliest poll from
// which on every poll reads m ≤ 1 with codes within codeTol of the last
// poll's.
func fineSettle(t *testing.T, spec chip.Spec, a *la.CSR, b la.Vector, sigma, span float64) float64 {
	t.Helper()
	acc := simAcc(t, spec)
	sess, err := acc.BeginSession(a)
	if err != nil {
		t.Fatal(err)
	}
	tols, floor := sess.settleTolerances()
	job := &settleJob{rhs: b, sigma: sigma}
	if err := sess.programWave([]*settleJob{job}, floor, false); err != nil || job.err != nil {
		t.Fatalf("program: %v %v", err, job.err)
	}
	dt := acc.firstChunk() / 16
	var times, margins []float64
	var codes [][]int
	for elapsed := 0.0; elapsed < span; {
		if err := acc.runFor(dt); err != nil {
			t.Fatal(err)
		}
		elapsed += acc.armedDuration(dt)
		c := make([]int, sess.n)
		if err := acc.readCodesInto(scalarLane, c); err != nil {
			t.Fatal(err)
		}
		times = append(times, elapsed)
		margins = append(margins, sess.margin(c, job.bq, tols))
		codes = append(codes, c)
	}
	final, tol := codes[len(codes)-1], acc.codeTol()
	ref := len(times)
	for i := len(times) - 1; i >= 0; i-- {
		ok := margins[i] <= 1
		for j, c := range codes[i] {
			if d := c - final[j]; d > tol || d < -tol {
				ok = false
			}
		}
		if !ok {
			break
		}
		ref = i
	}
	if ref == len(times) {
		t.Fatalf("never settled within %.4g s of fine polling", span)
	}
	return times[ref]
}
