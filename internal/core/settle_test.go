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
// multiply-adds may round the programmed values differently. It forwards
// the loopback's engine side-band, so lane batches select the fused
// engine exactly as they do on the bare loopback.
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

func (r *trafficRecorder) SelectEngine(name string, workers int) error {
	return r.lb.Dev().(engineSelector).SelectEngine(name, workers)
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
// boosts, one that overflows, a refined solve at 8-bit ADCs, and a
// refined lane batch at widths 16 and 2 each hash to a recorded
// constant. A change to the settle schedule moves these on purpose and
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
		}, 127, 0x26f23daebd6f912f},
		{"refined-eq2-8bit", chip.PrototypeSpec(), func(acc *Accelerator) error {
			a, b := eq2System()
			_, _, err := acc.SolveRefined(a, b, SolveOptions{Tolerance: 1e-7})
			return err
		}, 128, 0x32763497d8dc341a},
		{"lane6-refined-width16", lane6Spec(), laneBatch(16), 1134, 0x0f641d5b2d612260},
		{"lane6-refined-width2", lane6Spec(), laneBatch(2), 1336, 0x25990068ef278357},
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
