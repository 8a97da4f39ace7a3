package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"analogacc/internal/chip"
	"analogacc/internal/isa"
	"analogacc/internal/la"
	"analogacc/internal/pde"
)

// stepTwin is one side of the solve-step differential: a simulated chip
// behind the frame recorder of TestSettleISATraffic.
type stepTwin struct {
	acc *Accelerator
	dev *chip.Chip
	rec *trafficRecorder
}

func newStepTwin(t *testing.T, spec chip.Spec) stepTwin {
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
	return stepTwin{acc, dev, rec}
}

// stepCase solves a set of right-hand sides on one chip and returns every
// answer and its Stats in order.
type stepCase func(acc *Accelerator) ([]la.Vector, []Stats, error)

// expectSolveStepFidelity runs solve on a chip of spec (which sets
// SolveStep) and on its twin without the field, and requires the same
// error text, or bit-identical answers, equal Stats and the same ISA frame
// sequence. The step itself must differ, or the case shows nothing.
func expectSolveStepFidelity(t *testing.T, name string, spec chip.Spec, solve stepCase) {
	t.Helper()
	if !spec.SolveStep {
		t.Fatalf("%s: spec does not set SolveStep", name)
	}
	fine := spec
	fine.SolveStep = false
	coarseTwin, fineTwin := newStepTwin(t, spec), newStepTwin(t, fine)
	us, stats, err := solve(coarseTwin.acc)
	refU, refStats, refErr := solve(fineTwin.acc)
	if err != nil || refErr != nil {
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("%s: solve step error %v, transient step error %v", name, err, refErr)
		}
		return
	}
	for r := range refU {
		for i := range refU[r] {
			if math.Float64bits(us[r][i]) != math.Float64bits(refU[r][i]) {
				t.Errorf("%s: rhs %d u[%d] %v at the solve step, %v at the transient step", name, r, i, us[r][i], refU[r][i])
				return
			}
		}
		if stats[r] != refStats[r] {
			t.Errorf("%s: rhs %d stats:\nsolve step     %+v\ntransient step %+v", name, r, stats[r], refStats[r])
			return
		}
	}
	if coarseTwin.rec.frames != fineTwin.rec.frames || coarseTwin.rec.h.Sum64() != fineTwin.rec.h.Sum64() {
		t.Errorf("%s: %d frames hashing to %#x at the solve step, %d hashing to %#x at the transient step", name,
			coarseTwin.rec.frames, coarseTwin.rec.h.Sum64(), fineTwin.rec.frames, fineTwin.rec.h.Sum64())
	}
	if r := coarseTwin.dev.Sim().Dt() / fineTwin.dev.Sim().Dt(); math.Abs(r-10) > 1e-9 {
		t.Errorf("%s: solve step is %v× the transient step, want 10×", name, r)
	}
}

// poolOperator is a banded SPD n = 16 operator like the ones a class-16
// pool chip serves, with rhsCount right-hand sides, both drawn from seed.
func poolOperator(seed int64, rhsCount int) (*la.CSR, []la.Vector) {
	const n = 16
	rng := rand.New(rand.NewSource(seed))
	var entries []la.COOEntry
	for i := 0; i < n; i++ {
		entries = append(entries, la.COOEntry{Row: i, Col: i, Val: 4 + rng.Float64()})
		for d := 1; d <= 2 && i+d < n; d++ {
			v := -(0.4 + 0.5*rng.Float64()) / float64(d)
			entries = append(entries,
				la.COOEntry{Row: i, Col: i + d, Val: v}, la.COOEntry{Row: i + d, Col: i, Val: v})
		}
	}
	rhs := make([]la.Vector, rhsCount)
	for r := range rhs {
		rhs[r] = make(la.Vector, n)
		for i := range rhs[r] {
			rhs[r][i] = rng.Float64()*2 - 1
		}
	}
	return la.MustCSR(n, entries), rhs
}

// TestSolveStepFidelity is the solve step's differential: on a seeded set
// of linear solves a chip that sets chip.Spec.SolveStep must answer
// exactly like its twin stepping at the transient step, so raising the
// step factor is safe only while every case here holds. The set: fig8's
// 2-D Poisson chips at L = 3–12 with 8- and 12-bit ADCs; a calibrated
// class-16 12-bit pool chip running six banded operators × 8 right-hand
// sides through SolveRefined at 1e-8, solo and as 16-lane refined
// batches; and the FuzzLaneBatchWidths corpus inputs, at their lane width.
func TestSolveStepFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every case twice at the transient step")
	}
	for _, bits := range []int{8, 12} {
		for l := 3; l <= 12; l++ {
			prob, err := pde.Poisson(2, l)
			if err != nil {
				t.Fatal(err)
			}
			spec := chip.ScaledSpec(l*l, bits, 20e3, 6)
			spec.FanoutsPerMB = 3
			opt := SolveOptions{SigmaHint: prob.Exact.NormInf() * 1.1, DisableBoost: true}
			expectSolveStepFidelity(t, fmt.Sprintf("fig8 %d-bit L=%d", bits, l), spec, func(acc *Accelerator) ([]la.Vector, []Stats, error) {
				u, st, err := acc.Solve(prob.A, prob.B, opt)
				return []la.Vector{u}, []Stats{st}, err
			})
		}
	}

	poolSpec := chip.ScaledSpec(16, 12, 20e3, 8)
	poolSpec.FanoutsPerMB = 2
	poolSpec.Seed = 16*1009 + 1
	const operators = 6
	refined := SolveOptions{Tolerance: 1e-8}
	expectSolveStepFidelity(t, "pool chip solo", poolSpec, func(acc *Accelerator) ([]la.Vector, []Stats, error) {
		if _, err := acc.Calibrate(); err != nil {
			return nil, nil, err
		}
		var us []la.Vector
		var stats []Stats
		for op := int64(1); op <= operators; op++ {
			a, rhs := poolOperator(op, 8)
			for _, b := range rhs {
				u, st, err := acc.SolveRefined(a, b, refined)
				if err != nil {
					return nil, nil, err
				}
				us, stats = append(us, u), append(stats, st)
			}
		}
		return us, stats, nil
	})
	expectSolveStepFidelity(t, "pool chip 16-lane batch", poolSpec, func(acc *Accelerator) ([]la.Vector, []Stats, error) {
		if _, err := acc.Calibrate(); err != nil {
			return nil, nil, err
		}
		var us []la.Vector
		var stats []Stats
		for op := int64(1); op <= operators; op++ {
			a, rhs := poolOperator(op, 16)
			sess, err := acc.BeginSession(a)
			if err != nil {
				return nil, nil, err
			}
			opt := refined
			opt.MaxLanes = MaxBatchLanes
			u, st, err := sess.SolveBatchRefined(context.Background(), rhs, opt)
			if err != nil {
				return nil, nil, err
			}
			if st[0].Lanes != MaxBatchLanes {
				return nil, nil, errors.New("batch did not ride one 16-lane wave")
			}
			us, stats = append(us, u...), append(stats, st...)
		}
		return us, stats, nil
	})

	// testdata/fuzz/FuzzLaneBatchWidths, replayed as that target builds
	// its chips and batches (at the input's width only).
	corpus := []struct {
		name                string
		seed                int64
		order, items, width uint8
		refinedBatch        bool
	}{
		{"cold-overflow-width16", 2, 6, 7, 14, false},
		{"refined-overflow-width7", 4, 4, 6, 5, true},
		{"refined-warm-width2", 9, 2, 3, 0, true},
		{"warm-boost-fallback-and-overflow-width2", 13, 2, 5, 0, false},
		{"warm-boost-fallback-width16", 7, 4, 7, 14, false},
	}
	for _, c := range corpus {
		n := 2 + int(c.order)%7
		k := 2 + int(c.items)%8
		w := 2 + int(c.width)%15
		a, rhs := fuzzBandSystem(c.seed, n, k+1)
		warm, rhs := rhs[k], rhs[:k]
		spec := chip.ScaledSpec(n, 12, 20e3, a.MaxRowNNZ()+1)
		spec.FanoutsPerMB = 2
		spec.Seed = c.seed
		expectSolveStepFidelity(t, "corpus "+c.name, spec, func(acc *Accelerator) ([]la.Vector, []Stats, error) {
			sess, err := acc.BeginSession(a)
			if err != nil {
				return nil, nil, err
			}
			if c.seed%2 != 0 {
				if _, _, err := sess.SolveFor(warm, SolveOptions{}); err != nil {
					return nil, nil, err
				}
			}
			opt := SolveOptions{MaxLanes: w}
			if c.refinedBatch {
				opt.Tolerance = 1e-8
				return sess.SolveBatchRefined(context.Background(), rhs, opt)
			}
			return sess.SolveBatch(context.Background(), rhs, opt)
		})
	}
}

// TestODERefusesSolveStep: ODE mode reads the transient, which a chip
// stepping at the solve step does not simulate faithfully, so both ODE
// entry points refuse a ScaledSpec chip with ErrSolveStep before touching
// it.
func TestODERefusesSolveStep(t *testing.T) {
	acc := simAcc(t, chip.ScaledSpec(2, 12, 20e3, 4))
	m := la.MustCSR(2, []la.COOEntry{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: -1}})
	opt := ODEOptions{Duration: 1, SamplePoints: 4}
	if _, err := acc.SolveODE(m, la.NewVector(2), la.VectorOf(0.5, 0), opt); !errors.Is(err, ErrSolveStep) {
		t.Errorf("SolveODE on a ScaledSpec chip: err %v, want ErrSolveStep", err)
	}
	terms := []LUTTerm{{Input: 0, Fn: math.Sin, Coef: la.VectorOf(0, -1)}}
	if _, err := acc.SolveODENonlinear(m, terms, la.NewVector(2), la.VectorOf(0.5, 0), NonlinearODEOptions{ODEOptions: opt}); !errors.Is(err, ErrSolveStep) {
		t.Errorf("SolveODENonlinear on a ScaledSpec chip: err %v, want ErrSolveStep", err)
	}
}
