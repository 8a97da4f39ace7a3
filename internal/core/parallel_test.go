package core

import (
	"testing"

	"analogacc/internal/chip"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

func TestFarmValidation(t *testing.T) {
	if _, err := NewFarm(); err == nil {
		t.Fatal("empty farm accepted")
	}
	if _, err := NewFarm(nil); err == nil {
		t.Fatal("nil accelerator accepted")
	}
}

func TestParallelDecompositionMatchesSerial(t *testing.T) {
	g, _ := la.NewGrid(2, 6)
	a := la.PoissonMatrix(g)
	exact := la.NewVector(g.N())
	for i := range exact {
		xi, yi, _ := g.Coords(i)
		x, y := float64(xi+1)*g.H(), float64(yi+1)*g.H()
		exact[i] = x * (1 - x) * y * (1 - y) * (1 + x + y)
	}
	b := la.NewVector(g.N())
	a.Apply(b, exact)

	spec := chip.ScaledSpec(6, 12, 20e3, 4)
	mkAcc := func() *Accelerator {
		acc, _, err := NewSimulated(spec)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	farm, err := NewFarm(mkAcc(), mkAcc(), mkAcc())
	if err != nil {
		t.Fatal(err)
	}
	if farm.Size() != 3 {
		t.Fatalf("farm size %d", farm.Size())
	}
	opt := DecomposeOptions{
		BlockSize:      6,
		OuterTolerance: 1e-4,
		Inner:          SolveOptions{Tolerance: 1e-6},
	}
	x, stats, err := farm.SolveDecomposedParallel(a, b, opt)
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, stats)
	}
	if stats.Blocks != 6 || stats.Chips != 3 {
		t.Fatalf("blocks=%d chips=%d", stats.Blocks, stats.Chips)
	}
	if !x.Equal(exact, exact.NormInf()*0.01+1e-3) {
		t.Fatalf("parallel error %v", la.Sub2(x, exact).NormInf())
	}
	if stats.AnalogTime <= 0 || stats.AnalogCritical <= 0 {
		t.Fatalf("time accounting: %+v", stats)
	}
	// Critical path must be shorter than total (3 chips share the work).
	if stats.AnalogCritical >= stats.AnalogTime {
		t.Fatalf("no parallel speedup: critical %v vs total %v", stats.AnalogCritical, stats.AnalogTime)
	}
	if farm.AnalogTime() <= 0 {
		t.Fatal("farm analog time not accounted")
	}

	// Same answer as the serial block-Jacobi decomposition.
	accSerial := mkAcc()
	xs, _, err := accSerial.SolveDecomposed(a, b, DecomposeOptions{
		BlockSize: 6, Jacobi: true, OuterTolerance: 1e-4,
		Inner: SolveOptions{Tolerance: 1e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(xs, 1e-4) {
		t.Fatal("parallel and serial Jacobi decomposition disagree")
	}
}

func TestParallelDecompositionValidation(t *testing.T) {
	acc, _, err := NewSimulated(chip.ScaledSpec(4, 12, 20e3, 4))
	if err != nil {
		t.Fatal(err)
	}
	farm, _ := NewFarm(acc)
	a := la.Tridiag(8, -1, 4, -1)
	if _, _, err := farm.SolveDecomposedParallel(a, la.NewVector(5), DecomposeOptions{}); err == nil {
		t.Fatal("mismatched b accepted")
	}
	// Zero RHS: immediate zero solution.
	x, stats, err := farm.SolveDecomposedParallel(a, la.NewVector(8), DecomposeOptions{BlockSize: 4})
	if err != nil || x.Norm2() != 0 || stats.Sweeps != 0 {
		t.Fatalf("zero rhs: %v %+v %v", x, stats, err)
	}
}

func TestParallelSingleChipDegeneratesToSerialJacobi(t *testing.T) {
	a := la.Tridiag(8, -1, 4, -1)
	b := la.Constant(8, 1)
	spec := chip.ScaledSpec(4, 12, 20e3, 4)
	acc1, _, err := NewSimulated(spec)
	if err != nil {
		t.Fatal(err)
	}
	farm, _ := NewFarm(acc1)
	x, stats, err := farm.SolveDecomposedParallel(a, b, DecomposeOptions{
		BlockSize: 4, OuterTolerance: 1e-5, Inner: SolveOptions{Tolerance: 1e-7},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if !x.Equal(want, want.NormInf()*0.001) {
		t.Fatalf("x=%v want %v", x, want)
	}
	// One chip: critical path equals total.
	if stats.AnalogCritical != stats.AnalogTime {
		t.Fatalf("single-chip accounting: %+v", stats)
	}
}
