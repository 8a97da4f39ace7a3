package core

import (
	"context"
	"fmt"

	"analogacc/internal/la"
)

// Parallel domain decomposition: Section IV-B notes "the subproblems can
// be solved separately on multiple accelerators, or multiple runs of the
// same accelerator". SolveDecomposed is the multiple-runs form; this file
// is the multiple-accelerators form — a farm of chips solving disjoint
// blocks concurrently under a block-Jacobi outer iteration (Jacobi, not
// Gauss-Seidel, because parallel blocks cannot see each other's in-sweep
// updates).

// Farm is a pool of accelerators used for concurrent block solves.
type Farm struct {
	accs []*Accelerator
}

// NewFarm wraps a set of drivers (each bound to its own chip).
func NewFarm(accs ...*Accelerator) (*Farm, error) {
	if len(accs) == 0 {
		return nil, fmt.Errorf("core: a farm needs at least one accelerator")
	}
	for i, a := range accs {
		if a == nil {
			return nil, fmt.Errorf("core: farm accelerator %d is nil", i)
		}
	}
	return &Farm{accs: accs}, nil
}

// Size returns the number of chips in the farm.
func (f *Farm) Size() int { return len(f.accs) }

// AnalogTime returns the summed analog seconds across the farm. The
// *elapsed* analog time of a parallel sweep is the maximum over chips,
// which SolveDecomposedParallel reports separately.
func (f *Farm) AnalogTime() float64 {
	var t float64
	for _, a := range f.accs {
		t += a.AnalogTime()
	}
	return t
}

// SolveDecomposedParallel solves A·x = b by block-Jacobi decomposition
// with blocks distributed over the farm's chips and solved concurrently
// within each sweep. It is a thin front over ParallelDecompose with the
// farm's chips as the block workers: each block's matrix is pinned to its
// chip once, so matrix reprogramming only happens when a chip switches
// between blocks with different matrices.
func (f *Farm) SolveDecomposedParallel(a *la.CSR, b la.Vector, opt DecomposeOptions) (la.Vector, DecomposeStats, error) {
	pd := &ParallelDecompose{Provider: Accelerators(f.accs), Workers: len(f.accs), Opt: opt}
	return pd.Solve(context.Background(), a, b)
}
