package bench

import (
	"fmt"

	"analogacc/internal/core"
	"analogacc/internal/la"
	"analogacc/internal/pde"
	"analogacc/internal/solvers"
)

func init() {
	register(Experiment{
		ID:    "noise",
		Title: "Thermal-noise ablation: single-run accuracy and refinement robustness vs noise density",
		Run:   runNoise,
	})
	register(Experiment{
		ID:    "parallel",
		Title: "Multi-accelerator decomposition: chips vs critical-path analog time (Section IV-B)",
		Run:   runParallel,
	})
}

// runNoise sweeps integrator-referred noise density: "the precision of an
// analog variable is only limited by its signal to noise ratio"
// (Section VI-C). Single-run error should track the noise floor, while
// Algorithm 2 refinement — which averages through repeated solves — keeps
// converging until the per-pass correction drowns in noise.
func runNoise(cfg Config) (*Table, error) {
	prob, err := pde.Poisson(2, 3)
	if err != nil {
		return nil, err
	}
	want, err := solvers.SolveCSRDirect(prob.A, prob.B)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "noise",
		Title:   fmt.Sprintf("Noise density vs accuracy, 2-D Poisson N=%d, 12-bit chip", prob.Grid.N()),
		Columns: []string{"noise sigma", "single-run error", "refined error", "refinements"},
	}
	sigmas := []float64{0, 1e-4, 1e-3}
	if cfg.Quick {
		sigmas = []float64{0, 1e-3}
	}
	rows := make([][]interface{}, len(sigmas))
	perr := runPoints(cfg, len(sigmas), func(i int) error {
		sigma := sigmas[i]
		cfg.logf("noise: sigma=%v", sigma)
		spec := analogSpecFor(2, prob.Grid.N(), 12, 20e3)
		spec.NoiseSigma = sigma
		spec.Seed = 77
		acc, _, err := core.NewSimulated(spec)
		if err != nil {
			return err
		}
		single, _, err := acc.Solve(prob.A, prob.B, core.SolveOptions{})
		if err != nil {
			return fmt.Errorf("bench: noise sigma=%v single: %w", sigma, err)
		}
		refined, stats, err := acc.SolveRefined(prob.A, prob.B, core.SolveOptions{
			Tolerance:      5e-5,
			MaxRefinements: 12,
		})
		refinedErr := "-"
		passes := "-"
		if err == nil {
			refinedErr = fmt.Sprintf("%.2e", la.Sub2(refined, want).NormInf()/want.NormInf())
			passes = fmt.Sprintf("%d", stats.Refinements)
		} else {
			refinedErr = "did not reach 5e-5"
		}
		rows[i] = []interface{}{
			fmt.Sprintf("%.0e", sigma),
			fmt.Sprintf("%.2e", la.Sub2(single, want).NormInf()/want.NormInf()),
			refinedErr, passes,
		}
		return nil
	})
	if perr != nil {
		return nil, perr
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expectation: single-run error tracks the noise floor; refinement keeps helping until per-pass corrections drown in noise (precision limited by signal-to-noise ratio, Section VI-C)",
	)
	return t, nil
}

// runParallel distributes strip subproblems over 1, 2 and 4 simulated
// chips: total analog work is fixed by the algorithm, but the critical
// path (elapsed analog time) drops with farm size.
func runParallel(cfg Config) (*Table, error) {
	l := 8
	if cfg.Quick {
		l = 6
	}
	prob, err := pde.Poisson(2, l)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "parallel",
		Title:   fmt.Sprintf("Chips vs critical-path analog time, 2-D Poisson N=%d, strip blocks", prob.Grid.N()),
		Columns: []string{"chips", "sweeps", "total analog (s)", "critical path (s)", "speedup", "rel residual"},
	}
	var oneChipCritical float64
	for _, chips := range []int{1, 2, 4} {
		cfg.logf("parallel: %d chips", chips)
		accs := make([]*core.Accelerator, chips)
		for i := range accs {
			spec := analogSpecFor(2, l, 12, 20e3)
			spec.Seed = int64(100 + i) // distinct dies
			acc, _, err := core.NewSimulated(spec)
			if err != nil {
				return nil, err
			}
			accs[i] = acc
		}
		farm, err := core.NewFarm(accs...)
		if err != nil {
			return nil, err
		}
		x, stats, err := farm.SolveDecomposedParallel(prob.A, prob.B, core.DecomposeOptions{
			BlockSize:      l,
			OuterTolerance: 1e-4,
			// One lane per wave: the strips share one submatrix, so with
			// lanes a chip settles all of its strips in one wave and the
			// critical path would not shrink with more chips.
			Inner: core.SolveOptions{Tolerance: 1e-6, MaxLanes: 1},
		})
		if err != nil {
			return nil, fmt.Errorf("bench: parallel %d chips: %w", chips, err)
		}
		if chips == 1 {
			oneChipCritical = stats.AnalogCritical
		}
		t.AddRow(chips, stats.Sweeps,
			fmt.Sprintf("%.3e", stats.AnalogTime),
			fmt.Sprintf("%.3e", stats.AnalogCritical),
			fmt.Sprintf("%.2fx", oneChipCritical/stats.AnalogCritical),
			fmt.Sprintf("%.1e", la.RelativeResidual(prob.A, x, prob.B)))
	}
	t.Notes = append(t.Notes,
		"paper: \"the subproblems can be solved separately on multiple accelerators, or multiple runs of the same accelerator\"; block-Jacobi outer iteration, so sweep counts are identical across farm sizes",
	)
	return t, nil
}
