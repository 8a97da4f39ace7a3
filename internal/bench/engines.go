package bench

import (
	"fmt"
	"time"

	"analogacc/internal/core"
	"analogacc/internal/la"
	"analogacc/internal/pde"
)

func init() {
	register(Experiment{
		ID:    "engines",
		Title: "Simulation engine comparison: reference interpreter vs fused kernel",
		Run:   runEngines,
	})
}

// runEngines solves the same 2-D Poisson problems on both simulation
// engines and reports per-engine solve wall time plus a bit-identity
// check: the fused kernel must reproduce the reference interpreter's
// solution exactly, element for element, or the speedup column is
// meaningless. Wall times are host-dependent; the identity
// column is deterministic. The chips carry the serving pool's 12-bit
// ADCs: at 8 bits the bias quantum of L ≥ 16 grids falls below the
// residual floor and the core refuses the solve (core.ErrUnresolvable).
func runEngines(cfg Config) (*Table, error) {
	const adcBits = 12
	ls := []int{8, 16, 24}
	if cfg.Quick {
		ls = []int{4, 6}
	}
	engines := []string{"interpreter", "fused"}
	t := &Table{
		ID:    "engines",
		Title: "Solve wall time (s) per simulation engine, 2-D Poisson, identical solutions required",
		Columns: []string{
			"N", "engine", "solve wall (s)", "analog settle (s)", "u == interpreter",
		},
	}
	for _, l := range ls {
		prob, err := pde.Poisson(2, l)
		if err != nil {
			return nil, err
		}
		cfg.logf("engines: L=%d (N=%d)", l, prob.Grid.N())
		var ref la.Vector
		for _, eng := range engines {
			spec := analogSpecFor(prob.Grid.Dims, prob.Grid.N(), adcBits, 20e3)
			spec.Engine = eng
			acc, _, err := core.NewSimulated(spec)
			if err != nil {
				return nil, fmt.Errorf("bench: engines %s L=%d: %w", eng, l, err)
			}
			hint := prob.Exact.NormInf() * 1.1
			start := time.Now()
			u, stats, err := acc.Solve(prob.A, prob.B, core.SolveOptions{SigmaHint: hint, DisableBoost: true})
			if err != nil {
				return nil, fmt.Errorf("bench: engines %s L=%d: %w", eng, l, err)
			}
			wall := time.Since(start).Seconds()
			match := "—"
			if eng == "interpreter" {
				ref = u
			} else {
				match = "yes"
				for i := range u {
					if u[i] != ref[i] {
						match = fmt.Sprintf("NO (u[%d])", i)
						break
					}
				}
			}
			t.AddRow(prob.Grid.N(), eng, fmt.Sprintf("%.3e", wall), fmt.Sprintf("%.3e", stats.SettleTime), match)
			t.markTimed(2)
		}
	}
	t.Notes = append(t.Notes,
		"both engines integrate the identical RK4 recurrence in the identical summation order, so the solutions must be bit-identical — any NO row is a bug, not noise",
		"wall times are this host's; the fused kernel's advantage is measured precisely by scripts/bench.sh 5 (BENCH_5.json)",
	)
	return t, nil
}
