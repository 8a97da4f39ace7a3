package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"analogacc/internal/chip"
	"analogacc/internal/core"
	"analogacc/internal/la"
	"analogacc/internal/model"
	"analogacc/internal/pde"
	"analogacc/internal/solvers"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Time to converge to equivalent precision: analog accelerator vs digital CG",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Convergence time for high-bandwidth analog designs vs digital CG (600 mm² cap)",
		Run:   runFig9,
	})
}

// fig8Ls returns the grid-side sweep.
func fig8Ls(quick bool) []int {
	if quick {
		return []int{3, 4, 6}
	}
	return []int{4, 8, 12, 16, 20, 24, 28, 32}
}

// cgTimedRuns is how many times digitalCG times the solve; it reports
// the median, so one scheduler hiccup does not land in the paper table.
const cgTimedRuns = 5

// digitalCG runs the paper's digital baseline: single-threaded matrix-free
// stencil CG stopped "when no element in the output vector u changes by
// more than 1/256 of full scale". Returns the median wall time of
// cgTimedRuns runs, the iteration count and the MAC count.
func digitalCG(prob *pde.Problem) (wall float64, iters int, macs int64, err error) {
	st := la.NewPoissonStencil(prob.Grid)
	full := prob.Exact.NormInf()
	if full == 0 {
		full = prob.B.NormInf()
	}
	walls := make([]float64, cgTimedRuns)
	for i := range walls {
		start := time.Now()
		res, err := solvers.CG(st, prob.B, solvers.Options{
			Criterion: solvers.DeltaInf,
			Tol:       full / 256,
			MaxIter:   100 * prob.Grid.N(),
		})
		if err != nil {
			return 0, 0, 0, err
		}
		walls[i] = time.Since(start).Seconds()
		iters, macs = res.Iterations, res.MACs
	}
	sort.Float64s(walls)
	return walls[cgTimedRuns/2], iters, macs, nil
}

// analogSpecFor sizes a chip for a Poisson problem of the given dimension.
func analogSpecFor(dims, n int, adcBits int, bandwidth float64) chip.Spec {
	spec := chip.ScaledSpec(n, adcBits, bandwidth, 2*dims+2)
	spec.FanoutsPerMB = dims + 1 // tree for 2d+1 consumers at 4-way fanouts
	return spec
}

// analogSolveTime simulates a full analog solve of the problem on a chip
// of the given bandwidth and returns the analog seconds consumed.
func analogSolveTime(prob *pde.Problem, adcBits int, bandwidth float64) (float64, error) {
	spec := analogSpecFor(prob.Grid.Dims, prob.Grid.N(), adcBits, bandwidth)
	acc, _, err := core.NewSimulated(spec)
	if err != nil {
		return 0, err
	}
	hint := prob.Exact.NormInf() * 1.1
	_, stats, err := acc.Solve(prob.A, prob.B, core.SolveOptions{SigmaHint: hint, DisableBoost: true})
	if err != nil {
		return 0, err
	}
	// SettleTime is the bracketing-corrected estimate of the actual
	// analog settling; AnalogTime would add the polling overhead.
	return stats.SettleTime, nil
}

// unresolvable is the simulated-analog cell of a grid the core refuses
// to solve at the figure's ADC resolution.
const unresolvable = "unresolvable"

// analogCell simulates the solve at the prototype bandwidth and formats
// its analog seconds through cell, or returns unresolvable when the core
// refused the solve with ErrUnresolvable. Any other error aborts the
// experiment.
func analogCell(prob *pde.Problem, adcBits int, cell func(simTime float64) string) (string, error) {
	simTime, err := analogSolveTime(prob, adcBits, 20e3)
	if errors.Is(err, core.ErrUnresolvable) {
		return unresolvable, nil
	}
	if err != nil {
		return "", err
	}
	return cell(simTime), nil
}

// noteUnresolvable explains unresolvable cells, when the table has any.
func noteUnresolvable(t *Table, adcBits int) {
	for _, row := range t.Rows {
		for _, c := range row {
			if c == unresolvable {
				t.Notes = append(t.Notes, fmt.Sprintf("unresolvable: the grid's scaled bias sits below the residual floor of %d-bit ADC readings, "+
					"so the core refuses an answer it cannot verify (core.ErrUnresolvable) before the chip runs", adcBits))
				return
			}
		}
	}
}

// runFig8 reproduces Figure 8: convergence time vs total grid points for
// the simulated 20 kHz analog accelerator (plus the 80 kHz projection)
// against single-core digital CG at equivalent precision. Expected shape:
// analog time linear in N, digital ∝ N^1.5, with a crossover. The 8-bit
// columns are the paper's 1/256 equivalence; the 12-bit ones put the same
// chip at the model accelerator's ADC resolution, where every grid
// resolves. The parallel sweep simulates the chips; the host-timed CG
// baseline runs after it, one grid at a time, so no other fig8 point
// shares its CPU.
func runFig8(cfg Config) (*Table, error) {
	const adcBits = 8    // 1/256 equivalence, Section V-A
	const modelBits = 12 // the paper's model accelerator
	t := &Table{
		ID:    "fig8",
		Title: "Convergence time (s) vs total grid points N = L², 2-D Poisson",
		Columns: []string{
			"N", "digital CG wall (s)", "CG iters",
			"digital model Xeon (s)", "analog 20kHz sim (s)",
			"analog 20kHz model (s)", "analog 80kHz model (s)",
			"analog 20kHz sim 12-bit (s)", "analog 20kHz model 12-bit (s)",
		},
	}
	ls := fig8Ls(cfg.Quick)
	probs := make([]*pde.Problem, len(ls))
	sims := make([][2]string, len(ls))
	secs := func(simTime float64) string { return fmt.Sprintf("%.3e", simTime) }
	err := runPoints(cfg, len(ls), func(i int) error {
		l := ls[i]
		prob, err := pde.Poisson(2, l)
		if err != nil {
			return err
		}
		cfg.logf("fig8: L=%d (N=%d)", l, prob.Grid.N())
		for k, bits := range []int{adcBits, modelBits} {
			if sims[i][k], err = analogCell(prob, bits, secs); err != nil {
				return fmt.Errorf("bench: fig8 analog %d-bit L=%d: %w", bits, l, err)
			}
		}
		probs[i] = prob
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, prob := range probs {
		l := ls[i]
		cfg.logf("fig8: digital CG L=%d", l)
		wall, iters, _, err := digitalCG(prob)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			prob.Grid.N(),
			fmt.Sprintf("%.3e", wall),
			iters,
			fmt.Sprintf("%.3e", model.CPUTimeCG(prob.Grid.N(), iters)),
			sims[i][0],
			secs(model.Design{BandwidthHz: 20e3}.SolveTimePoisson(2, l, adcBits)),
			secs(model.Design{BandwidthHz: 80e3}.SolveTimePoisson(2, l, adcBits)),
			sims[i][1],
			secs(model.Design{BandwidthHz: 20e3}.SolveTimePoisson(2, l, modelBits)),
		)
		t.markTimed(1)
	}
	t.Notes = append(t.Notes,
		"paper expectation: analog time grows ∝ N, digital CG ∝ N^1.5; prototype-bandwidth parity near 650 integrators on the 2009-era Xeon",
		"analog times are virtual analog seconds from the behavioural chip simulation; digital wall times are this machine's, so the crossover location shifts with host CPU speed (see EXPERIMENTS.md)",
		"12-bit columns: the same chip with the model accelerator's 12-bit ADCs, settling to ln(2¹²·4) time constants in the model; it resolves every grid, so analog time ∝ N is measured across the whole sweep",
	)
	noteUnresolvable(t, adcBits)
	return t, nil
}

// runFig9 reproduces Figure 9: the Figure 8 comparison extended to the
// 80 kHz / 320 kHz / 1.3 MHz projected designs, with series cut where the
// design exceeds the 600 mm² die cap.
func runFig9(cfg Config) (*Table, error) {
	const adcBits = 8
	comp := model.MacroblockComplement()
	designs := model.PaperBandwidths()
	cols := []string{"N", "digital CG model (s)"}
	for _, bw := range designs {
		cols = append(cols, fmt.Sprintf("analog %s (s)", bwLabel(bw)))
	}
	t := &Table{
		ID:      "fig9",
		Title:   "Convergence time (s) vs grid points for high-bandwidth designs (blank = exceeds 600 mm²)",
		Columns: cols,
	}
	ls := fig8Ls(cfg.Quick)
	rows := make([][]interface{}, len(ls))
	err := runPoints(cfg, len(ls), func(i int) error {
		l := ls[i]
		prob, err := pde.Poisson(2, l)
		if err != nil {
			return err
		}
		cfg.logf("fig9: L=%d (N=%d)", l, prob.Grid.N())
		_, iters, _, err := digitalCG(prob)
		if err != nil {
			return err
		}
		row := []interface{}{prob.Grid.N(), fmt.Sprintf("%.3e", model.CPUTimeCG(prob.Grid.N(), iters))}
		for _, bw := range designs {
			d := model.Design{BandwidthHz: bw}
			if prob.Grid.N() > d.MaxGridPoints(comp) {
				row = append(row, "")
				continue
			}
			row = append(row, fmt.Sprintf("%.3e", d.SolveTimePoisson(2, l, adcBits)))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper expectation: each bandwidth step divides solve time by 4 (or 4.06 for 1.3 MHz) but the 320 kHz and 1.3 MHz designs hit the 600 mm² cap early",
	)
	return t, nil
}

func bwLabel(bw float64) string {
	switch {
	case bw >= 1e6:
		return fmt.Sprintf("%.1fMHz", bw/1e6)
	default:
		return fmt.Sprintf("%.0fkHz", bw/1e3)
	}
}
