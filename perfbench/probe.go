package main

import (
	"context"
	"fmt"

	"analogacc/internal/chip"
	"analogacc/internal/cli"
	"analogacc/internal/core"
	"analogacc/internal/isa"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

// The layer probes. The layers below serve run inside the server, where
// the benchmark cannot wrap them, so a traced run also feeds the
// workload's own generated systems straight through cli, core, solvers
// and la, on chips the benchmark builds to the pool's class spec behind
// a tracedTransport.

const (
	// probeSolves is how many solo requests the analog-hot probe replays.
	probeSolves = 24
	// probeJobs is how many batch jobs the durable-churn probe replays.
	probeJobs = 4
	// probeCG is how many right-hand sides the digital-wire probe solves.
	probeCG = 16
	// fingerprintReps repeats each la.Fingerprint call so one sample is
	// well above the clock's resolution.
	fingerprintReps = 20
)

type prober struct {
	t *tracer

	attempted, failed int64
	reasons           map[string]int64

	// Analog solve loop: right-hand sides solved and the ISA/simulator
	// counts of exactly those solves.
	analogRHS int64
	isa       isaCounts
	// program times full matrix programming (core BeginSession, cold).
	programNs, programs int64

	cgSolves, cgIters, cgMACs, cgBytes, cgNs int64
	fpCalls, fpNs                            int64
}

func newProber(t *tracer) *prober { return &prober{t: t, reasons: map[string]int64{}} }

// probeChip builds one calibrated chip of a pool size class behind a
// traced transport: the serve pool's class spec (PoolConfig defaults)
// and its slot-0 process-variation seed.
func (p *prober) probeChip(class int, seed int64) (*core.Accelerator, *tracedTransport, error) {
	spec := chip.ScaledSpec(class, adcBits, bandwidth, mulsPerMB)
	spec.FanoutsPerMB = 2
	spec.Seed = seed + int64(class)*1009
	dev, err := chip.New(spec)
	if err != nil {
		return nil, nil, err
	}
	tt := &tracedTransport{lb: isa.NewLoopback(dev), dev: dev, t: p.t}
	acc, err := core.New(tt, spec)
	if err != nil {
		return nil, nil, err
	}
	if _, err := acc.Calibrate(); err != nil {
		return nil, nil, fmt.Errorf("calibrating probe chip: %w", err)
	}
	return acc, tt, nil
}

func (p *prober) fail(why string) {
	p.failed++
	p.reasons[why]++
}

// analogSolve runs one request's systems through cli on a probe chip:
// cli.SolveSystem for one right-hand side, cli.SolveSystemBatch for more.
func (p *prober) analogSolve(ctx context.Context, acc *core.Accelerator, tt *tracedTransport, a *la.CSR, rhs []la.Vector) {
	p.attempted++
	id := p.t.id()
	tt.parent = id
	before := tt.c
	start := p.t.now()
	var us []la.Vector
	var err error
	params := cli.SolveParams{Tol: tol, ADCBits: adcBits, Bandwidth: bandwidth, Acc: acc}
	name := "cli.SolveSystem"
	if len(rhs) == 1 {
		var out cli.Outcome
		out, err = cli.SolveSystem(ctx, cli.BackendAnalogRefined, a, rhs[0], params)
		us = []la.Vector{out.U}
	} else {
		name = "cli.SolveSystemBatch"
		var outs []cli.Outcome
		outs, err = cli.SolveSystemBatch(ctx, cli.BackendAnalogRefined, a, rhs, params)
		for _, o := range outs {
			us = append(us, o.U)
		}
	}
	p.t.record(id, 0, name, start, p.t.now())
	tt.parent = 0
	if err != nil {
		p.fail("solve_error")
		return
	}
	for j, b := range rhs {
		if why := checkSolution(cli.BackendAnalogRefined, a, us[j], b); why != "" {
			p.fail(why)
			return
		}
	}
	p.analogRHS += int64(len(rhs))
	d := tt.c
	p.isa.frames += d.frames - before.frames
	p.isa.bytes += d.bytes - before.bytes
	p.isa.configNs += d.configNs - before.configNs
	p.isa.readbackNs += d.readbackNs - before.readbackNs
	p.isa.settleNs += d.settleNs - before.settleNs
	p.isa.steps += d.steps - before.steps
}

// program times one full matrix programming: BeginSession on an operator
// the chip does not hold.
func (p *prober) program(acc *core.Accelerator, tt *tracedTransport, a *la.CSR) error {
	if fp, _ := acc.ResidentFingerprint(); fp == la.Fingerprint(a) {
		return fmt.Errorf("program probe: operator already resident")
	}
	id := p.t.id()
	tt.parent = id
	start := p.t.now()
	_, err := acc.BeginSession(a)
	end := p.t.now()
	tt.parent = 0
	p.t.record(id, 0, "core.BeginSession", start, end)
	if err != nil {
		return err
	}
	p.programs++
	p.programNs += end - start
	return nil
}

// cg runs solvers.CG directly and counts its work. bytes is computed from
// the CSR sizes: each iteration streams the matrix once (8-byte values and
// column indices, 8-byte row pointers) and 14 vectors of n float64s (the
// operator's input and output plus CG's dots and updates).
func (p *prober) cg(a *la.CSR, b la.Vector) {
	p.attempted++
	start := p.t.now()
	res, err := solvers.CG(a, b, solvers.Options{Tol: tol})
	end := p.t.now()
	p.t.record(p.t.id(), 0, "solvers.CG", start, end)
	if err != nil {
		p.fail("cg_error")
		return
	}
	if why := checkSolution("cg", a, res.X, b); why != "" {
		p.fail(why)
		return
	}
	n, nnz := int64(a.Dim()), int64(a.NNZ())
	p.cgSolves++
	p.cgIters += int64(res.Iterations)
	p.cgMACs += res.MACs
	p.cgBytes += int64(res.Iterations) * (16*nnz + 8*(n+1) + 14*8*n)
	p.cgNs += end - start
}

// fingerprint times la.Fingerprint on one operator.
func (p *prober) fingerprint(a *la.CSR) {
	start := p.t.now()
	for i := 0; i < fingerprintReps; i++ {
		la.Fingerprint(a)
	}
	end := p.t.now()
	p.t.record(p.t.id(), 0, "la.Fingerprint", start, end)
	p.fpCalls += fingerprintReps
	p.fpNs += end - start
}

func (w *analogHot) probe(ctx context.Context, p *prober) error {
	chips := map[int]*core.Accelerator{}
	tts := map[int]*tracedTransport{}
	for _, class := range []int{16, 32} {
		acc, tt, err := p.probeChip(class, chipSeed)
		if err != nil {
			return err
		}
		chips[class], tts[class] = acc, tt
	}
	r := newRand(w.cfg.seed, streamProbe)
	type pair struct {
		i int
		b la.Vector
	}
	var pairs []pair
	for j := 0; j < probeSolves; j++ {
		i, b := w.next(r)
		pairs = append(pairs, pair{i, b})
		n := w.ops[i].Dim()
		p.analogSolve(ctx, chips[n], tts[n], w.ops[i], []la.Vector{b})
	}
	// Consecutive operators of one size differ, so each BeginSession
	// below programs from scratch; only the one the solve loop left
	// resident is skipped.
	for _, a := range w.ops {
		if fp, _ := chips[a.Dim()].ResidentFingerprint(); fp == la.Fingerprint(a) {
			continue
		}
		if err := p.program(chips[a.Dim()], tts[a.Dim()], a); err != nil {
			return err
		}
	}
	for _, pr := range pairs {
		p.cg(w.ops[pr.i], pr.b)
	}
	for _, a := range w.ops {
		p.fingerprint(a)
	}
	return nil
}

func (w *digitalWire) probe(_ context.Context, p *prober) error {
	r := newRand(w.cfg.seed, streamProbe)
	for j := 0; j < probeCG; j++ {
		p.cg(w.op, rhsVector(r, w.op.Dim()))
	}
	p.fingerprint(w.op)
	return nil
}

func (w *durableChurn) probe(ctx context.Context, p *prober) error {
	acc, tt, err := p.probeChip(churnN, chipSeed)
	if err != nil {
		return err
	}
	r := newRand(w.cfg.seed, streamProbe)
	var ops []*la.CSR
	var rhss [][]la.Vector
	for j := 0; j < probeJobs; j++ {
		a, rhs := w.next(r)
		ops, rhss = append(ops, a), append(rhss, rhs)
		// Never seen by this chip: the batch pays full programming, as a
		// job on a never-seen operator does in the server.
		p.analogSolve(ctx, acc, tt, a, rhs)
	}
	for _, a := range ops {
		if err := p.program(acc, tt, a); err != nil {
			return err
		}
	}
	for j, a := range ops {
		for _, b := range rhss[j] {
			p.cg(a, b)
		}
		p.fingerprint(a)
	}
	return nil
}
