// Command alasolve solves a system of linear equations A·u = b read from a
// simple triplet file (see internal/la.ReadSystem) on a chosen backend:
// the simulated analog accelerator (one-shot or with Algorithm 2
// refinement), any of the digital iterative baselines, or dense LU.
// With -server it submits the solve to a running alad daemon instead of
// solving locally, using the same request schema.
//
// Usage:
//
//	alasolve -f system.txt -backend analog-refined -tol 1e-8
//	alasolve -f poisson.txt -backend cg
//	alasolve -f system.txt -server localhost:8080
//	alasolve -f system.txt -server host1:8080,host2:8080,host3:8080  # federation: owner-first routing
//	alasolve -f system.txt -server localhost:8080 -async        # prints a job ID
//	alasolve -server localhost:8080 -job j-00000001 -wait       # blocks for the result
//	echo "n 1
//	a 0 0 0.5
//	b 0 0.25" | alasolve -backend analog
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/federation"
	"analogacc/internal/la"
	"analogacc/internal/serve"
)

func main() {
	var (
		file      = flag.String("f", "", "system file (default: stdin)")
		format    = flag.String("format", "triplet", "triplet (A and b in one file) | mm (MatrixMarket matrix; see -rhs)")
		rhsFile   = flag.String("rhs", "", "with -format mm: file of right-hand-side values, one per line (default: all ones)")
		batchFile = flag.String("rhs-file", "", "batch mode: file of right-hand sides, one per line (n whitespace-separated values); the matrix is programmed once and every rhs solves on it")
		backend   = flag.String("backend", "analog-refined", cli.BackendUsage())
		tol       = flag.Float64("tol", 1e-8, "convergence / refinement tolerance")
		adcBits   = flag.Int("adc-bits", 12, "analog chip converter resolution")
		bandwidth = flag.Float64("bandwidth", 20e3, "analog bandwidth in Hz")
		calibrate = flag.Bool("calibrate", false, "run the chip init calibration first")
		jobs      = flag.Int("j", 0, "decomposed backend: chips to fan block solves out over (default: one per block; local solves build j chips, default 2)")
		blockSize = flag.Int("block", 0, "decomposed backend: variables per block (default: auto)")
		server    = flag.String("server", "", "alad daemon address(es), comma-separated: submit the solve remotely instead of solving in-process; with a federation node list, solves go to the fingerprint's owner node first and fail over down the rank")
		conc      = flag.Int("concurrency", 1, "with -server: fire N concurrent copies of this solve, demonstrating the daemon's wave coalescer; each answer prints its coalesced=<bool> wave_lanes=<n> provenance")
		deadline  = flag.Duration("deadline", 0, "with -server: per-request solve deadline (default: server's)")
		async     = flag.Bool("async", false, "with -server: submit as a durable background job and print its ID instead of waiting inline (add -wait to block for the result)")
		wait      = flag.Bool("wait", false, "with -async or -job: block until the job is terminal and print its result")
		jobID     = flag.String("job", "", "with -server: fetch (or with -wait, wait for) an existing job by ID instead of submitting")
		tenant    = flag.String("tenant", "", "with -server: tenant label for async job scheduling and quotas")
		retries   = flag.Int("retries", 2, "with -server: times a busy (429) answer is retried with jittered backoff honoring Retry-After")
		quiet     = flag.Bool("q", false, "print only the solution values")
	)
	flag.Parse()

	servers := federation.SplitEndpoints(*server)
	configureClient := func(c *serve.Client) {
		c.MaxRetries = *retries
		c.Tenant = *tenant
	}
	// Job submission and polling are not affinity-routed; they talk to the
	// first listed node.
	newRemote := func() *serve.Client {
		c := serve.NewClient(servers[0])
		configureClient(c)
		return c
	}
	newMulti := func() *federation.MultiClient {
		mc, err := federation.NewMultiClient(servers, configureClient)
		if err != nil {
			fail("%v", err)
		}
		return mc
	}

	// -job needs no input system: fetch the job and leave.
	if *jobID != "" {
		if *server == "" {
			fail("-job requires -server")
		}
		c := newRemote()
		var (
			st  *serve.JobStatus
			err error
		)
		if *wait {
			st, err = c.WaitJob(context.Background(), *jobID)
		} else {
			st, err = c.Job(context.Background(), *jobID, 0)
		}
		if err != nil {
			fail("job %s: %v", *jobID, err)
		}
		printJob(st, *quiet)
		return
	}
	if *async && *server == "" {
		fail("-async requires -server")
	}

	// Fail fast on a bad backend before touching (or fully parsing) the
	// input: `alasolve -backend typo < big.mtx` must not read big.mtx.
	if !cli.ValidBackend(*backend) {
		fail("unknown backend %q (known: %s)", *backend, cli.BackendUsage())
	}

	var in io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	var (
		a *la.CSR
		b la.Vector
	)
	switch *format {
	case "triplet":
		var err error
		a, b, err = la.ReadSystem(in)
		if err != nil {
			fail("reading system: %v", err)
		}
	case "mm":
		var err error
		a, err = la.ReadMatrixMarket(in)
		if err != nil {
			fail("reading MatrixMarket: %v", err)
		}
		b = la.Constant(a.Dim(), 1)
		if *rhsFile != "" {
			b, err = readRHS(*rhsFile, a.Dim())
			if err != nil {
				fail("%v", err)
			}
		}
	default:
		fail("unknown format %q", *format)
	}

	if *batchFile != "" {
		raw, err := os.ReadFile(*batchFile)
		if err != nil {
			fail("%v", err)
		}
		rhs, err := cli.ParseRHSBatch(string(raw), a.Dim())
		if err != nil {
			fail("%v", err)
		}
		if *async {
			req := buildBatchRequest(a, rhs, *backend, *tol, *deadline)
			submitJob(newRemote(), serve.JobSubmitRequest{Tenant: *tenant, Batch: &req}, *wait, *quiet)
			return
		}
		var mc *federation.MultiClient
		if *server != "" {
			mc = newMulti()
		}
		solveBatch(a, rhs, mc, *backend, *deadline, *quiet, cli.SolveParams{
			Tol:       *tol,
			ADCBits:   *adcBits,
			Bandwidth: *bandwidth,
			Calibrate: *calibrate,
		})
		return
	}

	if *async {
		req := buildSolveRequest(a, b, *backend, *tol, *deadline, *jobs)
		submitJob(newRemote(), serve.JobSubmitRequest{Tenant: *tenant, Solve: &req}, *wait, *quiet)
		return
	}

	if *conc > 1 {
		if *server == "" {
			fail("-concurrency requires -server")
		}
		solveConcurrent(newMulti(), *conc, *backend, a, b, *tol, *deadline, *jobs, *quiet)
		return
	}

	var (
		u     la.Vector
		extra string
	)
	if *server != "" {
		u, extra = solveRemote(newMulti(), *backend, a, b, *tol, *deadline, *jobs)
	} else {
		out, err := cli.SolveSystem(context.Background(), *backend, a, b, cli.SolveParams{
			Tol:       *tol,
			ADCBits:   *adcBits,
			Bandwidth: *bandwidth,
			Calibrate: *calibrate,
			Workers:   *jobs,
			BlockSize: *blockSize,
		})
		if err != nil {
			fail("%s: %v", *backend, err)
		}
		u, extra = out.U, out.Note
	}

	for i, v := range u {
		if *quiet {
			fmt.Printf("%.12g\n", v)
		} else {
			fmt.Printf("u[%d] = %.12g\n", i, v)
		}
	}
	if !*quiet {
		fmt.Printf("# backend: %s (%s)\n", *backend, extra)
		fmt.Printf("# relative residual: %.3e\n", la.RelativeResidual(a, u, b))
	}
}

// solveBatch runs the multi-RHS path — locally through one compiled
// session, or remotely through POST /v1/solve/batch — and prints one
// solution block per right-hand side.
func solveBatch(a *la.CSR, rhs []la.Vector, mc *federation.MultiClient, backend string, deadline time.Duration, quiet bool, p cli.SolveParams) {
	type item struct {
		u     la.Vector
		extra string
	}
	items := make([]item, 0, len(rhs))
	var summary string
	if mc != nil {
		req := buildBatchRequest(a, rhs, backend, p.Tol, deadline)
		// Register-then-solve: the batch goes out by fingerprint, so re-runs
		// against the same daemon skip re-uploading the matrix entirely.
		resp, entry, err := mc.SolveBatchOperator(context.Background(), serve.PrepareOperator(a), req)
		if err != nil {
			fail("remote batch solve: %v", err)
		}
		for _, it := range resp.Items {
			ex := fmt.Sprintf("residual %.3e", it.Residual)
			if s := it.Analog; s != nil {
				ex += fmt.Sprintf(", analog time %.3e s, %d runs, %d refinements", s.AnalogSeconds, s.Runs, s.Refinements)
				if s.Lanes > 0 {
					ex += fmt.Sprintf(", %d lanes", s.Lanes)
				}
			}
			items = append(items, item{u: la.Vector(it.U), extra: ex})
		}
		summary = fmt.Sprintf("%d rhs served by %s in %.1f ms%s",
			len(resp.Items), entry, resp.ElapsedMs, provenance(resp.ServedBy, resp.Affinity))
	} else {
		outs, err := cli.SolveSystemBatch(context.Background(), backend, a, rhs, p)
		if err != nil {
			fail("%s: %v", backend, err)
		}
		for k, out := range outs {
			items = append(items, item{u: out.U, extra: fmt.Sprintf("residual %.3e, %s",
				la.RelativeResidual(a, out.U, rhs[k]), out.Note)})
		}
		summary = fmt.Sprintf("%d rhs solved on one compiled session", len(outs))
	}
	for k, it := range items {
		if quiet {
			for _, v := range it.u {
				fmt.Printf("%.12g\n", v)
			}
			continue
		}
		fmt.Printf("# rhs %d (%s)\n", k, it.extra)
		for i, v := range it.u {
			fmt.Printf("u[%d] = %.12g\n", i, v)
		}
	}
	if !quiet {
		fmt.Printf("# backend: %s (%s)\n", backend, summary)
	}
}

// buildSolveRequest serializes the parsed system into the shared serve
// schema (used by both the synchronous remote path and async jobs).
func buildSolveRequest(a *la.CSR, b la.Vector, backend string, tol float64, deadline time.Duration, jobs int) serve.SolveRequest {
	req := serve.SolveRequest{Backend: backend, N: a.Dim(), B: b, Tol: tol, Workers: jobs}
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			req.A = append(req.A, serve.Entry{Row: i, Col: j, Val: v})
		})
	}
	if deadline > 0 {
		req.TimeoutMs = int(deadline / time.Millisecond)
	}
	return req
}

// buildBatchRequest is buildSolveRequest's multi-RHS counterpart.
func buildBatchRequest(a *la.CSR, rhs []la.Vector, backend string, tol float64, deadline time.Duration) serve.BatchSolveRequest {
	req := serve.BatchSolveRequest{Backend: backend, N: a.Dim(), Tol: tol}
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			req.A = append(req.A, serve.Entry{Row: i, Col: j, Val: v})
		})
	}
	for _, b := range rhs {
		req.RHS = append(req.RHS, []float64(b))
	}
	if deadline > 0 {
		req.TimeoutMs = int(deadline / time.Millisecond)
	}
	return req
}

// submitJob posts one async job; with wait it then blocks until the job
// is terminal and prints the result as the synchronous path would.
func submitJob(c *serve.Client, req serve.JobSubmitRequest, wait, quiet bool) {
	st, err := c.SubmitJob(context.Background(), req)
	if err != nil {
		fail("submitting job: %v", err)
	}
	if !wait {
		if quiet {
			fmt.Println(st.ID)
		} else {
			note := ""
			if st.Deduped {
				note = " (deduplicated: an equivalent job is already in the store)"
			}
			fmt.Printf("job %s %s%s\n", st.ID, st.State, note)
			fmt.Printf("# poll with: alasolve -server ... -job %s [-wait]\n", st.ID)
		}
		return
	}
	final, err := c.WaitJob(context.Background(), st.ID)
	if err != nil {
		fail("waiting for job %s: %v", st.ID, err)
	}
	printJob(final, quiet)
}

// printJob renders a job status: done jobs print their stored solution
// exactly like a synchronous solve, failed ones exit with the recorded
// error, and everything else reports the lifecycle state.
func printJob(st *serve.JobStatus, quiet bool) {
	switch st.State {
	case "done":
	case "failed", "cancelled":
		msg := st.State
		if st.Error != nil {
			msg += fmt.Sprintf(" (%s: %s)", st.Error.Code, st.Error.Error)
		}
		fail("job %s %s", st.ID, msg)
	default:
		if quiet {
			fmt.Println(st.State)
		} else {
			fmt.Printf("job %s %s (attempts %d, submitted %s)\n",
				st.ID, st.State, st.Attempts, st.SubmittedAt.Format(time.RFC3339))
		}
		return
	}
	switch st.Kind {
	case serve.JobKindSolve:
		var resp serve.SolveResponse
		if err := json.Unmarshal(st.Result, &resp); err != nil {
			fail("decoding job %s result: %v", st.ID, err)
		}
		for i, v := range resp.U {
			if quiet {
				fmt.Printf("%.12g\n", v)
			} else {
				fmt.Printf("u[%d] = %.12g\n", i, v)
			}
		}
		if !quiet {
			fmt.Printf("# job %s done: backend %s, residual %.3e, solved in %.1f ms\n",
				st.ID, resp.Backend, resp.Residual, resp.ElapsedMs)
		}
	case serve.JobKindBatch:
		var resp serve.BatchSolveResponse
		if err := json.Unmarshal(st.Result, &resp); err != nil {
			fail("decoding job %s result: %v", st.ID, err)
		}
		for k, it := range resp.Items {
			if quiet {
				for _, v := range it.U {
					fmt.Printf("%.12g\n", v)
				}
				continue
			}
			fmt.Printf("# rhs %d (residual %.3e)\n", k, it.Residual)
			for i, v := range it.U {
				fmt.Printf("u[%d] = %.12g\n", i, v)
			}
		}
		if !quiet {
			fmt.Printf("# job %s done: backend %s, %d rhs in %.1f ms\n",
				st.ID, resp.Backend, len(resp.Items), resp.ElapsedMs)
		}
	default:
		fail("job %s has unknown kind %q", st.ID, st.Kind)
	}
}

// solveRemote ships the parsed system to an alad daemon (or federation
// node list) over the shared serve schema and returns the solution plus
// a cost summary with routing provenance.
func solveRemote(mc *federation.MultiClient, backend string, a *la.CSR, b la.Vector, tol float64, deadline time.Duration, jobs int) (la.Vector, string) {
	req := buildSolveRequest(a, b, backend, tol, deadline, jobs)
	resp, entry, err := mc.Solve(context.Background(), req)
	if err != nil {
		fail("remote solve: %v", err)
	}
	extra := fmt.Sprintf("served by %s in %.1f ms", entry, resp.ElapsedMs)
	extra += provenance(resp.ServedBy, resp.Affinity)
	if resp.Backend != backend {
		// The server routed the request elsewhere (e.g. a too-large analog
		// system fanned out over the pool as a decomposed solve).
		extra += fmt.Sprintf(", routed to %s", resp.Backend)
	}
	if s := resp.Analog; s != nil {
		extra += fmt.Sprintf(", analog time %.3e s, %d runs, %d refinements, %d rescales, chip class %d",
			s.AnalogSeconds, s.Runs, s.Refinements, s.Rescales, s.ChipClass)
	} else if s := resp.Digital; s != nil {
		extra += fmt.Sprintf(", %d iterations, %d MACs", s.Iterations, s.MACs)
	}
	if d := resp.Decompose; d != nil {
		extra += fmt.Sprintf("; decomposed: %d blocks × %d sweeps on %d chips, %d configs (%d pinned reuses), %d inner refinements",
			d.Blocks, d.Sweeps, d.Chips, d.Configs, d.ReuseHits, d.InnerRefinements)
	}
	return la.Vector(resp.U), extra
}

// solveConcurrent fires n identical solves at the daemon at once. All of
// them carry the same operator fingerprint, so a coalescing daemon folds
// them into shared lane waves; each answer's provenance line shows
// whether (and how wide) that happened. The solutions are bit-identical
// to a solo solve by construction, so only the first is printed.
func solveConcurrent(mc *federation.MultiClient, n int, backend string, a *la.CSR, b la.Vector, tol float64, deadline time.Duration, jobs int, quiet bool) {
	// Register the operator once up front; the n concurrent requests then
	// carry only the fingerprint and the right-hand side, so the wire cost
	// of the storm is O(n·dim) instead of O(n·nnz).
	op := serve.PrepareOperator(a)
	req := buildSolveRequest(a, b, backend, tol, deadline, jobs)
	type result struct {
		resp  *serve.SolveResponse
		entry string
		err   error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, entry, err := mc.SolveOperator(context.Background(), op, req)
			results[i] = result{resp: resp, entry: entry, err: err}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	coalesced := 0
	for i, r := range results {
		if r.err != nil {
			fail("request %d: %v", i, r.err)
		}
		if r.resp.Coalesced {
			coalesced++
		}
		if !quiet {
			fmt.Printf("# request %d: coalesced=%t wave_lanes=%d residual %.3e in %.1f ms%s\n",
				i, r.resp.Coalesced, r.resp.WaveLanes, r.resp.Residual, r.resp.ElapsedMs,
				provenance(r.resp.ServedBy, r.resp.Affinity))
		}
	}
	for i, v := range results[0].resp.U {
		if quiet {
			fmt.Printf("%.12g\n", v)
		} else {
			fmt.Printf("u[%d] = %.12g\n", i, v)
		}
	}
	if !quiet {
		fmt.Printf("# backend: %s (%d concurrent requests, %d coalesced, wall %.1f ms)\n",
			backend, n, coalesced, float64(wall.Microseconds())/1000)
	}
}

// provenance renders a response's federation routing stamp: which node
// actually solved it and whether affinity placed it there (hit), the
// entry node kept it (local), or health gating re-routed it (fallback).
// Non-federated daemons leave both fields empty and print nothing.
func provenance(servedBy, affinity string) string {
	if servedBy == "" {
		return ""
	}
	if affinity == "" {
		affinity = "local"
	}
	return fmt.Sprintf(", served-by=%s affinity=%s", servedBy, affinity)
}

// readRHS loads one float per non-empty line.
func readRHS(path string, n int) (la.Vector, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return cli.ParseRHS(string(raw), n)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "alasolve: "+format+"\n", args...)
	os.Exit(1)
}
