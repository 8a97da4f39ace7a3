package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// workload is one named traffic mix against a real server.
type workload interface {
	// prepare does untimed work once, before the given number of timed
	// set-ups, including whatever each of them needs staged.
	prepare(ctx context.Context, boots int) error
	// boot brings up one server, ready to serve with caches warm; it is
	// what setup_s times.
	boot(ctx context.Context, t *tracer) (*node, error)
	// request sends client k's next request and checks the answer.
	request(ctx context.Context, c *caller, k int) sample
	// probe feeds the workload's systems straight through the layers below
	// serve (traced runs only).
	probe(ctx context.Context, p *prober) error
	// sequenceHash fingerprints the first requests of every client stream.
	sequenceHash() uint64
	// routes names the /metrics byte-histogram routes the workload uses.
	routes() []string
}

type workloadInfo struct {
	name string
	make func(cfg *config) workload
}

var workloads = []workloadInfo{
	{"analog-hot", newAnalogHot},
	{"digital-wire", newDigitalWire},
	{"durable-churn", newDurableChurn},
}

func lookupWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

const (
	tol = 1e-8
	// requestTimeout bounds one client call; a request past it fails.
	requestTimeout = 30 * time.Second
	// hashedRequests is how many requests per client the printed sequence
	// hash covers.
	hashedRequests = 64
)

// The serve pool's chip defaults (PoolConfig: 12-bit ADCs, 20 kHz, 8
// multipliers per macroblock); the probe chips are built to the same
// class spec.
const (
	adcBits   = 12
	bandwidth = 20e3
	mulsPerMB = 8
	// chipSeed fixes the chips' process variation. The chips are the
	// hardware, not an input: every --seed runs on the same chips, so a
	// seed's cost depends only on its requests and seeds compare.
	chipSeed = 1
)

// caller is one closed-loop client.
type caller struct {
	cl *serve.Client
	t  *tracer // nil in untraced phases
}

// call runs fn as one client call and returns its wall time; traced
// callers record it as a client span the handler span will hang under.
func (c *caller) call(ctx context.Context, name string, fn func(context.Context) error) (time.Duration, int64, error) {
	var id, ts int64
	if c.t != nil {
		id = c.t.id()
		ctx = withSpan(ctx, id)
		ts = c.t.now()
	}
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	if c.t != nil {
		c.t.record(id, 0, name, ts, ts+int64(d))
	}
	return d, id, err
}

// sample is one closed-loop request as the client saw it.
type sample struct {
	lat    time.Duration
	rhs    int    // right-hand sides the request carried
	solved int    // right-hand sides answered correctly
	fail   string // failure class; "" on success

	// solveMs is the server-reported solve time (elapsed_ms).
	solveMs float64
	// handlerSpan is the client span whose server handler the handler
	// self-time metric reads, and insideMs the solve time inside that
	// handler it subtracts.
	handlerSpan int64
	insideMs    float64
	// submitMs and queueWaitMs are the async-job timings.
	submitMs, queueWaitMs float64

	analog analogSum
	ex     *exemplar
}

// analogSum totals the AnalogStats blocks of one response.
type analogSum struct {
	rhs                         int
	seconds                     float64
	runs, refinements, rescales int
	lanes                       int
}

func (a *analogSum) add(st *serve.AnalogStats, waveLanes int) {
	if st == nil {
		return
	}
	a.rhs++
	a.seconds += st.AnalogSeconds
	a.runs += st.Runs
	a.refinements += st.Refinements
	a.rescales += st.Rescales
	a.lanes += max(st.Lanes, waveLanes, 1)
}

func (a *analogSum) merge(b analogSum) {
	a.rhs += b.rhs
	a.seconds += b.seconds
	a.runs += b.runs
	a.refinements += b.refinements
	a.rescales += b.rescales
	a.lanes += b.lanes
}

// exemplar keeps one request/response pair for the codec probe.
type exemplar struct {
	req, resp any
	newReq    func() any
}

// failClass names why a client call failed.
func failClass(err error) string {
	var busy *serve.BusyError
	var remote *serve.RemoteError
	switch {
	case errors.As(err, &busy):
		return "429"
	case errors.As(err, &remote):
		return fmt.Sprintf("http_%d", remote.StatusCode)
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "transport"
	}
}

// infResidual is ‖b − A·u‖∞/‖b‖∞, the analog refinement's promise.
func infResidual(a *la.CSR, u, b la.Vector) float64 {
	return la.Residual(a, u, b).NormInf() / b.NormInf()
}

// checkSolution recomputes a backend's promised residual client-side.
func checkSolution(backend string, a *la.CSR, u []float64, b la.Vector) string {
	if len(u) != a.Dim() {
		return "bad_shape"
	}
	var r float64
	if cli.IsAnalogBackend(backend) {
		r = infResidual(a, u, b)
	} else {
		r = la.RelativeResidual(a, u, b)
	}
	if !(r <= tol) {
		return "residual"
	}
	return ""
}

// newClient returns a serve client on its own keep-alive transport,
// wrapped to stamp span IDs when traced.
func newClient(url string, t *tracer) *serve.Client {
	cl := serve.NewClient(url)
	base := defaultTransport()
	if t != nil {
		cl.HTTPClient = httpClient(spanTransport{base: base})
	} else {
		cl.HTTPClient = httpClient(base)
	}
	return cl
}

// solve sends one solve request and checks the answer against (a, b).
func solve(ctx context.Context, c *caller, req serve.SolveRequest, a *la.CSR, b la.Vector) sample {
	var resp *serve.SolveResponse
	lat, id, err := c.call(ctx, "client.solve", func(ctx context.Context) (err error) {
		resp, err = c.cl.Solve(ctx, req)
		return err
	})
	s := sample{lat: lat, rhs: 1, handlerSpan: id}
	if err != nil {
		s.fail = failClass(err)
		return s
	}
	if s.fail = checkSolution(req.Backend, a, resp.U, b); s.fail == "" {
		s.solved = 1
	}
	s.solveMs, s.insideMs = resp.ElapsedMs, resp.ElapsedMs
	s.analog.add(resp.Analog, resp.WaveLanes)
	if c.t != nil {
		s.ex = &exemplar{req: &req, resp: resp, newReq: func() any { return new(serve.SolveRequest) }}
	}
	return s
}

// ---------------------------------------------------------------------
// analog-hot: by-reference solo analog-refined solves over 8 registered
// operators drawn zipf(1.3), a fresh right-hand side per request.

const (
	hotOperators = 8
	hotZipfS     = 1.3
)

type analogHot struct {
	cfg  *config
	ops  []*la.CSR
	refs []*serve.PreparedOperator
	z    zipf
	gens []*rand.Rand
}

func newAnalogHot(cfg *config) workload {
	w := &analogHot{cfg: cfg, z: newZipf(hotOperators, hotZipfS)}
	shapes, r := shapeRand(), newRand(cfg.seed, streamOperators)
	for i := 0; i < hotOperators; i++ {
		n := 16
		if i%2 == 1 {
			n = 32
		}
		a := scaled(bandedOperator(shapes, n), drawScale(r))
		w.ops = append(w.ops, a)
		w.refs = append(w.refs, serve.PrepareOperator(a))
	}
	for k := 0; k < cfg.clients; k++ {
		w.gens = append(w.gens, newRand(cfg.seed, streamClient0+uint64(k)))
	}
	return w
}

func (w *analogHot) next(r *rand.Rand) (int, la.Vector) {
	i := w.z.draw(r)
	return i, rhsVector(r, w.ops[i].Dim())
}

func (w *analogHot) sequenceHash() uint64 {
	h := newSeqHash()
	for k := 0; k < w.cfg.clients; k++ {
		r := newRand(w.cfg.seed, streamClient0+uint64(k))
		for j := 0; j < hashedRequests; j++ {
			i, b := w.next(r)
			h.add(w.ops[i], b)
		}
	}
	return h.sum()
}

func (w *analogHot) routes() []string { return []string{"solve"} }

func (w *analogHot) prepare(context.Context, int) error { return nil }

func (w *analogHot) boot(ctx context.Context, t *tracer) (*node, error) {
	n, err := startNode(serve.Config{
		Pool:       serve.PoolConfig{ChipsPerClass: 2, WarmSizes: []int{16, 32}, MinClass: 16, MaxDim: 32, Seed: chipSeed},
		QueueBound: 64,
	}, t)
	if err != nil {
		return nil, err
	}
	c := &caller{cl: newClient(n.url, nil)}
	for i, op := range w.refs {
		if err := c.cl.EnsureOperator(ctx, op); err != nil {
			n.close()
			return nil, fmt.Errorf("registering operator %d: %w", i, err)
		}
		b := la.Constant(w.ops[i].Dim(), 1)
		req := serve.SolveRequest{Backend: cli.BackendAnalogRefined, Fingerprint: op.FP, B: b, Tol: tol}
		if s := solve(ctx, c, req, w.ops[i], b); s.fail != "" {
			n.close()
			return nil, fmt.Errorf("warm solve on operator %d: %s", i, s.fail)
		}
	}
	return n, nil
}

func (w *analogHot) request(ctx context.Context, c *caller, k int) sample {
	i, b := w.next(w.gens[k])
	req := serve.SolveRequest{Backend: cli.BackendAnalogRefined, Fingerprint: w.refs[i].FP, B: b, Tol: tol}
	return solve(ctx, c, req, w.ops[i], b)
}

// ---------------------------------------------------------------------
// digital-wire: cg on the n=1024 2-D Poisson operator, alternating
// by-value and by-reference requests.

type digitalWire struct {
	cfg     *config
	op      *la.CSR
	ref     *serve.PreparedOperator
	entries []serve.Entry
	gens    []*rand.Rand
	sent    []int
}

func newDigitalWire(cfg *config) workload {
	g, err := la.NewGrid(2, 32)
	if err != nil {
		panic(err) // a fixed, valid grid
	}
	a := la.PoissonMatrix(g)
	w := &digitalWire{cfg: cfg, op: a, ref: serve.PrepareOperator(a), entries: serve.MatrixEntries(a), sent: make([]int, cfg.clients)}
	for k := 0; k < cfg.clients; k++ {
		w.gens = append(w.gens, newRand(cfg.seed, streamClient0+uint64(k)))
	}
	return w
}

func (w *digitalWire) sequenceHash() uint64 {
	h := newSeqHash()
	for k := 0; k < w.cfg.clients; k++ {
		r := newRand(w.cfg.seed, streamClient0+uint64(k))
		for j := 0; j < hashedRequests; j++ {
			h.add(w.op, rhsVector(r, w.op.Dim()))
		}
	}
	return h.sum()
}

func (w *digitalWire) routes() []string { return []string{"solve"} }

func (w *digitalWire) prepare(context.Context, int) error { return nil }

// solveReq builds the i-th request: even i by value, odd by reference.
func (w *digitalWire) solveReq(i int, b la.Vector) serve.SolveRequest {
	if i%2 == 0 {
		return serve.SolveRequest{Backend: "cg", N: w.op.Dim(), A: w.entries, B: b, Tol: tol}
	}
	return serve.SolveRequest{Backend: "cg", Fingerprint: w.ref.FP, B: b, Tol: tol}
}

func (w *digitalWire) boot(ctx context.Context, t *tracer) (*node, error) {
	// No chip classes are warmed: this workload never touches the pool.
	n, err := startNode(serve.Config{
		Pool:       serve.PoolConfig{WarmSizes: []int{}, MinClass: 16, MaxDim: 32, Seed: chipSeed},
		QueueBound: 64,
	}, t)
	if err != nil {
		return nil, err
	}
	c := &caller{cl: newClient(n.url, nil)}
	if err := c.cl.EnsureOperator(ctx, w.ref); err != nil {
		n.close()
		return nil, fmt.Errorf("registering the Poisson operator: %w", err)
	}
	b := la.Constant(w.op.Dim(), 1)
	for i := 0; i < 2; i++ {
		if s := solve(ctx, c, w.solveReq(i, b), w.op, b); s.fail != "" {
			n.close()
			return nil, fmt.Errorf("warm cg solve: %s", s.fail)
		}
	}
	return n, nil
}

func (w *digitalWire) request(ctx context.Context, c *caller, k int) sample {
	b := rhsVector(w.gens[k], w.op.Dim())
	req := w.solveReq(w.sent[k], b)
	w.sent[k]++
	return solve(ctx, c, req, w.op, b)
}

// ---------------------------------------------------------------------
// durable-churn: each client submits a durable async batch job (16 RHS,
// analog-refined) on a never-seen operator by value, then long-polls it
// to done, against an on-disk job store and a registry capped below the
// operator count.

const (
	churnN        = 16
	churnRHS      = 16
	churnRegistry = 8
)

type durableChurn struct {
	cfg *config
	// shape is every job's operator shape; each job draws its own scale,
	// so every operator is new to the server and all cost alike.
	shape *la.CSR
	// pristine holds the journals the untimed pre-phase left; every boot
	// replays its own copy of them, staged before the timer starts.
	pristine string
	boots    int
	gens     []*rand.Rand
}

func newDurableChurn(cfg *config) workload {
	w := &durableChurn{cfg: cfg, shape: bandedOperator(shapeRand(), churnN), pristine: filepath.Join(cfg.dir, "pristine")}
	for k := 0; k < cfg.clients; k++ {
		w.gens = append(w.gens, newRand(cfg.seed, streamClient0+uint64(k)))
	}
	return w
}

// next draws one never-seen operator and its right-hand sides.
func (w *durableChurn) next(r *rand.Rand) (*la.CSR, []la.Vector) {
	a := scaled(w.shape, drawScale(r))
	rhs := make([]la.Vector, churnRHS)
	for j := range rhs {
		rhs[j] = rhsVector(r, churnN)
	}
	return a, rhs
}

func (w *durableChurn) sequenceHash() uint64 {
	h := newSeqHash()
	for k := 0; k < w.cfg.clients; k++ {
		r := newRand(w.cfg.seed, streamClient0+uint64(k))
		for j := 0; j < hashedRequests; j++ {
			a, rhs := w.next(r)
			h.add(a, rhs...)
		}
	}
	return h.sum()
}

func (w *durableChurn) routes() []string { return []string{"jobs"} }

func (w *durableChurn) serverConfig(store string) serve.Config {
	return serve.Config{
		Pool:           serve.PoolConfig{ChipsPerClass: 2, WarmSizes: []int{churnN}, MinClass: churnN, MaxDim: 32, Seed: chipSeed},
		QueueBound:     64,
		JobStore:       store,
		RegistryMaxOps: churnRegistry,
	}
}

// prepare runs the untimed pre-phase: a server on a fresh store runs
// cfg.preJobs jobs to done, leaving a job journal and an operator journal
// (with registry evictions) for the timed boots to replay; it then copies
// them into one directory per boot. Its jobs run on the digital cg
// backend: replay cost depends on the journal records, not on which
// backend produced them, and cg keeps the pre-phase short.
func (w *durableChurn) prepare(ctx context.Context, boots int) error {
	if err := os.MkdirAll(w.pristine, 0o755); err != nil {
		return err
	}
	n, err := startNode(w.serverConfig(filepath.Join(w.pristine, "jobs.wal")), nil)
	if err != nil {
		return err
	}
	c := &caller{cl: newClient(n.url, nil)}
	r := newRand(w.cfg.seed, streamPrephase)
	var failed error
	for j := 0; j < w.cfg.preJobs && failed == nil; j++ {
		a, rhs := w.next(r)
		if s := w.job(ctx, c, "cg", a, rhs); s.fail != "" {
			failed = fmt.Errorf("pre-phase job %d: %s", j, s.fail)
		}
	}
	if err := n.close(); failed == nil {
		failed = err
	}
	if failed != nil {
		return failed
	}
	for i := 1; i <= boots; i++ {
		if err := copyDir(w.pristine, w.bootDir(i)); err != nil {
			return err
		}
	}
	return nil
}

func (w *durableChurn) bootDir(i int) string {
	return filepath.Join(w.cfg.dir, fmt.Sprintf("boot%d", i))
}

func (w *durableChurn) boot(ctx context.Context, t *tracer) (*node, error) {
	w.boots++
	n, err := startNode(w.serverConfig(filepath.Join(w.bootDir(w.boots), "jobs.wal")), t)
	if err != nil {
		return nil, err
	}
	if err := newClient(n.url, nil).Readyz(ctx); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (w *durableChurn) request(ctx context.Context, c *caller, k int) sample {
	a, rhs := w.next(w.gens[k])
	return w.job(ctx, c, cli.BackendAnalogRefined, a, rhs)
}

// job submits one by-value batch job, long-polls it to a terminal state,
// and checks it: state done, every item within tol.
func (w *durableChurn) job(ctx context.Context, c *caller, backend string, a *la.CSR, rhs []la.Vector) sample {
	rows := make([][]float64, len(rhs))
	for j, b := range rhs {
		rows[j] = b
	}
	req := serve.JobSubmitRequest{Batch: &serve.BatchSolveRequest{
		Backend: backend, N: a.Dim(), A: serve.MatrixEntries(a), RHS: rows, Tol: tol,
	}}
	s := sample{rhs: len(rhs)}
	start := time.Now()
	var st *serve.JobStatus
	submit, id, err := c.call(ctx, "client.submit", func(ctx context.Context) (err error) {
		st, err = c.cl.SubmitJob(ctx, req)
		return err
	})
	s.submitMs, s.handlerSpan = float64(submit.Microseconds())/1000, id
	if err == nil {
		_, _, err = c.call(ctx, "client.wait", func(ctx context.Context) (err error) {
			st, err = c.cl.WaitJob(ctx, st.ID)
			return err
		})
	}
	s.lat = time.Since(start)
	if err != nil {
		s.fail = failClass(err)
		return s
	}
	s.fail = checkJob(st, a, rhs, &s)
	if c.t != nil {
		s.ex = &exemplar{req: &req, resp: st, newReq: func() any { return new(serve.JobSubmitRequest) }}
	}
	return s
}

// checkJob verifies a finished job and fills s with its solve time,
// queue wait, and analog stats.
func checkJob(st *serve.JobStatus, a *la.CSR, rhs []la.Vector, s *sample) string {
	if st.State != "done" {
		return "job_" + st.State
	}
	var out serve.BatchSolveResponse
	if err := json.Unmarshal(st.Result, &out); err != nil || len(out.Items) != len(rhs) {
		return "bad_result"
	}
	s.solveMs = out.ElapsedMs
	s.queueWaitMs = float64(st.UpdatedAt.Sub(st.SubmittedAt).Microseconds())/1000 - out.ElapsedMs
	for j, it := range out.Items {
		if checkSolution(out.Backend, a, it.U, rhs[j]) == "" {
			s.solved++
		}
		s.analog.add(it.Analog, 0)
	}
	if s.solved != len(rhs) {
		return "residual"
	}
	return ""
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
