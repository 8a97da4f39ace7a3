package federation

import (
	"context"
	"fmt"
	"time"

	"analogacc/internal/core"
	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// Provider is the federation's core.WorkerProvider: a decomposed solve
// fans its blocks out over the local pool's chips first, then — when the
// system wants more workers than the local pool can lend — over healthy
// peer nodes, each reached through POST /v1/peer/block. A peer worker
// behaves exactly like a chip: its block matrix stays resident in the
// peer's pool between sweeps (the peer's own session cache adopts it on
// every call), and its odometer deltas flow back in each response so
// DecomposeStats count remote analog seconds and configurations like
// local ones. Results are bit-identical to an all-local solve because
// the engine's Jacobi schedule is worker-count-independent and the peer
// runs the same deterministic chip simulation.
type Provider struct {
	local   *serve.PoolProvider
	members *Membership
	metrics *Metrics
}

// NewProvider wires the scatter-gather provider. local is the node's own
// pool provider; members supplies healthy peers; metrics (optional)
// counts scattered block traffic.
func NewProvider(local *serve.PoolProvider, members *Membership, metrics *Metrics) *Provider {
	return &Provider{local: local, members: members, metrics: metrics}
}

// MaxBlockSize implements core.WorkerProvider with the local pool's
// capacity. The cluster is homogeneous by configuration (every node's
// classes use the same specs), so local capacity is cluster capacity.
func (p *Provider) MaxBlockSize(a *la.CSR) int { return p.local.MaxBlockSize(a) }

// AcquireWorkers implements core.WorkerProvider: the local pool's chips
// first (one blocking checkout, the rest opportunistic), then one remote
// worker per available peer until want is met. Remote lanes only join
// when the local pool is exhausted — a local chip is always cheaper than
// a wire round trip per sweep.
func (p *Provider) AcquireWorkers(ctx context.Context, sample core.Matrix, want int) ([]core.BlockWorker, func(), error) {
	workers, release, err := p.local.AcquireWorkers(ctx, sample, want)
	if err != nil {
		return nil, nil, err
	}
	if p.members != nil {
		for _, addr := range p.members.Members() {
			if len(workers) >= want {
				break
			}
			if !p.members.Available(addr) {
				continue
			}
			cl := p.members.Client(addr)
			if cl == nil { // self
				continue
			}
			workers = append(workers, &remoteWorker{addr: addr, client: cl, members: p.members, metrics: p.metrics})
		}
	}
	return workers, release, nil
}

// remoteWorker is one peer node acting as a block lane. The engine
// drives each worker from a single goroutine and reads odometers only
// before launch and after the sweeps join, so the accumulators need no
// locking.
type remoteWorker struct {
	addr    string
	client  *serve.Client
	members *Membership
	metrics *Metrics

	analogSeconds float64
	runs, configs int
}

func (w *remoteWorker) Odometer() (float64, int, int) { return w.analogSeconds, w.runs, w.configs }

func (w *remoteWorker) OpenBlock(a *la.CSR) (core.BlockSession, error) {
	// Serialize the block once; the first sweep ships it in full and the
	// serving node implicitly registers it, so every later sweep sends
	// only the fingerprint and the items — O(n·items) per sweep instead
	// of O(nnz). The peer's session cache recognizes the fingerprint on
	// call 2+ and adopts the resident programming, so only the first call
	// pays configuration cost too.
	return &remoteSession{w: w, n: a.Dim(), entries: serve.MatrixEntries(a), fp: serve.FormatFingerprint(la.Fingerprint(a))}, nil
}

type remoteSession struct {
	w       *remoteWorker
	n       int
	entries []serve.Entry
	fp      string
	// registered tracks whether the peer reports the block addressable by
	// fingerprint (the response's Registered echo); only then do later
	// sweeps go by reference. The engine drives each session from one
	// goroutine, so no locking.
	registered bool
}

// SolveBatchRefinedItems implements core.BlockSession over the wire.
func (s *remoteSession) SolveBatchRefinedItems(ctx context.Context, items []core.BatchItem, opt core.SolveOptions) ([]la.Vector, []core.Stats, []float64, error) {
	req := serve.BlockSolveRequest{
		N:     s.n,
		Items: make([]serve.BlockWireItem, len(items)),
		Opt:   serve.BlockOptionsFromCore(opt),
	}
	if s.registered {
		req.Fingerprint = s.fp
	} else {
		req.A = s.entries
	}
	for i, it := range items {
		req.Items[i] = serve.BlockWireItem{
			RHS:       append([]float64(nil), it.RHS...),
			Guess:     append([]float64(nil), it.Guess...),
			SigmaGain: it.SigmaGain,
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := int(time.Until(dl).Milliseconds()); ms > 0 {
			req.TimeoutMs = ms
		}
	}
	if s.w.metrics != nil {
		s.w.metrics.BlockScatter(len(items))
	}
	resp, err := s.w.client.SolveBlock(ctx, req)
	if err != nil && s.registered && serve.IsUnknownOperator(err) {
		// The peer evicted (or restarted since) the block: fall back to
		// one full send, which re-registers it for the next sweep.
		s.registered = false
		req.Fingerprint = ""
		req.A = s.entries
		resp, err = s.w.client.SolveBlock(ctx, req)
	}
	if err != nil {
		if s.w.members != nil {
			s.w.members.MarkUnhealthy(s.w.addr)
		}
		if s.w.metrics != nil {
			s.w.metrics.ForwardError()
		}
		return nil, nil, nil, fmt.Errorf("federation: block solve on %s: %w", s.w.addr, err)
	}
	// Trust the peer's word over the send's success: a full send whose
	// implicit registration did not stick (block over the peer's registry
	// byte cap) answers Registered=false, and attempting by-reference
	// anyway would buy a guaranteed unknown_operator 404 plus a full
	// resend on every later sweep.
	s.registered = resp.Registered
	if len(resp.Results) != len(items) {
		return nil, nil, nil, fmt.Errorf("federation: peer %s answered %d results for %d items", s.w.addr, len(resp.Results), len(items))
	}
	s.w.analogSeconds += resp.AnalogSeconds
	s.w.runs += resp.Runs
	s.w.configs += resp.Configs
	us := make([]la.Vector, len(resp.Results))
	sts := make([]core.Stats, len(resp.Results))
	gains := make([]float64, len(resp.Results))
	for i, r := range resp.Results {
		us[i] = la.Vector(r.U)
		sts[i] = core.Stats{Refinements: r.Refinements, Runs: r.Runs}
		gains[i] = r.SigmaGain
	}
	return us, sts, gains, nil
}
