package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"analogacc/internal/core"
	"analogacc/internal/la"
)

// Federation peer surface. Two endpoints make one alad node usable by its
// peers: GET /v1/peer/stats advertises what this node's pool holds
// resident (so routers can weigh affinity against load), and
// POST /v1/peer/block solves a batch of right-hand sides against one
// block matrix on a pooled chip — the wire form of core.BlockSession, so
// a peer node can serve as a worker in another node's scatter-gathered
// decomposed solve. Both speak the same JSON/error conventions as the
// public API.

// PeerResident is one cached configuration in a peer stats answer. The
// fingerprint travels as a hex string: JSON numbers are float64 and
// cannot carry a full uint64.
type PeerResident struct {
	Class int    `json:"class"`
	N     int    `json:"n"`
	FP    string `json:"fp"`
}

// PeerStatsResponse is GET /v1/peer/stats: the routing-relevant view of
// one node — identity, load, drain state, and pool residency.
type PeerStatsResponse struct {
	Node       string         `json:"node,omitempty"`
	QueueDepth int            `json:"queue_depth"`
	QueueBound int            `json:"queue_bound"`
	Draining   bool           `json:"draining"`
	Resident   []PeerResident `json:"resident,omitempty"`
	CacheHits  int64          `json:"cache_hits"`
	CacheMiss  int64          `json:"cache_misses"`
	// ExtraLanes gauges in-flight solves holding no admission slot —
	// async-job wave lanes the coalescer is draining. Queue depth alone
	// misses them, so routers add this in before saturation-gating.
	ExtraLanes int64 `json:"extra_lanes,omitempty"`
	// Coalesced counts requests this node served from shared lane waves
	// (lifetime), the cluster-wide coalescing odometer.
	Coalesced int64 `json:"coalesced_total,omitempty"`
}

func (s *Server) handlePeerStats(w http.ResponseWriter, _ *http.Request) {
	res := s.pool.ResidentFingerprints()
	resp := PeerStatsResponse{
		Node:       s.cfg.NodeName,
		QueueDepth: s.QueueDepth(),
		QueueBound: s.cfg.QueueBound,
		Draining:   s.draining.Load(),
		CacheHits:  s.pool.CacheHits(),
		CacheMiss:  s.pool.CacheMisses(),
		ExtraLanes: s.metrics.detachedLanes.Load(),
		Coalesced:  s.metrics.CoalescedRequests(),
	}
	for _, r := range res {
		resp.Resident = append(resp.Resident, PeerResident{
			Class: r.Class, N: r.N, FP: strconv.FormatUint(r.FP, 16),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// BlockOptions is the wire form of the core.SolveOptions a decomposed
// solve passes to its block sessions. Calibrate and Guess are omitted on
// purpose: pooled chips arrive calibrated, and guesses travel per item.
type BlockOptions struct {
	Samples        int     `json:"samples,omitempty"`
	MaxRescales    int     `json:"max_rescales,omitempty"`
	SigmaHint      float64 `json:"sigma_hint,omitempty"`
	DisableBoost   bool    `json:"disable_boost,omitempty"`
	Tolerance      float64 `json:"tolerance,omitempty"`
	MaxRefinements int     `json:"max_refinements,omitempty"`
	MaxLanes       int     `json:"max_lanes,omitempty"`
}

func (o BlockOptions) toCore() core.SolveOptions {
	return core.SolveOptions{
		Samples:        o.Samples,
		MaxRescales:    o.MaxRescales,
		SigmaHint:      o.SigmaHint,
		DisableBoost:   o.DisableBoost,
		Tolerance:      o.Tolerance,
		MaxRefinements: o.MaxRefinements,
		MaxLanes:       o.MaxLanes,
	}
}

// BlockOptionsFromCore builds the wire form the remote provider sends.
func BlockOptionsFromCore(o core.SolveOptions) BlockOptions {
	return BlockOptions{
		Samples:        o.Samples,
		MaxRescales:    o.MaxRescales,
		SigmaHint:      o.SigmaHint,
		DisableBoost:   o.DisableBoost,
		Tolerance:      o.Tolerance,
		MaxRefinements: o.MaxRefinements,
		MaxLanes:       o.MaxLanes,
	}
}

// BlockWireItem is one right-hand side of a block batch: the rhs, the
// digital seed from the previous outer iterate, and the block's learned
// sigma gain (carried across sweeps by the caller).
type BlockWireItem struct {
	RHS       []float64 `json:"rhs"`
	Guess     []float64 `json:"guess,omitempty"`
	SigmaGain float64   `json:"sigma_gain,omitempty"`
}

// BlockSolveRequest is POST /v1/peer/block: solve every item against the
// block matrix, keeping the matrix resident on the serving chip between
// calls. The matrix arrives either by value (structured triplets,
// duplicates sum — the serving node implicitly registers it) or by
// reference (Fingerprint of a block sent in full on an earlier sweep):
// the entry node ships each sub-block operator once, then every later
// sweep carries only items. An unknown fingerprint answers 404
// unknown_operator and the caller falls back to a full send.
type BlockSolveRequest struct {
	N           int             `json:"n"`
	A           []Entry         `json:"A,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Items       []BlockWireItem `json:"items"`
	Opt         BlockOptions    `json:"opt"`
	TimeoutMs   int             `json:"timeout_ms,omitempty"`
}

// BlockWireResult is one item's answer.
type BlockWireResult struct {
	U           []float64 `json:"u"`
	SigmaGain   float64   `json:"sigma_gain"`
	Refinements int       `json:"refinements"`
	Runs        int       `json:"runs"`
}

// BlockSolveResponse answers a block batch. The odometer deltas are what
// this call cost on the serving chip — the caller's remote worker
// accumulates them so DecomposeStats count remote work exactly like
// local work.
type BlockSolveResponse struct {
	Results []BlockWireResult `json:"results"`
	// AnalogSeconds/Runs/Configs are this call's deltas on the serving
	// chip's odometers. Configs is 0 when the chip still held the matrix
	// from a previous call (the cross-sweep warm path).
	AnalogSeconds float64 `json:"analog_seconds"`
	Runs          int     `json:"runs"`
	Configs       int     `json:"configs"`
	ServedBy      string  `json:"served_by,omitempty"`
	// Registered reports whether the block operator is addressable by
	// fingerprint on the serving node after this call: true on every
	// by-reference hit, and on a full send whose implicit registration
	// stuck. False means the caller should keep sending the block in
	// full (e.g. it exceeds the serving node's registry byte cap) instead
	// of paying a guaranteed 404-and-resend round trip every sweep.
	Registered bool `json:"registered,omitempty"`
}

func (s *Server) handlePeerBlock(w http.ResponseWriter, r *http.Request) {
	var req BlockSolveRequest
	n, err := DecodeRequest(w, r, MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("peer_block", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	resp, aerr := s.solveBlock(r.Context(), &req)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	s.metrics.ObserveResponseBytes("peer_block", int64(writeJSON(w, http.StatusOK, resp)))
}

// solveBlock runs one peer block batch. It deliberately bypasses the
// admission queue: a block solve is an interior step of a decomposed
// solve already admitted (and slot-held) on the entry node, so gating it
// here could deadlock a saturated cluster against itself. The chip pool
// is the bounding resource, and Checkout blocks under the request
// deadline like any local solve.
func (s *Server) solveBlock(ctx context.Context, req *BlockSolveRequest) (*BlockSolveResponse, *APIError) {
	if req.N <= 0 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "block request needs n > 0")
	}
	if (len(req.A) == 0) == (req.Fingerprint == "") {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"block request needs exactly one of matrix entries in A, fingerprint")
	}
	if len(req.Items) == 0 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "block request needs at least one item")
	}
	if len(req.Items) > s.cfg.MaxBatchRHS {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"block batch of %d items exceeds the server limit %d", len(req.Items), s.cfg.MaxBatchRHS)
	}
	var a *la.CSR
	registered := false
	if req.Fingerprint != "" {
		fp, err := ParseFingerprint(req.Fingerprint)
		if err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		blk, ok := s.registry.lookup(fp)
		if !ok {
			return nil, apiErrorf(http.StatusNotFound, CodeUnknownOperator,
				"block operator %s is not registered on this node; resend the full block", req.Fingerprint)
		}
		if blk.Dim() != req.N {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
				"block operator %s has order %d, request says %d", req.Fingerprint, blk.Dim(), req.N)
		}
		a = blk
		registered = true
	} else {
		built, err := buildCSR(req.N, req.A)
		if err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		a = built
		// Implicit registration, into the ephemeral (journal-less) tier:
		// the entry node's next sweep can go by reference, but a sub-block
		// never costs a synchronous journal fsync inside the solve path
		// and never competes for durability with client-registered
		// operators. Oversized blocks simply stay by-value — the response
		// echoes whether the registration stuck so the caller stops
		// attempting by-reference instead of eating a 404 every sweep.
		if _, _, rerr := s.registry.registerEphemeral(a); rerr == nil {
			registered = true
		}
	}
	items := make([]core.BatchItem, len(req.Items))
	for i, it := range req.Items {
		if len(it.RHS) != req.N {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
				"item %d rhs has %d values, block order is %d", i, len(it.RHS), req.N)
		}
		if len(it.Guess) > 0 && len(it.Guess) != req.N {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
				"item %d guess has %d values, block order is %d", i, len(it.Guess), req.N)
		}
		items[i] = core.BatchItem{RHS: la.Vector(it.RHS), Guess: la.Vector(it.Guess), SigmaGain: it.SigmaGain}
	}

	ctx, cancel := context.WithTimeout(ctx, s.clampTimeout(req.TimeoutMs))
	defer cancel()

	pc, err := s.pool.Checkout(ctx, a)
	if err != nil {
		return nil, s.apiError(ctx, err)
	}
	defer s.pool.Checkin(pc)

	timeBase := pc.Acc.AnalogTime()
	runsBase := pc.Acc.Runs()
	cfgBase := pc.Acc.Configurations()
	sess, err := pc.Acc.BeginSession(a)
	if err != nil {
		return nil, apiErrorf(http.StatusUnprocessableEntity, CodeSolveFailed, "programming block: %v", err)
	}
	us, sts, gains, err := sess.SolveBatchRefinedItems(ctx, items, req.Opt.toCore())
	if err != nil {
		return nil, s.apiError(ctx, fmt.Errorf("block solve: %w", err))
	}
	resp := &BlockSolveResponse{
		Results:       make([]BlockWireResult, len(us)),
		AnalogSeconds: pc.Acc.AnalogTime() - timeBase,
		Runs:          pc.Acc.Runs() - runsBase,
		Configs:       pc.Acc.Configurations() - cfgBase,
		ServedBy:      s.cfg.NodeName,
		Registered:    registered,
	}
	for i := range us {
		resp.Results[i] = BlockWireResult{
			U:           []float64(us[i]),
			SigmaGain:   gains[i],
			Refinements: sts[i].Refinements,
			Runs:        sts[i].Runs,
		}
	}
	return resp, nil
}
