// Package serve is the networked solve service: an HTTP/JSON front end
// over the accelerator architecture, scaled out one level above the
// paper's host/peripheral split. Where internal/core is one digital host
// driving one analog chip over the Table I ISA, serve is a service host
// driving a *pool* of simulated chips — pre-built, pre-calibrated, checked
// out per request — behind a bounded admission queue with backpressure,
// per-request deadlines propagated down into the chip's settle loop, and
// an observability surface (/metrics, /healthz).
//
// The request schema here is shared verbatim by the server handlers, the
// Go Client, and alasolve -server, so the CLI and the daemon cannot drift.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"analogacc/internal/la"
)

// Entry is one matrix coefficient in the structured request form.
type Entry struct {
	Row int     `json:"i"`
	Col int     `json:"j"`
	Val float64 `json:"v"`
}

// SolveRequest asks the service to solve A·u = b. Exactly one of the
// four payload forms must be present:
//
//   - structured: N, A (triplets, duplicates sum) and B;
//   - System: a raw triplet-format file (la.ReadSystem), carrying both A
//     and b — B, if also set, overrides the file's right-hand side;
//   - MatrixMarket: a raw MatrixMarket coordinate file carrying A; B is
//     the right-hand side (default: all ones);
//   - Fingerprint: a by-reference solve against an operator previously
//     uploaded via PUT /v1/operators — the request carries only the hex
//     fingerprint and B (default: all ones), so warm-path requests stay
//     O(n) no matter how dense the matrix. An unregistered fingerprint
//     answers 404 with the stable code "unknown_operator"; clients
//     register-and-retry (serve.Client does this transparently).
type SolveRequest struct {
	// Backend selects the solver (default "analog-refined"); see
	// cli.Backends for the registry.
	Backend string `json:"backend,omitempty"`

	N int       `json:"n,omitempty"`
	A []Entry   `json:"A,omitempty"`
	B []float64 `json:"b,omitempty"`

	System       string `json:"system,omitempty"`
	MatrixMarket string `json:"matrix_market,omitempty"`

	// Fingerprint is the by-reference form: the hex la.Fingerprint of a
	// registered operator (hex because JSON numbers are float64 and
	// cannot carry a full uint64 — the PeerResident convention).
	Fingerprint string `json:"fingerprint,omitempty"`

	// Tol is the convergence / refinement tolerance (default 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// TimeoutMs caps this request's solve deadline; the server clamps it
	// to its own maximum. Zero means the server default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Workers caps the chips a decomposed solve fans out over (zero: one
	// per block, bounded by what the pool can lend without blocking).
	// Only meaningful for the "decomposed" backend and for analog
	// requests the server routes to it.
	Workers int `json:"workers,omitempty"`
}

// BuildSystem materializes the request's system in whichever by-value
// form it was sent. Errors are client errors (HTTP 400). By-reference
// (fingerprint) requests cannot be built standalone — only the server's
// registry can resolve them — so they error here; server paths route
// through Server.resolve instead.
func (r *SolveRequest) BuildSystem() (*la.CSR, la.Vector, error) {
	a, b, err := matrixForm{r.N, r.A, r.System, r.MatrixMarket, r.Fingerprint}.build()
	if err != nil {
		return nil, nil, err
	}
	switch {
	case len(r.B) > 0:
		if len(r.B) != a.Dim() {
			return nil, nil, fmt.Errorf("serve: b has %d values, matrix order is %d", len(r.B), a.Dim())
		}
		b = la.Vector(r.B)
	case r.MatrixMarket != "":
		b = la.Constant(a.Dim(), 1)
	case r.System == "":
		return nil, nil, fmt.Errorf("serve: structured request needs b with n = %d values", a.Dim())
	}
	return a, b, nil
}

// matrixForm is the matrix a solve, batch or operator request carries:
// structured triplets (n and a), a system file, a MatrixMarket file, or a
// fingerprint reference that only the server's registry can resolve.
type matrixForm struct {
	n            int
	a            []Entry
	system       string
	matrixMarket string
	fingerprint  string
}

// build checks that exactly one by-value form is present and materializes
// its matrix, with the system file's right-hand side (nil for the other
// forms). No allocation is sized by an order the body does not back: the
// structured order is held to its entry count (la.NewCSRChecked), as the
// two parsers hold their headers.
func (f matrixForm) build() (*la.CSR, la.Vector, error) {
	forms := 0
	if len(f.a) > 0 || f.n > 0 {
		forms++
	}
	if f.system != "" {
		forms++
	}
	if f.matrixMarket != "" {
		forms++
	}
	if f.fingerprint != "" {
		if forms > 0 {
			return nil, nil, fmt.Errorf("serve: request carries both a fingerprint reference and a by-value matrix; send exactly one")
		}
		return nil, nil, fmt.Errorf("serve: by-reference request (fingerprint %s) needs server-side registry resolution", f.fingerprint)
	}
	if forms != 1 {
		return nil, nil, fmt.Errorf("serve: request must carry exactly one of (n,A,b), system, matrix_market, fingerprint; got %d forms", forms)
	}
	switch {
	case f.system != "":
		return la.ReadSystem(strings.NewReader(f.system))
	case f.matrixMarket != "":
		a, err := la.ReadMatrixMarket(strings.NewReader(f.matrixMarket))
		return a, nil, err
	}
	if f.n <= 0 {
		return nil, nil, fmt.Errorf("serve: structured request needs n > 0")
	}
	if len(f.a) == 0 {
		return nil, nil, fmt.Errorf("serve: structured request needs matrix entries in A")
	}
	a, err := buildCSR(f.n, f.a)
	return a, nil, err
}

// buildCSR materializes structured triplets of order n under
// la.NewCSRChecked's bound.
func buildCSR(n int, a []Entry) (*la.CSR, error) {
	entries := make([]la.COOEntry, len(a))
	for i, e := range a {
		entries[i] = la.COOEntry{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	return la.NewCSRChecked(n, entries)
}

// BatchSolveRequest asks the service to solve A·u = b for several
// right-hand sides against one matrix. The matrix arrives in any of
// SolveRequest's forms (structured A, system file, MatrixMarket — a
// system file's own right-hand side is ignored); RHS carries the
// right-hand sides, each of the matrix order. The server programs the
// matrix once and rewrites only DAC biases between items.
type BatchSolveRequest struct {
	// Backend selects the solver (default "analog-refined").
	Backend string `json:"backend,omitempty"`

	N int     `json:"n,omitempty"`
	A []Entry `json:"A,omitempty"`

	System       string `json:"system,omitempty"`
	MatrixMarket string `json:"matrix_market,omitempty"`

	// Fingerprint is the by-reference form: see SolveRequest.Fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`

	// RHS is the batch: one right-hand side per row.
	RHS [][]float64 `json:"rhs"`

	// Tol is the convergence / refinement tolerance (default 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// MaxLanes caps how many right-hand sides the chip drives
	// lane-parallel (0 = device limit, 1 = sequential). Lane widths are
	// bit-identical; this trades latency, never answers.
	MaxLanes int `json:"max_lanes,omitempty"`
	// TimeoutMs caps the whole batch's solve deadline; the server clamps
	// it to its own maximum. Zero means the server default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// BuildSystem materializes the batch request's matrix and right-hand
// sides. Errors are client errors (HTTP 400).
func (r *BatchSolveRequest) BuildSystem() (*la.CSR, []la.Vector, error) {
	a, _, err := matrixForm{r.N, r.A, r.System, r.MatrixMarket, r.Fingerprint}.build()
	if err != nil {
		return nil, nil, err
	}
	if len(r.RHS) == 0 {
		return nil, nil, fmt.Errorf("serve: batch request needs at least one right-hand side in rhs")
	}
	rhs := make([]la.Vector, len(r.RHS))
	for k, row := range r.RHS {
		if len(row) != a.Dim() {
			return nil, nil, fmt.Errorf("serve: rhs %d has %d values, matrix order is %d", k, len(row), a.Dim())
		}
		rhs[k] = la.Vector(row)
	}
	return a, rhs, nil
}

// AnalogStats is the analog cost block of a response (present only when
// the solve ran on a chip).
type AnalogStats struct {
	// AnalogSeconds is the virtual analog time armed for this solve — the
	// paper's convergence-time metric.
	AnalogSeconds float64 `json:"analog_seconds"`
	// SettleSeconds estimates when the final run actually settled
	// (core.Stats.SettleTime, a point inside the last poll chunk).
	SettleSeconds float64 `json:"settle_seconds"`
	Runs          int     `json:"runs"`
	Rescales      int     `json:"rescales"`
	Overflows     int     `json:"overflows"`
	Refinements   int     `json:"refinements"`
	// ScaleS is the final value scale the solve used.
	ScaleS float64 `json:"scale_s"`
	// ChipClass is the pool size class the chip came from.
	ChipClass int `json:"chip_class,omitempty"`
	// Lanes is the widest lane wave this item settled in; absent when
	// every run took the scalar path.
	Lanes int `json:"lanes,omitempty"`
}

// DigitalStats is the iterative-baseline cost block.
type DigitalStats struct {
	Iterations int   `json:"iterations"`
	MACs       int64 `json:"macs"`
}

// DecomposeInfo is the outer-iteration cost block of a decomposed solve:
// how the system was partitioned, how many Jacobi sweeps it took, and how
// much matrix reprogramming session pinning avoided.
type DecomposeInfo struct {
	Blocks           int `json:"blocks"`
	Sweeps           int `json:"sweeps"`
	Chips            int `json:"chips"`
	InnerRefinements int `json:"inner_refinements"`
	// Configs is how many full matrix programming passes ran; ReuseHits
	// is how many block solves reused an already-programmed matrix.
	Configs   int `json:"configs"`
	ReuseHits int `json:"reuse_hits"`
	// AnalogCriticalSeconds is the per-chip maximum analog time — the
	// analog critical path with blocks solving concurrently.
	AnalogCriticalSeconds float64 `json:"analog_critical_seconds"`
}

// SolveResponse is the service's answer.
type SolveResponse struct {
	U       []float64 `json:"u"`
	N       int       `json:"n"`
	Backend string    `json:"backend"`
	// Residual is the digital relative residual ‖b − A·u‖∞/‖b‖∞.
	Residual  float64        `json:"residual"`
	ElapsedMs float64        `json:"elapsed_ms"`
	Analog    *AnalogStats   `json:"analog,omitempty"`
	Digital   *DigitalStats  `json:"digital,omitempty"`
	Decompose *DecomposeInfo `json:"decompose,omitempty"`
	// ServedBy names the node whose chip ran the solve (empty from a
	// standalone daemon with no -advertise identity).
	ServedBy string `json:"served_by,omitempty"`
	// Affinity is the federation routing provenance, stamped by the entry
	// node: "hit" (routed to the fingerprint's affinity owner), "fallback"
	// (owner unhealthy/saturated, rendezvous fallback), "local" (entry node
	// is the owner), or "random" (affinity disabled). Empty outside a
	// federation.
	Affinity string `json:"affinity,omitempty"`
	// Coalesced reports that this solve shared a lane wave with other
	// concurrent same-operator requests; WaveLanes is the wave width it
	// rode in (1 when it sealed with no companions; absent when the solve
	// never rode a wave: digital and decomposed backends). Answers
	// are bit-identical either way — this is provenance, not semantics.
	Coalesced bool `json:"coalesced,omitempty"`
	WaveLanes int  `json:"wave_lanes,omitempty"`
}

// BatchItem is one right-hand side's answer within a batch response.
type BatchItem struct {
	U []float64 `json:"u"`
	// Residual is the digital relative residual ‖b − A·u‖∞/‖b‖∞.
	Residual float64       `json:"residual"`
	Analog   *AnalogStats  `json:"analog,omitempty"`
	Digital  *DigitalStats `json:"digital,omitempty"`
}

// BatchSolveResponse is the service's answer to a batch request. Items
// are positional with the request's rhs rows.
type BatchSolveResponse struct {
	N         int         `json:"n"`
	Backend   string      `json:"backend"`
	Items     []BatchItem `json:"items"`
	ElapsedMs float64     `json:"elapsed_ms"`
	// ServedBy / Affinity: see SolveResponse.
	ServedBy string `json:"served_by,omitempty"`
	Affinity string `json:"affinity,omitempty"`
	// Coalesced / WaveLanes report intra-batch lane sharing: WaveLanes is
	// the widest lane wave any item settled in, Coalesced whether at
	// least two right-hand sides shared a wave. Provenance only — answers
	// are bit-identical at any lane width.
	Coalesced bool `json:"coalesced,omitempty"`
	WaveLanes int  `json:"wave_lanes,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	// Code is a stable machine-readable error class: bad_request,
	// bad_backend, too_large, busy, deadline, cancelled, solve_failed,
	// internal, quota, not_found, unknown_operator.
	Code  string `json:"code"`
	Error string `json:"error"`
}

// ForwardedHeader marks a request already routed once by a federation
// entry node. A node receiving it serves locally, never re-forwards:
// the loop guard that makes asymmetric peer views safe.
const ForwardedHeader = "X-Alad-Forwarded"

// Stable error codes.
const (
	CodeBadRequest  = "bad_request"
	CodeBadBackend  = "bad_backend"
	CodeTooLarge    = "too_large"
	CodeBusy        = "busy"
	CodeDeadline    = "deadline"
	CodeSolveFailed = "solve_failed"
	CodeInternal    = "internal"
	// CodeQuota is the async-job analogue of busy scoped to one tenant:
	// its live-job quota is full, other tenants are unaffected.
	CodeQuota = "quota"
	// CodeNotFound marks an unknown job ID.
	CodeNotFound = "not_found"
	// CodeUnknownOperator marks a by-reference request whose fingerprint
	// is not in this node's operator registry (never uploaded, or
	// evicted). Stable so clients can register-and-retry.
	CodeUnknownOperator = "unknown_operator"
	// CodeCancelled marks a solve whose context was cancelled: the client
	// went away, or its async job was cancelled mid-solve (503, distinct
	// from deadline expiry and from server faults).
	CodeCancelled = "cancelled"
)

// OperatorRequest registers a matrix in the operator registry
// (PUT /v1/operators). The matrix arrives in any of SolveRequest's
// by-value forms; a system file's right-hand side is ignored.
type OperatorRequest struct {
	N int     `json:"n,omitempty"`
	A []Entry `json:"A,omitempty"`

	System       string `json:"system,omitempty"`
	MatrixMarket string `json:"matrix_market,omitempty"`
}

// Build materializes the operator's matrix. Errors are client errors.
func (r *OperatorRequest) Build() (*la.CSR, error) {
	a, _, err := matrixForm{n: r.N, a: r.A, system: r.System, matrixMarket: r.MatrixMarket}.build()
	return a, err
}

// OperatorInfo describes one registered operator: the fingerprint every
// later by-reference solve cites, plus dims and resident cost.
type OperatorInfo struct {
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	NNZ         int    `json:"nnz"`
	Bytes       int64  `json:"bytes"`
	// Existed marks an idempotent re-registration: the operator was
	// already resident (its LRU position was refreshed).
	Existed  bool   `json:"existed,omitempty"`
	ServedBy string `json:"served_by,omitempty"`
}

// OperatorListResponse answers GET /v1/operators: resident operators
// (most recently used first) and the store's occupancy against its caps.
type OperatorListResponse struct {
	Operators []OperatorInfo `json:"operators"`
	Bytes     int64          `json:"bytes"`
	MaxOps    int            `json:"max_operators"`
	MaxBytes  int64          `json:"max_bytes"`
}

// FormatFingerprint renders a matrix fingerprint in the wire form (hex).
func FormatFingerprint(fp uint64) string { return strconv.FormatUint(fp, 16) }

// ParseFingerprint parses the wire (hex) form of a matrix fingerprint.
func ParseFingerprint(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad fingerprint %q: %w", s, err)
	}
	return fp, nil
}

// MatrixEntries serializes a CSR into the wire triplet form, row-major.
func MatrixEntries(a *la.CSR) []Entry {
	entries := make([]Entry, 0, a.NNZ())
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			entries = append(entries, Entry{Row: i, Col: j, Val: v})
		})
	}
	return entries
}
