package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"analogacc/internal/jobs"
	"analogacc/internal/la"
)

// sharedTransport is the one keep-alive-tuned transport every Client
// built by NewClient rides on. The defaults
// (MaxIdleConnsPerHost = 2) throw connections away under federation
// RPS — a router keeps a handful of hot peers, each taking dozens of
// concurrent forwards, and every discarded connection is a fresh TCP
// handshake on the next solve. One process-wide transport with a deep
// per-host idle pool makes peer traffic reuse connections the way a
// browser would.
var (
	sharedTransportOnce sync.Once
	sharedTransport     *http.Transport
	sharedHTTPClient    *http.Client
)

func defaultHTTPClient() *http.Client {
	sharedTransportOnce.Do(func() {
		sharedTransport = http.DefaultTransport.(*http.Transport).Clone()
		sharedTransport.MaxIdleConns = 256
		sharedTransport.MaxIdleConnsPerHost = 32
		sharedTransport.IdleConnTimeout = 90 * time.Second
		sharedHTTPClient = &http.Client{Transport: sharedTransport}
	})
	return sharedHTTPClient
}

// ConnStats counts how the transport dialed: Reused connections came off
// the keep-alive pool, New ones paid a TCP handshake. The ratio is the
// observable effect of the shared tuned transport.
type ConnStats struct {
	New    int64
	Reused int64
}

// Client submits solve requests to a running alad daemon. It is what
// `alasolve -server <addr>` uses, so the CLI and the service share one
// request schema by construction. Clients from NewClient share one
// keep-alive-tuned http.Transport across the process (see
// defaultHTTPClient); federation routers hold one Client per peer and
// get connection reuse for free.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to the shared tuned client.
	HTTPClient *http.Client
	// MaxRetries is how many times a 429 answer is retried, sleeping a
	// jittered multiple of the server's Retry-After hint between
	// attempts. Zero (the default) surfaces *BusyError immediately —
	// backpressure is the caller's to see unless it opts in.
	MaxRetries int
	// Tenant, when set, rides along as the X-Alad-Tenant header on job
	// submissions (fair scheduling and quota scope).
	Tenant string
	// Forwarded marks requests as router-forwarded (the X-Alad-Forwarded
	// header): a federation node receiving one serves it locally instead
	// of routing it again, so misconfigured peer sets cannot bounce a
	// request in a loop.
	Forwarded bool

	// connNew / connReused count this client's connection acquisitions
	// (read via ConnStats).
	connNew    atomic.Int64
	connReused atomic.Int64

	// regSeen caches which operator fingerprints this endpoint has
	// acknowledged, so EnsureOperator costs nothing warm. A racing pair
	// of goroutines may both register — registration is idempotent, so
	// the duplicate is one wasted small RTT, not an error.
	regMu   sync.Mutex
	regSeen map[uint64]bool
}

// NewClient accepts "host:port" or a full http(s) URL.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{BaseURL: strings.TrimRight(addr, "/")}
}

// ConnStats reports how many requests this client served off a reused
// keep-alive connection vs a fresh dial.
func (c *Client) ConnStats() ConnStats {
	return ConnStats{New: c.connNew.Load(), Reused: c.connReused.Load()}
}

// BusyError is the typed 429: the daemon's admission queue (or job
// backlog, or the tenant's quota) is full.
type BusyError struct {
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
	// Code distinguishes the shared admission queue ("busy") from a
	// per-tenant quota bounce ("quota").
	Code string
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: server busy (%s), retry after %v", e.Code, e.RetryAfter)
}

// RemoteError is any other non-2xx answer, with the server's stable error
// code preserved.
type RemoteError struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("serve: server error %d (%s): %s", e.StatusCode, e.Code, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient()
}

// traceCtx instruments a request context to count connection reuse.
func (c *Client) traceCtx(ctx context.Context) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.connReused.Add(1)
			} else {
				c.connNew.Add(1)
			}
		},
	})
}

// roundTrip runs one JSON round trip: in (if non-nil) is encoded once as
// the body and sent as plain JSON, a 429 answer is re-sent up to retries
// times, and the answer decodes into an R.
func roundTrip[R any](ctx context.Context, c *Client, retries int, method, path string, in any) (*R, error) {
	out := new(R)
	if err := c.encodeAndSend(ctx, method, path, in, out, retries); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeAndSend encodes in (if non-nil) once and sends it.
func (c *Client) encodeAndSend(ctx context.Context, method, path string, in, out any, retries int) error {
	if in == nil {
		return c.send(ctx, method, path, nil, out, retries)
	}
	// Encode through a pooled buffer; the transport is done reading the
	// body (including any GetBody re-sends) by the time send returns, so
	// the deferred put cannot recycle bytes still in flight.
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(in); err != nil {
		return fmt.Errorf("serve: encoding request: %w", err)
	}
	return c.send(ctx, method, path, buf.Bytes(), out, retries)
}

// Forward sends body, a request already in JSON, to path as it is — a
// federation router passes on the bytes it received rather than encoding
// its decoded copy again — and decodes the answer into out. Errors and
// 429 retries are as in Solve.
func (c *Client) Forward(ctx context.Context, method, path string, body []byte, out any) error {
	return c.send(ctx, method, path, body, out, c.MaxRetries)
}

// send runs one round trip with body (nil: none), then up to retries
// re-sends of the same bytes after a 429, each sleeping a jittered
// (0.5×–1.5×) multiple of the server's Retry-After hint, bounded and
// context-aware. Jitter keeps a burst of bounced clients from
// re-arriving in lockstep.
func (c *Client) send(ctx context.Context, method, path string, body []byte, out any, retries int) error {
	for attempt := 0; ; attempt++ {
		err := c.exchange(ctx, method, path, body, out)
		var busy *BusyError
		if err == nil || !errors.As(err, &busy) || attempt >= retries {
			return err
		}
		delay := busy.RetryAfter
		if delay <= 0 {
			delay = time.Second
		}
		if delay > 30*time.Second {
			delay = 30 * time.Second
		}
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay)))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// exchange is one HTTP round trip. 429s become *BusyError, other non-2xx
// answers *RemoteError with the server's stable code preserved.
func (c *Client) exchange(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	httpReq, err := http.NewRequestWithContext(c.traceCtx(ctx), method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		httpReq.Header.Set("X-Alad-Tenant", c.Tenant)
	}
	if c.Forwarded {
		httpReq.Header.Set(ForwardedHeader, "1")
	}
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Second
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			retry = time.Duration(v) * time.Second
		}
		code := CodeBusy
		var er ErrorResponse
		if raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); json.Unmarshal(raw, &er) == nil && er.Code != "" {
			code = er.Code
		}
		return &BusyError{RetryAfter: retry, Code: code}
	}
	if resp.StatusCode/100 != 2 {
		var er ErrorResponse
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(msg, &er) != nil || er.Error == "" {
			er = ErrorResponse{Code: CodeInternal, Error: strings.TrimSpace(string(msg))}
		}
		return &RemoteError{StatusCode: resp.StatusCode, Code: er.Code, Message: er.Error}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: decoding response: %w", err)
	}
	return nil
}

// Solve submits one request and returns the server's answer. A full
// admission queue surfaces as *BusyError (retried per MaxRetries);
// other failures as *RemoteError.
func (c *Client) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	return roundTrip[SolveResponse](ctx, c, c.MaxRetries, http.MethodPost, "/v1/solve", req)
}

// SolveBatch submits one multi-RHS request: the daemon programs the
// matrix once and solves every right-hand side on the resident
// configuration. Errors surface exactly as in Solve.
func (c *Client) SolveBatch(ctx context.Context, req BatchSolveRequest) (*BatchSolveResponse, error) {
	return roundTrip[BatchSolveResponse](ctx, c, c.MaxRetries, http.MethodPost, "/v1/solve/batch", req)
}

// PreparedOperator pairs a matrix's wire fingerprint with the upload
// body that registers it, computed once and reused across every solve
// and every endpoint. Build with PrepareOperator.
type PreparedOperator struct {
	// FP is the wire (hex) fingerprint solves reference.
	FP string
	// N and NNZ echo what the registry will report back.
	N   int
	NNZ int

	fp  uint64
	reg OperatorRequest
}

// PrepareOperator fingerprints and encodes a matrix for by-reference
// solving.
func PrepareOperator(a *la.CSR) *PreparedOperator {
	fp := la.Fingerprint(a)
	return &PreparedOperator{
		FP:  FormatFingerprint(fp),
		N:   a.Dim(),
		NNZ: a.NNZ(),
		fp:  fp,
		reg: OperatorRequest{N: a.Dim(), A: MatrixEntries(a)},
	}
}

// Fingerprint is the operator's numeric fingerprint (federation ranking).
func (p *PreparedOperator) Fingerprint() uint64 { return p.fp }

// RegisterOperator uploads one operator (PUT /v1/operators) and returns
// the registry's record of it.
func (c *Client) RegisterOperator(ctx context.Context, req OperatorRequest) (*OperatorInfo, error) {
	return roundTrip[OperatorInfo](ctx, c, c.MaxRetries, http.MethodPut, "/v1/operators", req)
}

// EnsureOperator registers op with this endpoint unless a previous call
// already saw it accepted there — the warm path costs nothing.
func (c *Client) EnsureOperator(ctx context.Context, op *PreparedOperator) error {
	c.regMu.Lock()
	seen := c.regSeen[op.fp]
	c.regMu.Unlock()
	if seen {
		return nil
	}
	if _, err := c.RegisterOperator(ctx, op.reg); err != nil {
		return err
	}
	c.regMu.Lock()
	if c.regSeen == nil {
		c.regSeen = make(map[uint64]bool)
	}
	c.regSeen[op.fp] = true
	c.regMu.Unlock()
	return nil
}

// forgetOperator drops the seen mark after an unknown_operator answer
// (the server evicted or restarted since we registered).
func (c *Client) forgetOperator(fp uint64) {
	c.regMu.Lock()
	delete(c.regSeen, fp)
	c.regMu.Unlock()
}

// IsUnknownOperator reports whether err is the server's stable
// unknown_operator answer (the operator is not in its registry).
func IsUnknownOperator(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == CodeUnknownOperator
}

// SolveOperator solves by reference: req's matrix forms are replaced by
// op's fingerprint, so the warm path is one small O(n) round trip. Cold
// endpoints (or ones that evicted the operator) are handled
// transparently — register, then retry once — for two RTTs total.
func (c *Client) SolveOperator(ctx context.Context, op *PreparedOperator, req SolveRequest) (*SolveResponse, error) {
	req.Fingerprint = op.FP
	req.N, req.A, req.System, req.MatrixMarket = 0, nil, "", ""
	return withOperator(ctx, c, op, func() (*SolveResponse, error) { return c.Solve(ctx, req) })
}

// SolveBatchOperator is SolveOperator's multi-RHS counterpart.
func (c *Client) SolveBatchOperator(ctx context.Context, op *PreparedOperator, req BatchSolveRequest) (*BatchSolveResponse, error) {
	req.Fingerprint = op.FP
	req.N, req.A, req.System, req.MatrixMarket = 0, nil, "", ""
	return withOperator(ctx, c, op, func() (*BatchSolveResponse, error) { return c.SolveBatch(ctx, req) })
}

// withOperator makes sure c's endpoint holds op, then sends a request that
// references it; an unknown_operator answer (the endpoint evicted it)
// forgets the acknowledgement, registers again and resends once.
func withOperator[R any](ctx context.Context, c *Client, op *PreparedOperator, send func() (R, error)) (R, error) {
	var zero R
	if err := c.EnsureOperator(ctx, op); err != nil {
		return zero, err
	}
	resp, err := send()
	if IsUnknownOperator(err) {
		c.forgetOperator(op.fp)
		if rerr := c.EnsureOperator(ctx, op); rerr != nil {
			return zero, rerr
		}
		return send()
	}
	return resp, err
}

// ListOperators fetches the endpoint's resident operators, MRU first.
func (c *Client) ListOperators(ctx context.Context) (*OperatorListResponse, error) {
	return roundTrip[OperatorListResponse](ctx, c, 0, http.MethodGet, "/v1/operators", nil)
}

// SubmitJob enqueues an asynchronous solve and returns its accepted (or
// deduplicated) status without waiting for the result.
func (c *Client) SubmitJob(ctx context.Context, req JobSubmitRequest) (*JobStatus, error) {
	return roundTrip[JobStatus](ctx, c, c.MaxRetries, http.MethodPost, "/v1/jobs", req)
}

// Job fetches one job's status. A positive wait long-polls: the server
// holds the request until the job is terminal or the window closes,
// answering with the current state either way.
func (c *Client) Job(ctx context.Context, id string, wait time.Duration) (*JobStatus, error) {
	path := "/v1/jobs/" + url.PathEscape(id)
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	return roundTrip[JobStatus](ctx, c, 0, http.MethodGet, path, nil)
}

// WaitJob long-polls until the job reaches a terminal state or ctx
// expires, re-issuing a bounded wait each round so intermediate proxies
// never see an unboundedly held request.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	for {
		st, err := c.Job(ctx, id, 30*time.Second)
		if err != nil {
			return nil, err
		}
		if jobs.State(st.State).Terminal() {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// CancelJob requests cancellation and returns the job's resulting
// status (terminal jobs come back unchanged; running ones report
// cancellation once their worker acknowledges).
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	return roundTrip[JobStatus](ctx, c, 0, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil)
}

// ListJobs fetches job statuses, optionally filtered by tenant and
// state, newest submissions first.
func (c *Client) ListJobs(ctx context.Context, tenant, state string) ([]JobStatus, error) {
	q := url.Values{}
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	if state != "" {
		q.Set("state", state)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	out, err := roundTrip[JobListResponse](ctx, c, 0, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// PeerStats fetches a node's federation view: identity, load, drain
// state, and which fingerprints its pool holds resident.
func (c *Client) PeerStats(ctx context.Context) (*PeerStatsResponse, error) {
	return roundTrip[PeerStatsResponse](ctx, c, 0, http.MethodGet, "/v1/peer/stats", nil)
}

// SolveBlock solves one block batch on a peer node — the wire form of
// core.BlockSession, used by the federation scatter-gather provider.
func (c *Client) SolveBlock(ctx context.Context, req BlockSolveRequest) (*BlockSolveResponse, error) {
	return roundTrip[BlockSolveResponse](ctx, c, 0, http.MethodPost, "/v1/peer/block", req)
}

// Readyz checks the daemon's readiness endpoint: nil only when the node
// is accepting new work (not draining, admission queue below bound).
func (c *Client) Readyz(ctx context.Context) error {
	_, err := c.get(c.traceCtx(ctx), "readyz")
	return err
}

// Healthz checks the daemon's health endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.get(ctx, "healthz")
	return err
}

// Metrics fetches the raw /metrics text (the smoke test scrapes it).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	raw, err := c.get(ctx, "metrics")
	return string(raw), err
}

// get fetches the plain endpoint /name and returns the body of a 200
// answer.
func (c *Client) get(ctx context.Context, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: %s status %d", name, resp.StatusCode)
	}
	return raw, nil
}
