package federation

import (
	"context"
	"fmt"
	"strings"

	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// MultiClient is the client-side half of fingerprint affinity: it holds
// one serve.Client per cluster entry point and sends each solve to the
// rendezvous owner of the request's fingerprint first, falling back down
// the rank (and finally across the remaining endpoints) on failure. When
// the caller's endpoint list matches the nodes' advertised URLs this
// lands the request directly on the resident node with no forwarding
// hop; when it doesn't, the receiving router forwards and the request
// still ends up in the right place — client-side ranking is an
// optimization, not a correctness requirement.
type MultiClient struct {
	endpoints []string
	clients   map[string]*serve.Client
}

// NormalizeURL gives bare host:port addresses an http scheme and strips
// a trailing slash so endpoint strings compare equal to advertised node
// identities no matter how the user spelled them.
func NormalizeURL(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// SplitEndpoints parses a comma-separated endpoint list flag.
func SplitEndpoints(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if u := NormalizeURL(f); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// NewMultiClient builds one client per endpoint; configure (optional)
// runs on each, for MaxRetries/Tenant and friends.
func NewMultiClient(addrs []string, configure func(*serve.Client)) (*MultiClient, error) {
	m := &MultiClient{clients: make(map[string]*serve.Client)}
	for _, a := range addrs {
		u := NormalizeURL(a)
		if u == "" {
			continue
		}
		if _, dup := m.clients[u]; dup {
			continue
		}
		c := serve.NewClient(u)
		if configure != nil {
			configure(c)
		}
		m.endpoints = append(m.endpoints, u)
		m.clients[u] = c
	}
	if len(m.endpoints) == 0 {
		return nil, fmt.Errorf("federation: no endpoints")
	}
	return m, nil
}

// Endpoints returns the normalized endpoint list in input order.
func (m *MultiClient) Endpoints() []string {
	return append([]string(nil), m.endpoints...)
}

// order ranks the endpoints for one request: rendezvous order on the
// request fingerprint (ref parsed, for a by-reference request, or the
// hash of the matrix build makes), input order when the request doesn't
// parse (the server will reject it with a proper error).
func (m *MultiClient) order(ref string, build func() (*la.CSR, error)) []string {
	if len(m.endpoints) == 1 {
		return m.endpoints
	}
	fp, err := requestFingerprint(ref, build)
	if err != nil {
		return m.endpoints
	}
	return Rank(m.endpoints, fp)
}

// failover sends one request down the ranked endpoints, moving on past
// retriable failures. It returns the response plus the endpoint that
// answered.
func failover[R any](ctx context.Context, m *MultiClient, order []string, send func(*serve.Client) (R, error)) (R, string, error) {
	var zero R
	var lastErr error
	for _, ep := range order {
		resp, err := send(m.clients[ep])
		if err == nil {
			return resp, ep, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retriable(err) {
			return zero, ep, err
		}
	}
	return zero, "", lastErr
}

// Solve sends the request to the fingerprint's rendezvous owner among
// the configured endpoints, walking down the rank on retriable failures.
// It returns the response plus the endpoint that answered.
func (m *MultiClient) Solve(ctx context.Context, req serve.SolveRequest) (*serve.SolveResponse, string, error) {
	order := m.order(req.Fingerprint, func() (*la.CSR, error) {
		a, _, err := req.BuildSystem()
		return a, err
	})
	return failover(ctx, m, order, func(c *serve.Client) (*serve.SolveResponse, error) { return c.Solve(ctx, req) })
}

// SolveBatch is Solve's multi-RHS counterpart with the same endpoint
// ranking and failover walk.
func (m *MultiClient) SolveBatch(ctx context.Context, req serve.BatchSolveRequest) (*serve.BatchSolveResponse, string, error) {
	order := m.order(req.Fingerprint, func() (*la.CSR, error) {
		a, _, err := req.BuildSystem()
		return a, err
	})
	return failover(ctx, m, order, func(c *serve.Client) (*serve.BatchSolveResponse, error) { return c.SolveBatch(ctx, req) })
}

// SolveOperator solves by reference against the operator's rendezvous
// owner, registering on that endpoint first if this process hasn't yet
// (serve.Client caches acknowledgements per endpoint). Failover walks
// the rank like Solve; each endpoint's client re-registers as needed.
func (m *MultiClient) SolveOperator(ctx context.Context, op *serve.PreparedOperator, req serve.SolveRequest) (*serve.SolveResponse, string, error) {
	return failover(ctx, m, Rank(m.endpoints, op.Fingerprint()), func(c *serve.Client) (*serve.SolveResponse, error) {
		return c.SolveOperator(ctx, op, req)
	})
}

// SolveBatchOperator is SolveOperator's multi-RHS counterpart.
func (m *MultiClient) SolveBatchOperator(ctx context.Context, op *serve.PreparedOperator, req serve.BatchSolveRequest) (*serve.BatchSolveResponse, string, error) {
	return failover(ctx, m, Rank(m.endpoints, op.Fingerprint()), func(c *serve.Client) (*serve.BatchSolveResponse, error) {
		return c.SolveBatchOperator(ctx, op, req)
	})
}
