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
// request fingerprint (parsed straight off a by-reference request,
// hashed from the built system otherwise), input order when the request
// doesn't parse (the server will reject it with a proper error).
func (m *MultiClient) order(req *serve.SolveRequest) []string {
	if len(m.endpoints) == 1 {
		return m.endpoints
	}
	fp, err := requestFingerprint(req.Fingerprint, func() (*la.CSR, error) {
		a, _, err := req.BuildSystem()
		return a, err
	})
	if err != nil {
		return m.endpoints
	}
	return Rank(m.endpoints, fp)
}

// Solve sends the request to the fingerprint's rendezvous owner among
// the configured endpoints, walking down the rank on retriable failures.
// It returns the response plus the endpoint that answered.
func (m *MultiClient) Solve(ctx context.Context, req serve.SolveRequest) (*serve.SolveResponse, string, error) {
	var lastErr error
	for _, ep := range m.order(&req) {
		resp, err := m.clients[ep].Solve(ctx, req)
		if err == nil {
			return resp, ep, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retriable(err) {
			return nil, ep, err
		}
	}
	return nil, "", lastErr
}

// SolveBatch is Solve's multi-RHS counterpart with the same endpoint
// ranking and failover walk.
func (m *MultiClient) SolveBatch(ctx context.Context, req serve.BatchSolveRequest) (*serve.BatchSolveResponse, string, error) {
	order := m.endpoints
	if len(m.endpoints) > 1 {
		if fp, err := requestFingerprint(req.Fingerprint, func() (*la.CSR, error) {
			a, _, err := req.BuildSystem()
			return a, err
		}); err == nil {
			order = Rank(m.endpoints, fp)
		}
	}
	var lastErr error
	for _, ep := range order {
		resp, err := m.clients[ep].SolveBatch(ctx, req)
		if err == nil {
			return resp, ep, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retriable(err) {
			return nil, ep, err
		}
	}
	return nil, "", lastErr
}

// SolveOperator solves by reference against the operator's rendezvous
// owner, registering on that endpoint first if this process hasn't yet
// (serve.Client caches acknowledgements per endpoint). Failover walks
// the rank like Solve; each endpoint's client re-registers as needed.
func (m *MultiClient) SolveOperator(ctx context.Context, op *serve.PreparedOperator, req serve.SolveRequest) (*serve.SolveResponse, string, error) {
	order := m.endpoints
	if len(m.endpoints) > 1 {
		order = Rank(m.endpoints, op.Fingerprint())
	}
	var lastErr error
	for _, ep := range order {
		resp, err := m.clients[ep].SolveOperator(ctx, op, req)
		if err == nil {
			return resp, ep, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retriable(err) {
			return nil, ep, err
		}
	}
	return nil, "", lastErr
}

// SolveBatchOperator is SolveOperator's multi-RHS counterpart.
func (m *MultiClient) SolveBatchOperator(ctx context.Context, op *serve.PreparedOperator, req serve.BatchSolveRequest) (*serve.BatchSolveResponse, string, error) {
	order := m.endpoints
	if len(m.endpoints) > 1 {
		order = Rank(m.endpoints, op.Fingerprint())
	}
	var lastErr error
	for _, ep := range order {
		resp, err := m.clients[ep].SolveBatchOperator(ctx, op, req)
		if err == nil {
			return resp, ep, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retriable(err) {
			return nil, ep, err
		}
	}
	return nil, "", lastErr
}
