package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// swapHandler lets the httptest listener start before the router exists
// (the router needs the listener's URL as its identity).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) Set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

type clusterNode struct {
	server  *serve.Server
	router  *Router
	ts      *httptest.Server
	client  *serve.Client
	handler *swapHandler
}

// newCluster starts n federated nodes with identical tiny pools. Every
// node's chips are built from the same seeds, so block results are
// bit-identical across nodes. Membership is refreshed synchronously —
// call pollAll after changing the cluster.
func newCluster(t *testing.T, n int, pool serve.PoolConfig, disabled bool) []*clusterNode {
	return newClusterWith(t, n, serve.Config{Pool: pool, JobWorkers: -1}, disabled)
}

// newClusterWith is newCluster with every node built from cfg (NodeName
// is set per node).
func newClusterWith(t *testing.T, n int, cfg serve.Config, disabled bool) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	handlers := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range nodes {
		cfg.NodeName = fmt.Sprintf("node%d", i)
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = &swapHandler{h: s.Handler()}
		ts := httptest.NewServer(handlers[i])
		nodes[i] = &clusterNode{server: s, ts: ts, client: serve.NewClient(ts.URL), handler: handlers[i]}
		urls[i] = ts.URL
	}
	for i, nd := range nodes {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nd.router = NewRouter(Config{
			Self:     urls[i],
			Peers:    peers,
			Disabled: disabled,
			Seed:     1,
		}, nd.server)
		handlers[i].Set(nd.router.Handler())
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
			nd.server.Close()
		}
	})
	pollAll(nodes)
	return nodes
}

func pollAll(nodes []*clusterNode) {
	for _, nd := range nodes {
		if nd.router != nil {
			nd.router.PollOnce(context.Background())
		}
	}
}

func testPool() serve.PoolConfig {
	return serve.PoolConfig{ChipsPerClass: 2, WarmSizes: []int{2}, MinClass: 2, MaxDim: 32}
}

// ownerIndex finds which node the fingerprint's affinity owner is.
func ownerIndex(t *testing.T, nodes []*clusterNode, req serve.SolveRequest) int {
	t.Helper()
	a, _, err := req.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	owner := Owner(memberURLs(nodes), la.Fingerprint(a))
	for i, nd := range nodes {
		if nd.ts.URL == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a cluster node", owner)
	return -1
}

func memberURLs(nodes []*clusterNode) []string {
	out := make([]string, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.ts.URL
	}
	return out
}

// The tentpole behavior: the same matrix entering through two different
// nodes is served by one node — the rendezvous owner — and the second
// solve is a session-cache warm hit on that node.
func TestFederationCrossNodeWarmHit(t *testing.T) {
	nodes := newCluster(t, 3, testPool(), false)
	ctx := context.Background()
	req := OperatorRequest(5, 8, 1e-8)
	owner := ownerIndex(t, nodes, req)

	entry1 := (owner + 1) % 3
	entry2 := (owner + 2) % 3
	resp1, err := nodes[entry1].client.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantNode := fmt.Sprintf("node%d", owner)
	if resp1.ServedBy != wantNode {
		t.Fatalf("first solve served by %q, want owner %q", resp1.ServedBy, wantNode)
	}
	if resp1.Affinity != RouteHit {
		t.Fatalf("first solve affinity %q, want %q (entry %d is not the owner)", resp1.Affinity, RouteHit, entry1)
	}
	hitsBefore := nodes[owner].server.Pool().CacheHits()

	resp2, err := nodes[entry2].client.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ServedBy != wantNode {
		t.Fatalf("second solve served by %q, want owner %q", resp2.ServedBy, wantNode)
	}
	if resp2.Affinity != RouteHit {
		t.Fatalf("second solve affinity %q, want %q", resp2.Affinity, RouteHit)
	}
	if hits := nodes[owner].server.Pool().CacheHits(); hits != hitsBefore+1 {
		t.Fatalf("owner cache hits %d → %d, want a warm adoption on the second solve", hitsBefore, hits)
	}
	// The entry node served nothing itself.
	for _, i := range []int{entry1, entry2} {
		if hits := nodes[i].server.Pool().CacheHits() + nodes[i].server.Pool().CacheMisses(); hits != 0 {
			t.Fatalf("entry node %d pool saw traffic (%d checkouts); all solves belong on the owner", i, hits)
		}
	}

	// Entering through the owner itself labels local.
	resp3, err := nodes[owner].client.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Affinity != RouteLocal || resp3.ServedBy != wantNode {
		t.Fatalf("owner-entry solve: affinity %q served_by %q, want local/%s", resp3.Affinity, resp3.ServedBy, wantNode)
	}
}

// With affinity disabled, routing is load-blind random: distinct
// operators spread over several nodes and responses are labelled
// random. (The measurement baseline for the affinity win.)
func TestFederationDisabledRoutesRandomly(t *testing.T) {
	nodes := newCluster(t, 3, testPool(), true)
	ctx := context.Background()
	served := map[string]bool{}
	for op := 0; op < 12; op++ {
		resp, err := nodes[0].client.Solve(ctx, OperatorRequest(op, 8, 1e-8))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Affinity != RouteRandom {
			t.Fatalf("op %d affinity %q, want %q", op, resp.Affinity, RouteRandom)
		}
		served[resp.ServedBy] = true
	}
	if len(served) < 2 {
		t.Fatalf("12 random-routed solves all landed on %v; want spread", served)
	}
}

// Health-gated failover: kill the affinity owner and the same request
// re-routes to the next-ranked node, labelled fallback.
func TestFederationFailoverOnDeadOwner(t *testing.T) {
	nodes := newCluster(t, 3, testPool(), false)
	ctx := context.Background()
	req := OperatorRequest(9, 8, 1e-8)
	owner := ownerIndex(t, nodes, req)
	entry := (owner + 1) % 3

	if _, err := nodes[entry].client.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Kill the owner (listener down, like a SIGKILL'd process).
	nodes[owner].ts.Close()

	// The next solve's forward fails, marks the owner unhealthy, and
	// falls back in the same request.
	resp, err := nodes[entry].client.Solve(ctx, req)
	if err != nil {
		t.Fatalf("solve after owner death: %v", err)
	}
	if resp.Affinity != RouteFallback {
		t.Fatalf("affinity %q after owner death, want %q", resp.Affinity, RouteFallback)
	}
	if resp.ServedBy == fmt.Sprintf("node%d", owner) {
		t.Fatalf("served by the dead owner %q", resp.ServedBy)
	}
	_, _, fallback, _, ferrs := nodes[entry].router.Metrics().Counts()
	if fallback == 0 || ferrs == 0 {
		t.Fatalf("fallback=%d forwardErrors=%d, want both > 0", fallback, ferrs)
	}

	// After a poll the owner is gone from membership entirely and the
	// re-route is the new steady state.
	pollAll([]*clusterNode{nodes[entry]})
	resp2, err := nodes[entry].client.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ServedBy == fmt.Sprintf("node%d", owner) {
		t.Fatalf("served by the dead owner after re-poll")
	}
}

// A draining node reports unready and stops being a routing target,
// while staying alive for liveness probes.
func TestMembershipGatesOnDrainAndSaturation(t *testing.T) {
	// Hand-rolled peer: readyz 200, stats with a saturated queue.
	depth := 60
	draining := false
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if draining {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/peer/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"node":"fake","queue_depth":%d,"queue_bound":64,"draining":%v}`, depth, draining)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	m := NewMembership("self", []string{ts.URL}, 50*time.Millisecond)
	ctx := context.Background()

	m.PollOnce(ctx)
	if m.Available(ts.URL) {
		t.Fatal("peer at 60/64 queue depth counted available (saturation gate missed)")
	}
	members := m.Members()
	if len(members) != 2 {
		t.Fatalf("saturated peer left membership: %v (should stay a member, just ineligible)", members)
	}

	depth = 3
	m.PollOnce(ctx)
	if !m.Available(ts.URL) {
		t.Fatal("healthy low-load peer not available")
	}

	draining = true
	m.PollOnce(ctx)
	if m.Available(ts.URL) {
		t.Fatal("draining peer counted available")
	}

	m.MarkUnhealthy(ts.URL)
	if got := m.Members(); len(got) != 1 || got[0] != "self" {
		t.Fatalf("marked-unhealthy peer still a member: %v", got)
	}
}

// The server's readiness split: /healthz stays green through a drain,
// /readyz flips 503.
func TestReadyzReflectsDrain(t *testing.T) {
	s, err := serve.New(serve.Config{Pool: testPool(), JobWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := serve.NewClient(ts.URL)
	ctx := context.Background()

	if err := cl.Readyz(ctx); err != nil {
		t.Fatalf("fresh server unready: %v", err)
	}
	s.SetDraining(true)
	if err := cl.Readyz(ctx); err == nil {
		t.Fatal("draining server reported ready")
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("draining server failed liveness: %v", err)
	}
}

// The peer block endpoint is a wire BlockSession: repeated calls for the
// same matrix adopt the resident programming (configs drop to zero).
func TestPeerBlockEndpointResidency(t *testing.T) {
	s, err := serve.New(serve.Config{Pool: testPool(), JobWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := serve.NewClient(ts.URL)
	ctx := context.Background()

	req := serve.BlockSolveRequest{
		N: 4,
		A: []serve.Entry{
			{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: -1},
			{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 4}, {Row: 1, Col: 2, Val: -1},
			{Row: 2, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: 4}, {Row: 2, Col: 3, Val: -1},
			{Row: 3, Col: 2, Val: -1}, {Row: 3, Col: 3, Val: 4},
		},
		Items: []serve.BlockWireItem{
			{RHS: []float64{1, 2, 3, 4}},
			{RHS: []float64{4, 3, 2, 1}},
		},
		Opt: serve.BlockOptions{Tolerance: 1e-9},
	}
	resp1, err := cl.SolveBlock(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp1.Results) != 2 {
		t.Fatalf("results: %d", len(resp1.Results))
	}
	if resp1.Configs == 0 {
		t.Fatal("first block solve reported zero matrix configurations")
	}
	// Verify against the digital residual.
	a, _, err := (&serve.SolveRequest{N: req.N, A: req.A, B: req.Items[0].RHS}).BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	for k, item := range req.Items {
		r := la.RelativeResidual(a, la.Vector(resp1.Results[k].U), la.Vector(item.RHS))
		if r > 1e-8 {
			t.Fatalf("item %d residual %v", k, r)
		}
	}

	resp2, err := cl.SolveBlock(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Configs != 0 {
		t.Fatalf("second block solve reprogrammed the matrix (%d configs); the session cache should adopt it", resp2.Configs)
	}
}

// Scatter-gather: an oversized solve on a 1-chip node borrows peer
// chips, and its answer is bit-identical to the same solve on a
// standalone node (the engine is worker-count independent and every
// node's chips share seeds).
func TestFederationScatterGatherBitIdentical(t *testing.T) {
	pool := serve.PoolConfig{ChipsPerClass: 1, WarmSizes: []int{2}, MinClass: 2, MaxDim: 16}
	req := serve.SolveRequest{N: 48, Tol: 1e-8}
	for i := 0; i < 48; i++ {
		req.A = append(req.A, serve.Entry{Row: i, Col: i, Val: 4})
		if i > 0 {
			req.A = append(req.A, serve.Entry{Row: i, Col: i - 1, Val: -1})
		}
		if i < 47 {
			req.A = append(req.A, serve.Entry{Row: i, Col: i + 1, Val: -1})
		}
		req.B = append(req.B, 1+float64(i%5))
	}

	// Baseline: standalone node, same pool shape, local decomposition.
	base, err := serve.New(serve.Config{Pool: pool, NodeName: "solo", JobWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	bts := httptest.NewServer(base.Handler())
	defer bts.Close()
	ctx := context.Background()
	baseResp, err := serve.NewClient(bts.URL).Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if baseResp.Decompose == nil {
		t.Fatal("baseline did not decompose")
	}

	// Federated: 3 nodes, each with the same 1-chip pool.
	nodes := newCluster(t, 3, pool, false)
	owner := ownerIndex(t, nodes, req)
	entry := (owner + 1) % 3
	fedResp, err := nodes[entry].client.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fedResp.Decompose == nil {
		t.Fatal("federated solve did not decompose")
	}
	if fedResp.Decompose.Chips < 2 {
		t.Fatalf("federated solve used %d chips; want peers lending lanes", fedResp.Decompose.Chips)
	}
	var scattered int64
	for _, nd := range nodes {
		scattered += nd.router.Metrics().blockOut.Load()
	}
	if scattered == 0 {
		t.Fatal("no block batches were scattered to peers")
	}
	if len(fedResp.U) != len(baseResp.U) {
		t.Fatalf("length mismatch %d vs %d", len(fedResp.U), len(baseResp.U))
	}
	for i := range fedResp.U {
		if fedResp.U[i] != baseResp.U[i] {
			t.Fatalf("u[%d]: federated %v != standalone %v (bit-identity broken)", i, fedResp.U[i], baseResp.U[i])
		}
	}
}

// A non-owner forwards the body bytes it received, unchanged, rather
// than encoding its decoded copy again: a by-value solve and a
// registration sent indented (which any re-encoding would compact) reach
// the owner byte for byte, and the forwarded solve's answer is
// bit-identical to the same solve sent to the owner directly.
func TestRouterForwardsReceivedBytes(t *testing.T) {
	nodes := newCluster(t, 2, testPool(), false)
	req := OperatorRequest(4, 8, 1e-8)
	owner := ownerIndex(t, nodes, req)
	entry := nodes[1-owner]

	var (
		mu       sync.Mutex
		received [][]byte // bodies the owner received as forwards
	)
	inner := nodes[owner].router.Handler()
	nodes[owner].handler.Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(serve.ForwardedHeader) != "" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			received = append(received, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	post := func(method, path string, v, out any) []byte {
		t.Helper()
		body, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(method, entry.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(received) != 1 || !bytes.Equal(received[0], body) {
			t.Fatalf("%s %s: the owner received %d forwards %q, want the %d bytes sent to the entry node", method, path, len(received), received, len(body))
		}
		received = nil
		return body
	}

	var forwarded serve.SolveResponse
	post(http.MethodPost, "/v1/solve", req, &forwarded)
	wantNode := fmt.Sprintf("node%d", owner)
	if forwarded.ServedBy != wantNode || forwarded.Affinity != RouteHit {
		t.Fatalf("solve served by %q with affinity %q, want the owner %q and %q", forwarded.ServedBy, forwarded.Affinity, wantNode, RouteHit)
	}
	direct, err := nodes[owner].client.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.U) != len(forwarded.U) {
		t.Fatalf("direct solve answered %d values, forwarded %d", len(direct.U), len(forwarded.U))
	}
	for i := range direct.U {
		if math.Float64bits(direct.U[i]) != math.Float64bits(forwarded.U[i]) {
			t.Fatalf("u[%d]: forwarded %v, direct on the owner %v", i, forwarded.U[i], direct.U[i])
		}
	}

	var info serve.OperatorInfo
	post(http.MethodPut, "/v1/operators", serve.OperatorRequest{N: req.N, A: req.A}, &info)
	if info.ServedBy != wantNode {
		t.Fatalf("registration served by %q, want the owner %q", info.ServedBy, wantNode)
	}
}
