package federation

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// Config wires one node's router.
type Config struct {
	// Self is this node's advertised address ("host:port" or URL) — its
	// identity in the rendezvous ring. Required when Peers is non-empty.
	Self string
	// Peers are the other nodes' advertised addresses.
	Peers []string
	// PollInterval is the membership refresh period (default 1s).
	PollInterval time.Duration
	// Disabled turns affinity off: requests route to a uniformly random
	// healthy member instead of the rendezvous owner. The measurement
	// baseline, and an escape hatch.
	Disabled bool
	// Seed fixes the random-route generator (benchmarks; zero seeds from
	// the clock).
	Seed int64
}

// Router is the federation front of one alad node: it intercepts the
// solve endpoints, picks the rendezvous owner of each request's
// fingerprint over the healthy member set, and either serves locally
// (this node is the target), forwards (a peer is), or falls back down
// the rendezvous ranking when the owner is unavailable. Forwarded
// requests carry X-Alad-Forwarded and are always served locally by the
// receiving node, so no request bounces twice. Every other endpoint
// passes through to the wrapped server untouched; /metrics gains a
// federation section.
type Router struct {
	cfg     Config
	server  *serve.Server
	members *Membership
	metrics *Metrics
	handler http.Handler

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewRouter wraps a server with federation routing and installs the
// scatter-gather provider so the node's decomposed solves can borrow
// peer chips. Start the membership poller with Start.
func NewRouter(cfg Config, s *serve.Server) *Router {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt := &Router{
		cfg:     cfg,
		server:  s,
		members: NewMembership(cfg.Self, cfg.Peers, cfg.PollInterval),
		metrics: NewMetrics(),
		rng:     rand.New(rand.NewSource(seed)),
	}
	s.SetDecompProvider(NewProvider(s.Pool().DecompProvider(), rt.members, rt.metrics))

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	mux.HandleFunc("POST /v1/solve/batch", rt.handleSolveBatch)
	mux.HandleFunc("PUT /v1/operators", rt.handleOperatorPut)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.Handle("/", s.Handler())
	rt.handler = mux
	return rt
}

// Handler is the node's HTTP surface with routing in front.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Members exposes the membership table (alad wiring, tests).
func (rt *Router) Members() *Membership { return rt.members }

// Metrics exposes the router metrics (tests, bench).
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Start launches the membership poller.
func (rt *Router) Start() { rt.members.Start() }

// Stop halts the membership poller.
func (rt *Router) Stop() { rt.members.Stop() }

// route decides where a fingerprint's solve should run: the target
// member, the route label (RouteLocal/Hit/Fallback/Random), and the
// failover candidates after the target (rendezvous order). With
// affinity disabled the target is a uniformly random healthy member.
func (rt *Router) route(fp uint64) (target, label string, next []string) {
	members := rt.members.Members()
	if rt.cfg.Disabled {
		rt.rngMu.Lock()
		target = members[rt.rng.Intn(len(members))]
		rt.rngMu.Unlock()
		return target, RouteRandom, nil
	}
	ranked := Rank(members, fp)
	for i, m := range ranked {
		if !rt.members.Available(m) {
			continue
		}
		label = RouteFallback
		if i == 0 {
			label = RouteHit
		}
		if m == rt.cfg.Self && i == 0 {
			label = RouteLocal
		}
		return m, label, ranked[i+1:]
	}
	// Nobody is available (every peer saturated or down): serve locally
	// rather than reject — local admission gives the honest 429.
	return rt.cfg.Self, RouteFallback, nil
}

// decode reads a request body through serve.ReadRequest and strictly
// decodes it into req (so gzip uploads work on routed endpoints exactly
// as on a standalone node), booking the wire bytes on the wrapped
// server's per-route histogram — routed requests bypass the server's own
// handlers. It returns the body, whose plain JSON a forward sends on
// unchanged; the caller releases it.
func (rt *Router) decode(w http.ResponseWriter, r *http.Request, route string, req any) (serve.Body, bool) {
	body, err := serve.ReadRequest(w, r, serve.MaxBodyBytes)
	rt.server.Metrics().ObserveRequestBytes(route, body.Wire)
	if err == nil {
		err = body.Decode(req)
	}
	if err != nil {
		body.Release()
		writeJSONStatus(w, http.StatusBadRequest, serve.ErrorResponse{Code: serve.CodeBadRequest, Error: "decoding request: " + err.Error()})
		return serve.Body{}, false
	}
	return body, true
}

// writeJSONStatus writes one JSON body and returns its byte count (for
// the response-size histograms; error paths ignore it).
func writeJSONStatus(w http.ResponseWriter, status int, v any) int {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return 0
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
	return len(data)
}

// writeClientErr translates a forward's client-side error into the same
// HTTP answer the peer gave (or a 502 for transport failures).
func writeClientErr(w http.ResponseWriter, err error) {
	var busy *serve.BusyError
	if errors.As(err, &busy) {
		w.Header().Set("Retry-After", strconv.Itoa(int((busy.RetryAfter+time.Second-1)/time.Second)))
		writeJSONStatus(w, http.StatusTooManyRequests, serve.ErrorResponse{Code: busy.Code, Error: busy.Error()})
		return
	}
	var remote *serve.RemoteError
	if errors.As(err, &remote) {
		writeJSONStatus(w, remote.StatusCode, serve.ErrorResponse{Code: remote.Code, Error: remote.Message})
		return
	}
	writeJSONStatus(w, http.StatusBadGateway, serve.ErrorResponse{Code: serve.CodeInternal, Error: err.Error()})
}

// retriable reports whether a forward failure should try the next
// candidate: transport errors and 5xx/429 answers mean the peer cannot
// serve right now; a 4xx answer would fail anywhere, so it surfaces.
func retriable(err error) bool {
	var remote *serve.RemoteError
	if errors.As(err, &remote) {
		return remote.StatusCode >= 500
	}
	return true // a 429 (*serve.BusyError) or a transport-level failure
}

// requestFingerprint resolves the routing fingerprint of one request: a
// by-reference solve's fingerprint parses straight off the wire —
// routing never touches a matrix body — and a by-value request (every
// registration) hashes its built matrix.
func requestFingerprint(ref string, build func() (*la.CSR, error)) (uint64, error) {
	if ref != "" {
		return serve.ParseFingerprint(ref)
	}
	a, err := build()
	if err != nil {
		return 0, err
	}
	return la.Fingerprint(a), nil
}

// endpoint is one routed route's part in serveRouted: how to fingerprint
// its request and serve it on this node. A peer serves it from the same
// method and path, sent the body bytes this node received.
type endpoint[Q, R any] struct {
	// route names the endpoint in the wrapped server's byte histograms.
	route       string
	fingerprint func(*Q) (uint64, error)
	local       func(context.Context, *Q) (*R, *serve.APIError)
	// stamp, if non-nil, records the route label on a solve's response;
	// the solve is then booked in the routing metrics.
	stamp func(*R, string)
}

// serveRouted is the one route-and-forward loop behind every routed
// endpoint: decode, fingerprint, route by rendezvous, then serve locally
// or forward the received body bytes, failing over down the ranking
// while a peer cannot serve. A request a peer already routed takes the
// loop's local branch at once — the loop guard — unstamped and unbooked
// in the routing metrics: the entry node stamps Affinity on the way
// back. Either way the one write at the end books the response bytes.
func serveRouted[Q, R any](rt *Router, w http.ResponseWriter, r *http.Request, ep endpoint[Q, R]) {
	var req Q
	body, ok := rt.decode(w, r, ep.route, &req)
	if !ok {
		return
	}
	defer body.Release()
	forwarded := r.Header.Get(serve.ForwardedHeader) != ""
	target, label, next := rt.cfg.Self, "", []string(nil)
	if !forwarded {
		fp, err := ep.fingerprint(&req)
		if err != nil {
			writeJSONStatus(w, http.StatusBadRequest, serve.ErrorResponse{Code: serve.CodeBadRequest, Error: err.Error()})
			return
		}
		target, label, next = rt.route(fp)
	}
	start := time.Now()
	for {
		var resp *R
		if target == rt.cfg.Self {
			var aerr *serve.APIError
			if resp, aerr = ep.local(r.Context(), &req); aerr != nil {
				rt.server.WriteAPIError(w, aerr)
				return
			}
		} else {
			resp = new(R)
			if err := rt.members.Client(target).Forward(r.Context(), r.Method, r.URL.Path, body.JSON, resp); err != nil {
				rt.metrics.ForwardError()
				// An unknown_operator answer is a 4xx and surfaces here:
				// only the client can re-register (it holds the matrix;
				// this router never saw more than the fingerprint).
				if !retriable(err) || r.Context().Err() != nil {
					writeClientErr(w, err)
					return
				}
				rt.members.MarkUnhealthy(target)
				target, label = rt.nextTarget(&next)
				continue
			}
		}
		if ep.stamp != nil && !forwarded {
			ep.stamp(resp, label)
			rt.metrics.Routed(label, time.Since(start))
		}
		rt.server.Metrics().ObserveResponseBytes(ep.route, int64(writeJSONStatus(w, http.StatusOK, resp)))
		return
	}
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	serveRouted(rt, w, r, endpoint[serve.SolveRequest, serve.SolveResponse]{
		route: "solve",
		fingerprint: func(req *serve.SolveRequest) (uint64, error) {
			return requestFingerprint(req.Fingerprint, func() (*la.CSR, error) {
				a, _, err := req.BuildSystem()
				return a, err
			})
		},
		local: rt.server.SolveDecoded,
		stamp: func(resp *serve.SolveResponse, label string) { resp.Affinity = label },
	})
}

func (rt *Router) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	serveRouted(rt, w, r, endpoint[serve.BatchSolveRequest, serve.BatchSolveResponse]{
		route: "solve_batch",
		fingerprint: func(req *serve.BatchSolveRequest) (uint64, error) {
			return requestFingerprint(req.Fingerprint, func() (*la.CSR, error) {
				a, _, err := req.BuildSystem()
				return a, err
			})
		},
		local: rt.server.SolveBatchDecoded,
		stamp: func(resp *serve.BatchSolveResponse, label string) { resp.Affinity = label },
	})
}

// handleOperatorPut routes a registration to the fingerprint's
// rendezvous owner, so the operator lands exactly where later
// by-reference solves for it will route. Forwarded registrations (and
// self-owned ones) register locally.
func (rt *Router) handleOperatorPut(w http.ResponseWriter, r *http.Request) {
	serveRouted(rt, w, r, endpoint[serve.OperatorRequest, serve.OperatorInfo]{
		route: "operators",
		fingerprint: func(req *serve.OperatorRequest) (uint64, error) {
			return requestFingerprint("", req.Build)
		},
		local: func(_ context.Context, req *serve.OperatorRequest) (*serve.OperatorInfo, *serve.APIError) {
			info, aerr := rt.server.RegisterOperatorDecoded(req)
			return &info, aerr
		},
	})
}

// nextTarget pops the first available failover candidate (fallback
// label), or self as the terminal resort.
func (rt *Router) nextTarget(next *[]string) (string, string) {
	for len(*next) > 0 {
		m := (*next)[0]
		*next = (*next)[1:]
		if m == rt.cfg.Self || rt.members.Available(m) {
			return m, RouteFallback
		}
	}
	return rt.cfg.Self, RouteFallback
}

// handleMetrics renders the wrapped server's /metrics and appends the
// federation section.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.server.Handler().ServeHTTP(w, r)
	pool := rt.server.Pool()
	var resident int
	for _, c := range pool.Stats() {
		resident += c.Cached
	}
	rt.metrics.writeTo(w, rt.cfg.Self, rt.members.Snapshot(), pool.CacheHits(), pool.CacheMisses(), resident)
}

// PollOnce forces one synchronous membership refresh (tests, smoke).
func (rt *Router) PollOnce(ctx context.Context) { rt.members.PollOnce(ctx) }
