package federation

import (
	"context"
	"strconv"
	"sync"
	"time"

	"analogacc/internal/serve"
)

// Membership is the router's live view of the cluster: one entry per
// peer address, refreshed by polling /readyz and /v1/peer/stats on an
// interval. A peer that fails either poll (or a forward) is unhealthy
// until a poll succeeds again; a peer whose admission queue is past the
// saturation fraction (or draining) stays a member but stops being an
// eligible routing target, which is what degrades affinity routing to
// the next-ranked node instead of piling work on a hot one.
type Membership struct {
	self     string
	interval time.Duration
	satFrac  float64

	mu    sync.Mutex
	peers map[string]*peerState

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type peerState struct {
	addr   string
	client *serve.Client

	mu         sync.Mutex
	healthy    bool
	draining   bool
	queueDepth int
	queueBound int
	extraLanes int64 // in-flight solves holding no admission slot (job waves)
	nResident  int   // distinct fingerprints the last stats poll advertised
	cacheHits  int64
	cacheMiss  int64
	node       string // advertised identity, when the peer reports one
}

// PeerInfo is one peer's polled state, for metrics and tests.
type PeerInfo struct {
	Addr       string
	Node       string
	Healthy    bool
	Draining   bool
	QueueDepth int
	QueueBound int
	ExtraLanes int64
	Resident   int
	CacheHits  int64
	CacheMiss  int64
}

// NewMembership builds the peer table. self is this node's advertised
// address (always a member, never polled — local state is read
// directly); peerAddrs are the other nodes. satFrac is the queue-depth
// fraction past which a peer counts saturated (0 defaults to 0.75).
func NewMembership(self string, peerAddrs []string, interval time.Duration, satFrac float64) *Membership {
	if interval <= 0 {
		interval = time.Second
	}
	if satFrac <= 0 {
		satFrac = 0.75
	}
	m := &Membership{
		self:     self,
		interval: interval,
		satFrac:  satFrac,
		peers:    make(map[string]*peerState),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, addr := range peerAddrs {
		if addr == "" || addr == self {
			continue
		}
		cl := serve.NewClient(addr)
		cl.Forwarded = true
		m.peers[addr] = &peerState{addr: addr, client: cl}
	}
	return m
}

// Start launches the poll loop (one immediate sweep, then every
// interval). Stop with Stop.
func (m *Membership) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		m.PollOnce(context.Background())
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.PollOnce(context.Background())
			}
		}
	}()
}

// Stop halts the poll loop and waits for it to exit.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// PollOnce refreshes every peer concurrently: /readyz gates health,
// /v1/peer/stats fills residency and load. Exposed so tests and the
// smoke gauntlet can force a deterministic refresh instead of sleeping
// through a ticker.
func (m *Membership) PollOnce(ctx context.Context) {
	m.mu.Lock()
	states := make([]*peerState, 0, len(m.peers))
	for _, ps := range m.peers {
		states = append(states, ps)
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, ps := range states {
		wg.Add(1)
		go func(ps *peerState) {
			defer wg.Done()
			ps.poll(ctx, m.interval)
		}(ps)
	}
	wg.Wait()
}

func (ps *peerState) poll(ctx context.Context, interval time.Duration) {
	// Each probe gets at most one poll interval so a hung peer cannot
	// stall the sweep past the next tick.
	cctx, cancel := context.WithTimeout(ctx, interval)
	defer cancel()
	ready := ps.client.Readyz(cctx) == nil
	stats, serr := ps.client.PeerStats(cctx)

	ps.mu.Lock()
	defer ps.mu.Unlock()
	// Liveness is the stats round trip: a saturated node still answers
	// stats, and we want its residency view even while not routing to it.
	ps.healthy = serr == nil
	if serr != nil {
		ps.draining = false
		ps.queueDepth, ps.queueBound = 0, 0
		ps.nResident = 0
		return
	}
	ps.draining = stats.Draining || !ready
	ps.queueDepth, ps.queueBound = stats.QueueDepth, stats.QueueBound
	ps.extraLanes = stats.ExtraLanes
	ps.cacheHits, ps.cacheMiss = stats.CacheHits, stats.CacheMiss
	ps.node = stats.Node
	res := make(map[uint64]struct{}, len(stats.Resident))
	for _, r := range stats.Resident {
		if fp, err := strconv.ParseUint(r.FP, 16, 64); err == nil {
			res[fp] = struct{}{}
		}
	}
	ps.nResident = len(res)
}

// MarkUnhealthy drops a peer from routing immediately (a forward just
// failed); the next successful poll readmits it.
func (m *Membership) MarkUnhealthy(addr string) {
	m.mu.Lock()
	ps := m.peers[addr]
	m.mu.Unlock()
	if ps == nil {
		return
	}
	ps.mu.Lock()
	ps.healthy = false
	ps.mu.Unlock()
}

// Members returns every healthy member including self, sorted order not
// guaranteed. This is the HRW candidate set: saturation does not remove
// a node here (its keys should not migrate just because it is busy) —
// eligibility is checked per-route with Available.
func (m *Membership) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{m.self}
	for addr, ps := range m.peers {
		ps.mu.Lock()
		ok := ps.healthy
		ps.mu.Unlock()
		if ok {
			out = append(out, addr)
		}
	}
	return out
}

// Available reports whether addr can take new work right now: self is
// always available (local admission applies its own backpressure);
// peers must be healthy, not draining, and below the saturation
// fraction of their admission queue.
func (m *Membership) Available(addr string) bool {
	if addr == m.self {
		return true
	}
	m.mu.Lock()
	ps := m.peers[addr]
	m.mu.Unlock()
	if ps == nil {
		return false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.healthy || ps.draining {
		return false
	}
	// Coalesced job waves solve without holding admission slots, so the
	// advertised extra lanes are added in: saturation gating must see the
	// chips' true load, not just the HTTP queue.
	load := float64(ps.queueDepth) + float64(ps.extraLanes)
	if ps.queueBound > 0 && load >= m.satFrac*float64(ps.queueBound) {
		return false
	}
	return true
}

// Client returns the peer's client (nil for self or unknown addresses).
func (m *Membership) Client(addr string) *serve.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps := m.peers[addr]; ps != nil {
		return ps.client
	}
	return nil
}

// Snapshot returns every peer's polled state (metrics, tests).
func (m *Membership) Snapshot() []PeerInfo {
	m.mu.Lock()
	states := make([]*peerState, 0, len(m.peers))
	for _, ps := range m.peers {
		states = append(states, ps)
	}
	m.mu.Unlock()
	out := make([]PeerInfo, 0, len(states))
	for _, ps := range states {
		ps.mu.Lock()
		out = append(out, PeerInfo{
			Addr:       ps.addr,
			Node:       ps.node,
			Healthy:    ps.healthy,
			Draining:   ps.draining,
			QueueDepth: ps.queueDepth,
			QueueBound: ps.queueBound,
			ExtraLanes: ps.extraLanes,
			Resident:   ps.nResident,
			CacheHits:  ps.cacheHits,
			CacheMiss:  ps.cacheMiss,
		})
		ps.mu.Unlock()
	}
	return out
}
