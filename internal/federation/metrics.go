package federation

import (
	"io"
	"sort"
	"time"

	"analogacc/internal/metric"
)

// Metrics is the router tier's observability: where requests were routed
// (local / affinity hit forward / fallback forward / random), forward
// failures, a routed-request latency histogram labelled by route class,
// and — aggregated from the last membership poll plus the local pool —
// the cluster-wide session-cache hit rate and per-node residency gauges.
// Rendered as a Prometheus text section the router appends to the
// node's /metrics.
type Metrics struct {
	errors   metric.Counter // forwards that failed (peer marked unhealthy)
	blockOut metric.Counter // block batches scattered to peers
	blockIn  metric.Counter // block items in those batches

	// routed is one latency histogram per route class; its counts are the
	// routed totals. Tail latency of a forwarded request vs a local one is
	// the routing tax made visible.
	routed *metric.HistogramVec
}

// Route labels, also stamped into SolveResponse.Affinity.
const (
	RouteLocal    = "local"
	RouteHit      = "hit"
	RouteFallback = "fallback"
	RouteRandom   = "random"
)

var routes = []string{RouteLocal, RouteHit, RouteFallback, RouteRandom}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	return &Metrics{routed: metric.NewHistogramVec("route", routes, metric.LatencyBounds...)}
}

// Routed records one routed request's class and latency.
func (m *Metrics) Routed(route string, d time.Duration) {
	if h := m.routed.With(route); h != nil {
		h.ObserveDuration(d)
	}
}

// ForwardError records a forward that failed over to the next candidate.
func (m *Metrics) ForwardError() { m.errors.Inc() }

// BlockScatter records one block batch shipped to a peer.
func (m *Metrics) BlockScatter(items int) {
	m.blockOut.Inc()
	m.blockIn.Add(int64(items))
}

// Counts returns the per-route totals (tests, bench reporting).
func (m *Metrics) Counts() (local, hit, fallback, random, errors int64) {
	return m.routed.With(RouteLocal).Count(), m.routed.With(RouteHit).Count(),
		m.routed.With(RouteFallback).Count(), m.routed.With(RouteRandom).Count(), m.errors.Load()
}

// writeTo renders the federation section of /metrics. peers is the
// membership snapshot; localHits/localMisses/localResident come from the
// node's own pool so the cluster aggregate covers all members.
func (m *Metrics) writeTo(out io.Writer, self string, peers []PeerInfo, localHits, localMisses int64, localResident int) {
	w := metric.NewWriter(out)
	routed := make([]metric.Series, len(routes))
	for i, r := range routes {
		routed[i] = metric.Series{Label: r, Value: float64(m.routed.With(r).Count())}
	}
	w.CounterVec("alad_fed_routed_total", "Requests this node routed, by route class (local owner, hit forward to the owner, fallback, random).", "route", routed...)
	w.Counter("alad_fed_forward_errors_total", "Forwards that failed over to the next candidate.", float64(m.errors.Load()))
	w.Counter("alad_fed_block_batches_total", "Decomposed block batches scattered to peers.", float64(m.blockOut.Load()))
	w.Counter("alad_fed_block_items_total", "Blocks in the batches scattered to peers.", float64(m.blockIn.Load()))

	// Membership and per-node residency, self included (queue depth is
	// polled from peers only).
	healthy := []metric.Series{{Label: self, Value: 1}}
	resident := []metric.Series{{Label: self, Value: float64(localResident)}}
	var queue []metric.Series
	hits, misses, nodes := localHits, localMisses, 1
	ordered := append([]PeerInfo(nil), peers...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Addr < ordered[j].Addr })
	for _, p := range ordered {
		up := 0.0
		if p.Healthy {
			up = 1
			hits += p.CacheHits
			misses += p.CacheMiss
			nodes++
		}
		healthy = append(healthy, metric.Series{Label: p.Addr, Value: up})
		resident = append(resident, metric.Series{Label: p.Addr, Value: float64(p.Resident)})
		queue = append(queue, metric.Series{Label: p.Addr, Value: float64(p.QueueDepth)})
	}
	w.GaugeVec("alad_fed_member_healthy", "1 if the member passed its last membership poll, else 0.", "node", healthy...)
	w.GaugeVec("alad_fed_member_resident", "Matrices resident in the member's session cache.", "node", resident...)
	w.GaugeVec("alad_fed_member_queue_depth", "Peer admission queue depth at the last poll.", "node", queue...)
	w.Counter("alad_fed_cluster_cache_hits_total", "Session-cache hits summed over this node and its healthy peers.", float64(hits))
	w.Counter("alad_fed_cluster_cache_misses_total", "Session-cache misses summed over this node and its healthy peers.", float64(misses))
	rate := 0.0
	if t := hits + misses; t > 0 {
		rate = float64(hits) / float64(t)
	}
	w.Gauge("alad_fed_cluster_cache_hit_rate", "Cluster session-cache hits / (hits + misses), 0 before any traffic.", rate)
	w.Gauge("alad_fed_cluster_nodes", "Members in the cluster aggregate: this node plus its healthy peers.", float64(nodes))
	w.HistogramVec("alad_fed_request_seconds", "Wall time of routed requests, by route class.", m.routed)
}
