package serve

import (
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"analogacc/internal/jobs"
	"analogacc/internal/metric"
)

// Metrics is the daemon's observability surface: counters and gauges for
// admission, solving, and analog cost, plus latency, wave and wire-size
// histograms. writeTo renders everything, with a HELP line per family,
// as the serve section of GET /metrics.
type Metrics struct {
	start time.Time

	// Admission: 429s, and the requests executing now (chip wait
	// included).
	rejected metric.Counter
	inFlight atomic.Int64

	// Outcomes.
	deadlineExceeded metric.Counter
	solveErrors      metric.Counter

	// Analog cost accumulators.
	runs        metric.Counter
	rescales    metric.Counter
	overflows   metric.Counter
	refinements metric.Counter

	// Decomposed-solve accumulators: fan-out volume and the pinned-session
	// economy (reuse hits vs. full matrix configurations).
	decomposed      metric.Counter
	decompBlocks    metric.Counter
	decompSweeps    metric.Counter
	decompConfigs   metric.Counter
	decompReuseHits metric.Counter

	// Batch-solve volume: right-hand sides arriving through /v1/solve/batch.
	batchRHS metric.Counter

	mu            sync.Mutex
	solves        map[string]int64 // by backend
	analogSeconds float64

	// Request latency, decomposed outer sweeps and registry PUTs share
	// the latency buckets.
	latency  *metric.Histogram
	sweep    *metric.Histogram
	register *metric.Histogram

	// ewmaUs is an exponentially-weighted moving average of request
	// latency (microseconds, α=1/5): the "typical recent service time"
	// behind the adaptive Retry-After hint. An EWMA over a plain mean
	// because backpressure should track the current regime, not the
	// process-lifetime history.
	ewmaUs atomic.Int64

	// Coalescer traffic. coalescedReqs counts requests that shared a wave
	// with at least one companion. The occupancy histogram (lanes per
	// wave) says how full waves run; the wait histogram is the latency
	// the coalescer added to each member (enrollment → wave launch: the
	// checkout stall and the boarding debounce).
	coalescedReqs metric.Counter
	waveLanes     *metric.Histogram
	coalesceWait  *metric.Histogram

	// detachedLanes gauges in-flight solves holding no admission slot
	// (async-job executions): queue depth alone understates load when the
	// job queue drains waves, so federation peer stats add this in and
	// saturation gating sees job-driven wave load.
	detachedLanes atomic.Int64

	// Wire sizes per route; they make the by-reference byte win
	// observable on /metrics, not just in BENCH_9.
	reqBytes  *metric.HistogramVec
	respBytes *metric.HistogramVec
}

// byteRoutes are the labeled wire paths, fixed at build time.
var byteRoutes = []string{"solve", "solve_batch", "operators", "jobs", "peer_block"}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	byteBounds := []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}
	return &Metrics{
		start:        time.Now(),
		solves:       make(map[string]int64),
		latency:      metric.NewHistogram(metric.LatencyBounds...),
		sweep:        metric.NewHistogram(metric.LatencyBounds...),
		register:     metric.NewHistogram(metric.LatencyBounds...),
		waveLanes:    metric.NewHistogram(1, 2, 4, 8, 16),
		coalesceWait: metric.NewHistogram(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025),
		reqBytes:     metric.NewHistogramVec("route", byteRoutes, byteBounds...),
		respBytes:    metric.NewHistogramVec("route", byteRoutes, byteBounds...),
	}
}

// ObserveRequestBytes records one request body's wire size (compressed,
// when the upload was gzipped — it measures bytes moved, not bytes
// parsed). Unknown routes are dropped rather than grown.
func (m *Metrics) ObserveRequestBytes(route string, n int64) {
	if h := m.reqBytes.With(route); h != nil {
		h.Observe(float64(n))
	}
}

// ObserveResponseBytes records one response body's wire size.
func (m *Metrics) ObserveResponseBytes(route string, n int64) {
	if h := m.respBytes.With(route); h != nil {
		h.Observe(float64(n))
	}
}

// RequestBytes reads one route's request-byte total and observation count
// (tests, BENCH_9 assertions).
func (m *Metrics) RequestBytes(route string) (sum, count int64) {
	if h := m.reqBytes.With(route); h != nil {
		return int64(h.Sum()), h.Count()
	}
	return 0, 0
}

// SolveOK records a completed solve and its analog cost.
func (m *Metrics) SolveOK(backend string, analogSeconds float64, runs, rescales, overflows, refinements int) {
	m.runs.Add(int64(runs))
	m.rescales.Add(int64(rescales))
	m.overflows.Add(int64(overflows))
	m.refinements.Add(int64(refinements))
	m.mu.Lock()
	m.solves[backend]++
	m.analogSeconds += analogSeconds
	m.mu.Unlock()
}

// ObserveLatency records one request's wall-clock solve latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.latency.ObserveDuration(d)
	// Lossy-on-race CAS update is fine: the EWMA is a hint, not a ledger.
	us := d.Microseconds()
	for {
		old := m.ewmaUs.Load()
		next := us
		if old > 0 {
			next = old + (us-old)/5
		}
		if m.ewmaUs.CompareAndSwap(old, next) {
			return
		}
	}
}

// AvgServiceTime is the moving-average request latency (zero before any
// request completes). It feeds the adaptive Retry-After hint.
func (m *Metrics) AvgServiceTime() time.Duration {
	return time.Duration(m.ewmaUs.Load()) * time.Microsecond
}

// CoalescedRequests reads the shared-wave request counter (tests).
func (m *Metrics) CoalescedRequests() int64 { return m.coalescedReqs.Load() }

// Waves reads the fired-wave count (tests).
func (m *Metrics) Waves() int64 { return m.waveLanes.Count() }

// DecomposedOK records a completed decomposed solve's fan-out volume and
// its pinned-session economy.
func (m *Metrics) DecomposedOK(blocks, sweeps, configs, reuseHits int) {
	m.decomposed.Inc()
	m.decompBlocks.Add(int64(blocks))
	m.decompSweeps.Add(int64(sweeps))
	m.decompConfigs.Add(int64(configs))
	m.decompReuseHits.Add(int64(reuseHits))
}

// Snapshot is a point-in-time copy of the counters in-process readers
// (tests, the benchmark) check; /metrics renders every family.
type Snapshot struct {
	Rejected     int64
	BatchRHS     int64
	Decomposed   int64
	DecompBlocks int64
	DecompSweeps int64

	// WaveMeanLanes is the mean coalescer wave occupancy, zero before
	// the first wave.
	WaveMeanLanes float64

	SessionCacheHits      int64
	SessionCacheMisses    int64
	SessionCacheEvictions int64

	// Operator registry occupancy and traffic. RegistryPinned counts
	// operators held by queued/leased durable jobs, which are exempt from
	// LRU eviction.
	RegistryOps       int
	RegistryPinned    int
	RegistryHits      int64
	RegistryMisses    int64
	RegistryEvictions int64

	// Jobs snapshots the async queue's state gauges and lifetime counters.
	Jobs jobs.Stats
}

// Snapshot returns the counters in-process readers check.
func (s *Server) Snapshot() Snapshot {
	m, reg := s.metrics, s.registry
	snap := Snapshot{
		Rejected:              m.rejected.Load(),
		BatchRHS:              m.batchRHS.Load(),
		Decomposed:            m.decomposed.Load(),
		DecompBlocks:          m.decompBlocks.Load(),
		DecompSweeps:          m.decompSweeps.Load(),
		SessionCacheHits:      s.pool.CacheHits(),
		SessionCacheMisses:    s.pool.CacheMisses(),
		SessionCacheEvictions: s.pool.CacheEvictions(),
		RegistryPinned:        reg.pinnedCount(),
		RegistryHits:          reg.hits.Load(),
		RegistryMisses:        reg.misses.Load(),
		RegistryEvictions:     reg.evictions.Load(),
		Jobs:                  s.jobs.Stats(),
	}
	snap.RegistryOps, _ = reg.stats()
	if n := m.waveLanes.Count(); n > 0 {
		snap.WaveMeanLanes = m.waveLanes.Sum() / float64(n)
	}
	return snap
}

// writeTo renders the serve section of /metrics; each family's HELP line
// says what it counts.
func (m *Metrics) writeTo(out io.Writer, queueDepth int, pool *Pool, jq *jobs.Queue, reg *opRegistry) {
	w := metric.NewWriter(out)
	w.Gauge("alad_uptime_seconds", "Seconds since the daemon started.", time.Since(m.start).Seconds())
	w.Gauge("alad_queue_depth", "Requests holding an admission slot.", float64(queueDepth))
	w.Gauge("alad_inflight", "Solve calls (requests and job executions) running now, chip wait included.", float64(m.inFlight.Load()))
	w.Counter("alad_rejected_total", "Requests answered 429 because the admission queue was full.", float64(m.rejected.Load()))
	w.Counter("alad_deadline_exceeded_total", "Solves aborted by their deadline.", float64(m.deadlineExceeded.Load()))
	w.Counter("alad_solve_errors_total", "Solves that failed for a reason other than their deadline.", float64(m.solveErrors.Load()))
	m.mu.Lock()
	solves := make([]metric.Series, 0, len(m.solves))
	for backend, n := range m.solves {
		solves = append(solves, metric.Series{Label: backend, Value: float64(n)})
	}
	analogSeconds := m.analogSeconds
	m.mu.Unlock()
	sort.Slice(solves, func(i, j int) bool { return solves[i].Label < solves[j].Label })
	w.CounterVec("alad_solves_total", "Completed solves by backend, one per right-hand side.", "backend", solves...)
	w.Counter("alad_analog_seconds_total", "Virtual analog time the chips spent solving (the paper's metric, not host wall time).", analogSeconds)
	w.Counter("alad_runs_total", "Analog runs the chips executed, rescale retries included.", float64(m.runs.Load()))
	w.Counter("alad_rescales_total", "Problem re-scalings driven by an overflow or an out-of-range reading.", float64(m.rescales.Load()))
	w.Counter("alad_overflows_total", "Overflow exceptions the chips latched.", float64(m.overflows.Load()))
	w.Counter("alad_refinements_total", "Iterative-refinement passes of analog-refined solves.", float64(m.refinements.Load()))
	w.Counter("alad_decomposed_total", "Completed decomposed (block-partitioned) solves.", float64(m.decomposed.Load()))
	w.Counter("alad_decomposed_blocks_total", "Blocks the decomposed solves were partitioned into.", float64(m.decompBlocks.Load()))
	w.Counter("alad_decomposed_sweeps_total", "Outer block-Jacobi sweeps of decomposed solves.", float64(m.decompSweeps.Load()))
	w.Counter("alad_decomposed_configs_total", "Full chip matrix configurations decomposed solves paid for.", float64(m.decompConfigs.Load()))
	w.Counter("alad_decomposed_reuse_hits_total", "Decomposed block solves on a chip already holding the block's matrix.", float64(m.decompReuseHits.Load()))
	w.Counter("alad_batch_rhs_total", "Right-hand sides of batch solves.", float64(m.batchRHS.Load()))
	w.Counter("alad_session_cache_hits_total", "Chip checkouts that found the matrix already programmed.", float64(pool.CacheHits()))
	w.Counter("alad_session_cache_misses_total", "Chip checkouts that had to program the matrix.", float64(pool.CacheMisses()))
	w.Counter("alad_session_cache_evictions_total", "Resident matrices evicted (LRU) to program another.", float64(pool.CacheEvictions()))
	w.Counter("alad_session_cache_invalidations_total", "Resident matrices dropped because their chip recalibrated.", float64(pool.CacheInvalidations()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Gauge("alad_goroutines", "Goroutines in the process.", float64(runtime.NumGoroutine()))
	w.Gauge("alad_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	w.Gauge("alad_heap_sys_bytes", "Heap bytes obtained from the OS.", float64(ms.HeapSys))
	w.Counter("alad_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	w.Counter("alad_gc_pause_seconds_total", "Time the GC stopped the world.", float64(ms.PauseTotalNs)/1e9)
	w.Counter("alad_pool_builds_total", "Chips the pool built.", float64(pool.Builds()))
	w.Counter("alad_pool_calibrations_total", "Chip calibrations the pool ran.", float64(pool.Calibrations()))
	classes := pool.Stats()
	built := make([]metric.Series, len(classes))
	free := make([]metric.Series, len(classes))
	cached := make([]metric.Series, len(classes))
	for i, c := range classes {
		class := strconv.Itoa(c.Class)
		built[i] = metric.Series{Label: class, Value: float64(c.Built)}
		free[i] = metric.Series{Label: class, Value: float64(c.Free)}
		cached[i] = metric.Series{Label: class, Value: float64(c.Cached)}
	}
	w.GaugeVec("alad_pool_chips_built", "Chips built, by size class (largest system order).", "class", built...)
	w.GaugeVec("alad_pool_chips_free", "Idle chips, by size class.", "class", free...)
	w.GaugeVec("alad_session_cache_resident", "Idle chips holding a programmed matrix, by size class.", "class", cached...)
	js := jq.Stats()
	w.GaugeVec("alad_jobs_state", "Jobs in the queue's table, by state.", "state",
		metric.Series{Label: "queued", Value: float64(js.Queued)}, metric.Series{Label: "leased", Value: float64(js.Leased)},
		metric.Series{Label: "running", Value: float64(js.Running)}, metric.Series{Label: "done", Value: float64(js.Done)},
		metric.Series{Label: "failed", Value: float64(js.Failed)}, metric.Series{Label: "cancelled", Value: float64(js.Cancelled)})
	w.Counter("alad_jobs_submitted_total", "Jobs accepted.", float64(js.Submitted))
	w.Counter("alad_jobs_completed_total", "Jobs finished done.", float64(js.Completed))
	w.Counter("alad_jobs_failed_total", "Jobs finished failed.", float64(js.FailedTotal))
	w.Counter("alad_jobs_cancelled_total", "Jobs cancelled.", float64(js.CancelledTot))
	w.Counter("alad_jobs_lease_expired_total", "Job leases expired back to queued, boot-time reclamation included.", float64(js.LeaseExpired))
	w.Counter("alad_jobs_replayed_total", "Jobs restored from the journal at boot.", float64(js.Replayed))
	w.Counter("alad_jobs_dedup_total", "Submissions answered by an existing job.", float64(js.Deduped))
	w.Counter("alad_jobs_compactions_total", "Job journal compactions.", float64(js.Compactions))
	w.Counter("alad_jobs_torn_dropped_total", "Torn final journal records dropped at replay.", float64(js.TornDropped))
	w.Counter("alad_jobs_wal_records_total", "Records appended to the job journal.", float64(js.WALRecords))
	w.Gauge("alad_jobs_wal_bytes", "Size of the job journal.", float64(js.WALBytes))
	w.Gauge("alad_service_time_ewma_seconds", "Moving average of request latency behind the adaptive Retry-After hint.", m.AvgServiceTime().Seconds())
	w.Histogram("alad_request_seconds", "Wall time of solve calls (requests and job executions), chip wait included.", m.latency)
	w.Histogram("alad_sweep_seconds", "Wall time of decomposed outer sweeps.", m.sweep)
	w.Counter("alad_coalesced_requests_total", "Requests served from a wave shared with at least one other request.", float64(m.coalescedReqs.Load()))
	w.Gauge("alad_detached_lanes", "Solves executing without an admission slot (async jobs).", float64(m.detachedLanes.Load()))
	w.Histogram("alad_wave_lanes", "Right-hand sides per fired coalescer wave.", m.waveLanes)
	w.Histogram("alad_coalesce_wait_seconds", "Wait the coalescer added to each member, enrollment to wave launch.", m.coalesceWait)
	ops, opBytes := reg.stats()
	w.Gauge("alad_registry_operators", "Operators resident in the registry.", float64(ops))
	w.Gauge("alad_registry_bytes", "Bytes of operators resident in the registry.", float64(opBytes))
	w.Gauge("alad_registry_pinned_operators", "Operators pinned by queued or leased durable jobs, exempt from eviction.", float64(reg.pinnedCount()))
	w.Counter("alad_registry_hits_total", "By-reference operator lookups that found the operator.", float64(reg.hits.Load()))
	w.Counter("alad_registry_misses_total", "By-reference operator lookups that missed.", float64(reg.misses.Load()))
	w.Counter("alad_registry_evictions_total", "Operators evicted from the registry.", float64(reg.evictions.Load()))
	w.Counter("alad_registry_registrations_total", "Operator registrations that added an operator.", float64(reg.registrations.Load()))
	w.Histogram("alad_registry_register_seconds", "Wall time of operator registrations.", m.register)
	w.HistogramVec("alad_request_bytes", "Request body sizes on the wire (compressed when gzipped), by route.", m.reqBytes)
	w.HistogramVec("alad_response_bytes", "Response body sizes on the wire, by route.", m.respBytes)
}
