package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"analogacc/internal/serve"
)

// The fixed shape of every recorded run, so that two results always come
// from the same configuration.
const (
	// loadClients is the closed-loop client count.
	loadClients = 2
	// untracedSetups is how many boots an untraced run times; setup_s is
	// their median. A traced run boots once and reports no set-up time.
	untracedSetups = 5
	// prePhaseJobs sizes durable-churn's untimed pre-phase.
	prePhaseJobs = 200
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setups is how many times set-up is timed (setup_s is the median).
	setups int
	// clients is the closed-loop client count.
	clients int
	// preJobs sizes durable-churn's untimed pre-phase.
	preJobs int
	// dir is the run's scratch directory inside the checkout.
	dir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseTally counts one phase's requests.
type phaseTally struct {
	name              string
	attempted, failed int64
	reasons           map[string]int64
}

func defaultTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 64
	t.MaxIdleConnsPerHost = 32
	t.IdleConnTimeout = 90 * time.Second
	return t
}

func httpClient(rt http.RoundTripper) *http.Client { return &http.Client{Transport: rt} }

// phase is what was measured across one or more timed closed-loop
// windows.
type phase struct {
	samples  []sample
	elapsed  time.Duration
	cpu      time.Duration
	heapPeak uint64
	gcPause  time.Duration
	// steal and ticks are the machine-wide hypervisor-steal and total CPU
	// ticks over the windows.
	steal, ticks uint64
}

// add folds another window into ph.
func (ph *phase) add(o *phase) {
	ph.samples = append(ph.samples, o.samples...)
	ph.elapsed += o.elapsed
	ph.cpu += o.cpu
	ph.heapPeak = max(ph.heapPeak, o.heapPeak)
	ph.gcPause += o.gcPause
	ph.steal += o.steal
	ph.ticks += o.ticks
}

func (ph *phase) logSteal(name string) {
	if ph.ticks > 0 {
		logf("host: hypervisor steal took %.1f%% of CPU time during the %s phase (%.1fs)",
			100*float64(ph.steal)/float64(ph.ticks), name, ph.elapsed.Seconds())
	}
}

func newCallers(cfg *config, n *node, t *tracer) []*caller {
	callers := make([]*caller, cfg.clients)
	for k := range callers {
		callers[k] = &caller{cl: newClient(n.url, t), t: t}
	}
	return callers
}

// drive runs the callers as closed-loop clients for the given seconds:
// each sends its next request only after the previous one completes.
// Requests still in flight at the deadline finish and count.
func drive(ctx context.Context, w workload, callers []*caller, seconds float64) *phase {
	ph := &phase{}
	var msA runtime.MemStats
	runtime.ReadMemStats(&msA)
	stealA, ticksA := hostTicks()
	stopHeap := sampleHeap(&ph.heapPeak)
	cpuA := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	per := make([][]sample, len(callers))
	var wg sync.WaitGroup
	for k := range callers {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				per[k] = append(per[k], w.request(rctx, callers[k], k))
				cancel()
			}
		}(k)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpuA
	stopHeap()
	if stealB, ticksB := hostTicks(); ticksB > ticksA {
		ph.steal, ph.ticks = stealB-stealA, ticksB-ticksA
	}
	var msB runtime.MemStats
	runtime.ReadMemStats(&msB)
	ph.gcPause = time.Duration(msB.PauseTotalNs - msA.PauseTotalNs)
	for _, s := range per {
		ph.samples = append(ph.samples, s...)
	}
	return ph
}

// serverView is the server's own counters before and after a traced run's
// timed window: its Snapshot and its /metrics text.
type serverView struct {
	snapA, snapB     serve.Snapshot
	scrapeA, scrapeB map[string]float64
}

func (v *serverView) delta(series string) float64 { return v.scrapeB[series] - v.scrapeA[series] }

// traceSlices is how many alternating slices a traced run's timed window
// is cut into: untraced, traced, traced, untraced, repeated, so both
// modes sample the same stretch of time and host drift (CPU steal comes
// and goes over tens of seconds) cancels out of the overhead figure.
const traceSlices = 8

// driveTraced runs a traced run's timed window and returns the untraced
// and traced halves plus the server's counters across the whole window.
func driveTraced(ctx context.Context, cfg *config, w workload, n *node, tr *tracer) (untraced, traced *phase, view *serverView, err error) {
	view = &serverView{snapA: n.srv.Snapshot()}
	if view.scrapeA, err = scrape(ctx, n.url); err != nil {
		return nil, nil, nil, err
	}
	plain, spanned := newCallers(cfg, n, nil), newCallers(cfg, n, tr)
	untraced, traced = &phase{}, &phase{}
	slice := cfg.seconds / traceSlices
	for i := 0; i < traceSlices; i++ {
		if i%4 == 0 || i%4 == 3 {
			untraced.add(drive(ctx, w, plain, slice))
		} else {
			traced.add(drive(ctx, w, spanned, slice))
		}
	}
	view.snapB = n.srv.Snapshot()
	if view.scrapeB, err = scrape(ctx, n.url); err != nil {
		return nil, nil, nil, err
	}
	return untraced, traced, view, nil
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable). Steal is time the hypervisor
// ran someone else on our virtual CPUs; it inflates every wall-clock
// figure and none of the CPU-time ones.
func hostTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sampleHeap polls the Go heap's in-use object bytes every 5 ms (the
// runtime/metrics read does not stop the world) and keeps the peak in
// *peak until the returned stop function is called.
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// scrape reads the server's /metrics text into series → value.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	text, err := serve.NewClient(url).Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// totals sums a phase's samples.
type totals struct {
	attempted, failed int64
	rhs, solved       int64
	reasons           map[string]int64
	lat               []float64 // ms; failures are +Inf
	analog            analogSum
	solveMs           float64
	solveN            int64
}

func tally(samples []sample) totals {
	t := totals{reasons: map[string]int64{}}
	for _, s := range samples {
		t.attempted++
		t.rhs += int64(s.rhs)
		t.solved += int64(s.solved)
		lat := float64(s.lat.Microseconds()) / 1000
		if s.fail != "" {
			t.failed++
			t.reasons[s.fail]++
			lat = math.Inf(1)
		} else {
			t.solveMs += s.solveMs
			t.solveN++
		}
		t.lat = append(t.lat, lat)
		t.analog.merge(s.analog)
	}
	sort.Float64s(t.lat)
	return t
}

// quantile is the linear-interpolation quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// endToEnd computes the user-visible metrics of one timed phase.
func endToEnd(ph *phase, setup float64) map[string]metric {
	t := tally(ph.samples)
	solves := float64(t.solved)
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"solves_per_s":     {solves / ph.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":   {quantile(t.lat, 0.50), "ms"},
		"latency_p90_ms":   {quantile(t.lat, 0.90), "ms"},
		"cpu_ms_per_solve": {float64(ph.cpu.Microseconds()) / 1000 / solves, "ms"},
		"heap_peak_mb":     {float64(ph.heapPeak) / (1 << 20), "MiB"},
	}
}

// finite makes every value encodable as JSON, so that a run with failures
// still prints its result line: a failed request's latency is +Inf and a
// per-solve figure with nothing solved is +Inf or NaN. Infinities clamp to
// the largest float of their sign; NaN reads 0.
func finite(m map[string]metric) {
	for name, v := range m {
		switch {
		case math.IsNaN(v.Value):
			v.Value = 0
		case math.IsInf(v.Value, 0):
			v.Value = math.Copysign(math.MaxFloat64, v.Value)
		}
		m[name] = v
	}
}

// run executes one benchmark invocation and returns its result line.
func run(ctx context.Context, cfg *config) (*result, error) {
	info, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	w := info.make(cfg)
	logf("workload %s seed %d: request sequence hash %016x (first %d requests of each of %d clients)",
		cfg.workload, cfg.seed, w.sequenceHash(), hashedRequests, cfg.clients)

	// A traced run boots once: its set-up time is not reported.
	var tr *tracer
	setups := cfg.setups
	if cfg.trace {
		tr, setups = newTracer(), 1
	}

	var phases []phaseTally
	prep := time.Now()
	if err := w.prepare(ctx, setups); err != nil {
		return nil, fmt.Errorf("pre-phase: %w", err)
	}
	logf("untimed pre-phase: %.2fs", time.Since(prep).Seconds())

	var n *node
	var bootTimes []float64
	for i := 0; i < setups; i++ {
		if n != nil {
			if err := n.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if n, err = w.boot(ctx, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		bootTimes = append(bootTimes, time.Since(start).Seconds())
	}
	defer n.close()
	setup := median(bootTimes)
	logf("set-up: %d boots, median %.3fs (%v)", len(bootTimes), setup, fmtFloats(bootTimes))

	var res *result
	if !cfg.trace {
		untraced := drive(ctx, w, newCallers(cfg, n, nil), cfg.seconds)
		untraced.logSteal("timed")
		phases = append(phases, phaseOf("timed", untraced))
		res = &result{Metrics: endToEnd(untraced, setup)}
		logLatency(untraced)
	} else {
		untraced, traced, view, err := driveTraced(ctx, cfg, w, n, tr)
		if err != nil {
			return nil, err
		}
		untraced.logSteal("untraced")
		traced.logSteal("traced")
		phases = append(phases, phaseOf("untraced", untraced), phaseOf("traced", traced))
		printOverhead(endToEnd(untraced, setup), endToEnd(traced, setup))
		p := newProber(tr)
		if err := w.probe(ctx, p); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		phases = append(phases, phaseTally{name: "probe", attempted: p.attempted, failed: p.failed, reasons: p.reasons})
		res = &result{Metrics: perLayer(w, tr, untraced, traced, view, p, phases)}
		path := filepath.Join(filepath.Dir(cfg.dir), "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		logf("spans written to %s", path)
	}
	finite(res.Metrics)
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		logf("phase %-7s attempted %6d  succeeded %6d  failed %d %v", ph.name, ph.attempted, ph.attempted-ph.failed, ph.failed, ph.reasons)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// logLatency states the timed phase's sample count and how many samples
// lie beyond its tail percentiles.
func logLatency(ph *phase) {
	t := tally(ph.samples)
	logf("timed phase: %d requests (%d right-hand sides) in %.2fs; latency over %d samples: p50 %.3f ms, p90 %.3f ms (%d beyond), p99 %.3f ms (%d beyond)",
		t.attempted, t.rhs, ph.elapsed.Seconds(), len(t.lat), quantile(t.lat, 0.5),
		quantile(t.lat, 0.9), beyond(len(t.lat), 0.9), quantile(t.lat, 0.99), beyond(len(t.lat), 0.99))
}

// beyond counts the samples above the q quantile of n samples.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func phaseOf(name string, ph *phase) phaseTally {
	t := tally(ph.samples)
	return phaseTally{name: name, attempted: t.attempted, failed: t.failed, reasons: t.reasons}
}

// printOverhead prints each end-to-end metric of the traced phase beside
// the untraced one.
func printOverhead(untraced, traced map[string]metric) {
	logf("tracing overhead (untraced → traced):")
	for _, name := range sortedKeys(untraced) {
		if name == "setup_s" {
			continue
		}
		u, t := untraced[name].Value, traced[name].Value
		logf("  %-18s %12.4f → %12.4f %-4s (%+.1f%%)", name, u, t, untraced[name].Unit, 100*(t/u-1))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func writeJSONLine(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
