package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"analogacc/internal/chip"
	"analogacc/internal/circuit"
	"analogacc/internal/isa"
)

// Tracing. Spans are recorded only from this package's own files: around
// each client call into the server, around the server's HTTP handler (a
// middleware wrapping Server.Handler), and around the direct calls the
// layer probes make into cli, core, isa, solvers and la. Spans stay in
// memory and are written out once, when the run ends.

// maxSpans bounds the in-memory span buffer; spans past it are counted
// and dropped, never silently folded into the figures.
const maxSpans = 1 << 18

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

// now is the tracer clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(id, parent int64, name string, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	// SelfMs is the mean self time: each span's duration minus the part
	// of its interval that its child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// stats computes per-name mean duration and mean self time.
func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		n           int64
		total, self int64
	}
	byName := make(map[string]*acc)
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += d - covered(s, children[s.ID])
	}
	out := make(map[string]spanStat, len(byName))
	for name, a := range byName {
		out[name] = spanStat{
			Count:  a.n,
			MeanMs: float64(a.total) / float64(a.n) / 1e6,
			SelfMs: float64(a.self) / float64(a.n) / 1e6,
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeFile dumps every span plus the per-name aggregates as JSON.
func (t *tracer) writeFile(path string) error {
	stats := t.stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Dropped int64               `json:"dropped"`
		Stats   map[string]spanStat `json:"stats"`
		Spans   []span              `json:"spans"`
	}{t.dropped, stats, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// --- HTTP: client spans and the handler middleware ---

// spanHeader carries the client span's ID to the handler middleware, so
// the handler span is recorded as that client span's child.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// withSpan tags ctx with the client span the next request belongs to.
func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// spanTransport stamps the context's span ID on each outgoing request.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// handlerSpans wraps the server's handler tree: each request carrying a
// span header gets a "serve.handler" child span.
func handlerSpans(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		if parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			t.record(t.id(), parent, "serve.handler", start, t.now())
		}
	})
}

// --- ISA: a transport wrapper under core.New ---

// isaCounts are the probe chip's ISA and simulator totals.
type isaCounts struct {
	frames, bytes int64
	configNs      int64
	readbackNs    int64
	settleNs      int64
	steps         int64
}

// tracedTransport sits between core.Accelerator and the simulated chip's
// loopback: it times every transaction, classifies it (configuration,
// settle, readback, other control), counts frames and bytes, and reads
// the simulator's exact step count around each settle. parent is the
// probe span the next transactions belong to (the probes are
// single-threaded).
type tracedTransport struct {
	lb     *isa.Loopback
	dev    *chip.Chip
	t      *tracer
	parent int64
	c      isaCounts
}

func (tt *tracedTransport) Transact(frame []byte) ([]byte, error) {
	op := isa.Opcode(frame[0])
	var before int64
	if op == isa.OpExecStart {
		before = simSteps(tt.dev.Sim())
	}
	start := tt.t.now()
	resp, err := tt.lb.Transact(frame)
	end := tt.t.now()
	tt.c.frames++
	tt.c.bytes += int64(len(frame) + len(resp))
	name := "isa.control"
	switch op {
	case isa.OpExecStart:
		name = "circuit.settle"
		tt.c.settleNs += end - start
		tt.c.steps += simSteps(tt.dev.Sim()) - before
	case isa.OpSetConn, isa.OpSetIntInitial, isa.OpSetMulGain, isa.OpSetFunction,
		isa.OpSetDacConstant, isa.OpSetTimeout, isa.OpCfgCommit, isa.OpCfgReset,
		isa.OpSetLanes, isa.OpSetIntInitLane, isa.OpSetMulGainLane, isa.OpSetDacConstLane:
		name = "isa.config"
		tt.c.configNs += end - start
	case isa.OpReadSerial, isa.OpAnalogAvg, isa.OpReadExp,
		isa.OpReadSerialLane, isa.OpAnalogAvgLane, isa.OpReadExpLane:
		name = "isa.readback"
		tt.c.readbackNs += end - start
	}
	tt.t.record(tt.t.id(), tt.parent, name, start, end)
	return resp, err
}

// simSteps is the simulator's exact RK4 step count since its last reset,
// summed over lanes in lane mode (one lane carries one right-hand side).
func simSteps(sim *circuit.Simulator) int64 {
	if sim == nil {
		return 0
	}
	if sim.Lanes() == 0 {
		return sim.Steps()
	}
	var n int64
	for l := 0; l < sim.Lanes(); l++ {
		n += sim.LaneSteps(l)
	}
	return n
}

// SelectEngine forwards the simulation-engine side band to the chip, as
// the plain loopback does, so the lane-wave path still selects fused.
func (tt *tracedTransport) SelectEngine(name string, workers int) error {
	return tt.dev.SelectEngine(name, workers)
}
