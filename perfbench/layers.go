package main

import (
	"encoding/json"
	"time"
)

// codecSamples is how many traced request/response pairs the codec probe
// re-times through encoding/json; codecReps repeats each timing.
const (
	codecSamples = 32
	codecReps    = 5
)

// div is a/b, or 0 when the layer did no work this run (b == 0).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the traced run's per-layer metrics: the serve and jobs
// layers from the traced half of the timed window (client and handler
// spans, response bodies) and from the server's /metrics and Snapshot
// across the whole window, the layers below serve from the direct probes.
// A layer the workload never exercises reads 0.
func perLayer(w workload, tr *tracer, untraced, traced *phase, view *serverView, p *prober, phases []phaseTally) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	stats := tr.stats()
	t := tally(traced.samples)

	// serve: wire and handler split of each client call.
	var clientSelf, clientN float64
	for _, name := range []string{"client.solve", "client.submit", "client.wait"} {
		st := stats[name]
		clientSelf += st.SelfMs * float64(st.Count)
		clientN += float64(st.Count)
	}
	set("serve.wire_ms", "ms", div(clientSelf, clientN))
	handler := tr.childDurations("serve.handler")
	var selfSum, selfN float64
	for _, s := range traced.samples {
		if d, ok := handler[s.handlerSpan]; ok && s.fail == "" {
			selfSum += float64(d)/1e6 - s.insideMs
			selfN++
		}
	}
	set("serve.handler_self_ms", "ms", div(selfSum, selfN))
	dec, enc := codecProbe(traced.samples)
	set("serve.decode_ms", "ms", dec)
	set("serve.encode_ms", "ms", enc)
	var reqB, reqN, respB, respN float64
	for _, route := range w.routes() {
		l := `{route="` + route + `"}`
		reqB += view.delta("alad_request_bytes_sum" + l)
		reqN += view.delta("alad_request_bytes_count" + l)
		respB += view.delta("alad_response_bytes_sum" + l)
		respN += view.delta("alad_response_bytes_count" + l)
	}
	set("serve.req_bytes", "bytes", div(reqB, reqN))
	set("serve.resp_bytes", "bytes", div(respB, respN))
	set("serve.coalesce_wait_ms", "ms", 1000*div(view.delta("alad_coalesce_wait_seconds_sum"), view.delta("alad_coalesce_wait_seconds_count")))
	set("serve.wave_lanes_mean", "lanes", div(view.delta("alad_wave_lanes_sum"), view.delta("alad_wave_lanes_count")))
	a, b := view.snapA, view.snapB
	hits := float64(b.SessionCacheHits - a.SessionCacheHits)
	checkouts := hits + float64(b.SessionCacheMisses-a.SessionCacheMisses)
	set("serve.pool_hit_ratio", "ratio", div(hits, checkouts))
	set("serve.pool_checkouts", "count", checkouts)
	set("serve.pool_evictions", "count", float64(b.SessionCacheEvictions-a.SessionCacheEvictions))
	regHits := float64(b.RegistryHits - a.RegistryHits)
	lookups := regHits + float64(b.RegistryMisses-a.RegistryMisses)
	set("serve.registry_hit_ratio", "ratio", div(regHits, lookups))
	set("serve.registry_lookups", "count", lookups)
	set("serve.registry_evictions", "count", float64(b.RegistryEvictions-a.RegistryEvictions))
	set("serve.rejected", "count", float64(b.Rejected-a.Rejected))
	var attempted, failed float64
	for _, ph := range phases {
		attempted += float64(ph.attempted)
		failed += float64(ph.failed)
	}
	set("serve.error_rate", "ratio", div(failed, attempted))

	// jobs.
	set("jobs.submit_ms", "ms", stats["client.submit"].MeanMs)
	var qw, done, submitted float64
	for _, s := range append(untraced.samples, traced.samples...) {
		if s.submitMs > 0 {
			submitted++
		}
		if s.submitMs > 0 && s.fail == "" {
			qw += s.queueWaitMs
			done++
		}
	}
	set("jobs.queue_wait_ms", "ms", div(qw, done))
	set("jobs.wal_bytes_per_job", "bytes", div(float64(b.Jobs.WALBytes-a.Jobs.WALBytes), submitted))

	// core, as the server reported it.
	ar := float64(t.analog.rhs)
	set("core.solve_ms", "ms", div(t.solveMs, float64(t.solveN)))
	set("core.runs_per_solve", "runs", div(float64(t.analog.runs), ar))
	set("core.refinements_per_solve", "count", div(float64(t.analog.refinements), ar))
	set("core.rescales_per_solve", "count", div(float64(t.analog.rescales), ar))
	set("core.lanes_mean", "lanes", div(float64(t.analog.lanes), ar))
	set("chip.analog_s_per_solve", "s", div(t.analog.seconds, ar))

	// core, isa and circuit, from the probe chips.
	pr := float64(p.analogRHS)
	set("core.program_ms", "ms", div(float64(p.programNs)/1e6, float64(p.programs)))
	var hostSelf float64
	for _, name := range []string{"cli.SolveSystem", "cli.SolveSystemBatch"} {
		hostSelf += stats[name].SelfMs * float64(stats[name].Count)
	}
	set("core.host_self_ms", "ms", div(hostSelf, pr))
	set("isa.frames_per_solve", "frames", div(float64(p.isa.frames), pr))
	set("isa.bytes_per_solve", "bytes", div(float64(p.isa.bytes), pr))
	set("isa.config_ms", "ms", div(float64(p.isa.configNs)/1e6, pr))
	set("isa.readback_ms", "ms", div(float64(p.isa.readbackNs)/1e6, pr))
	set("circuit.settle_ms", "ms", div(float64(p.isa.settleNs)/1e6, pr))
	set("circuit.steps_per_solve", "steps", div(float64(p.isa.steps), pr))
	set("circuit.ns_per_step", "ns", div(float64(p.isa.settleNs), float64(p.isa.steps)))

	// solvers and la, direct.
	cs := float64(p.cgSolves)
	set("solvers.cg_iterations", "iterations", div(float64(p.cgIters), cs))
	set("solvers.macs_per_solve", "MACs", div(float64(p.cgMACs), cs))
	set("solvers.bytes_per_solve", "bytes", div(float64(p.cgBytes), cs))
	set("solvers.cg_ms", "ms", div(float64(p.cgNs)/1e6, cs))
	set("la.fingerprint_ms", "ms", div(float64(p.fpNs)/1e6, float64(p.fpCalls)))

	// runtime, and what tracing itself cost: the traced half against the
	// untraced half it was interleaved with.
	set("runtime.gc_pause_ms", "ms", div(float64(traced.gcPause)/1e6, float64(t.solved)))
	ue, te := endToEnd(untraced, 0), endToEnd(traced, 0)
	set("trace.latency_p50_overhead_pct", "%", 100*(te["latency_p50_ms"].Value/ue["latency_p50_ms"].Value-1))
	set("trace.solves_per_s_overhead_pct", "%", 100*(1-te["solves_per_s"].Value/ue["solves_per_s"].Value))
	return m
}

// childDurations maps each parent span ID to the duration of its child
// span with the given name.
func (t *tracer) childDurations(name string) map[int64]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Name == name && s.Parent != 0 {
			out[s.Parent] = s.End - s.Start
		}
	}
	return out
}

// codecProbe re-times encoding/json on the workload's own wire types:
// decoding traced request bodies (what the server's handler decodes) and
// encoding traced responses (what it encodes). It returns mean ms per
// request and per response.
func codecProbe(samples []sample) (decodeMs, encodeMs float64) {
	var dec, enc time.Duration
	n := 0
	for _, s := range samples {
		if s.ex == nil || n == codecSamples {
			continue
		}
		raw, err := json.Marshal(s.ex.req)
		if err != nil {
			continue
		}
		n++
		for r := 0; r < codecReps; r++ {
			v := s.ex.newReq()
			start := time.Now()
			err := json.Unmarshal(raw, v)
			dec += time.Since(start)
			if err != nil {
				logf("codec probe: decoding a %T: %v", v, err)
			}
			start = time.Now()
			_, err = json.Marshal(s.ex.resp)
			enc += time.Since(start)
			if err != nil {
				logf("codec probe: encoding a %T: %v", s.ex.resp, err)
			}
		}
	}
	reps := float64(n * codecReps)
	return div(float64(dec.Microseconds())/1000, reps), div(float64(enc.Microseconds())/1000, reps)
}
