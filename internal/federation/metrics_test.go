package federation

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"analogacc/internal/serve"
)

// servedScrape boots a two-node federated cluster, sends node 0 a solo
// solve, a batch, a job, an operator registration and a decomposed solve
// (all owned by node 0) plus a solve it forwards to node 1, and returns
// node 0's /metrics text.
func servedScrape(t *testing.T) string {
	t.Helper()
	pool := serve.PoolConfig{ChipsPerClass: 1, WarmSizes: []int{2}, MinClass: 2, MaxDim: 16}
	nodes := newClusterWith(t, 2, serve.Config{Pool: pool}, false)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// ownedBy finds an operator of the given order whose affinity owner is
	// node i.
	ownedBy := func(i, dim int) serve.SolveRequest {
		for k := 0; k < 64; k++ {
			if req := OperatorRequest(k, dim, 1e-8); ownerIndex(t, nodes, req) == i {
				return req
			}
		}
		t.Fatalf("no operator of order %d is owned by node%d", dim, i)
		return serve.SolveRequest{}
	}
	entry := nodes[0].client
	local := ownedBy(0, 8)
	if _, err := entry.Solve(ctx, local); err != nil {
		t.Fatalf("solo solve: %v", err)
	}
	if _, err := entry.SolveBatch(ctx, serve.BatchSolveRequest{N: local.N, A: local.A, RHS: [][]float64{local.B, local.B}, Tol: local.Tol}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	job, err := entry.SubmitJob(ctx, serve.JobSubmitRequest{Solve: &local})
	if err != nil {
		t.Fatalf("job submit: %v", err)
	}
	if st, err := entry.WaitJob(ctx, job.ID); err != nil || st.State != "done" {
		t.Fatalf("job: %+v, %v", st, err)
	}
	if _, err := entry.RegisterOperator(ctx, serve.OperatorRequest{N: local.N, A: local.A}); err != nil {
		t.Fatalf("registration: %v", err)
	}
	if resp, err := entry.Solve(ctx, ownedBy(0, 48)); err != nil || resp.Decompose == nil {
		t.Fatalf("decomposed solve: %+v, %v", resp, err)
	}
	if resp, err := entry.Solve(ctx, ownedBy(1, 8)); err != nil || resp.Affinity != RouteHit {
		t.Fatalf("forwarded solve: %+v, %v", resp, err)
	}
	text, err := entry.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// routeSample reads one sample of a per-route series from node's /metrics.
func routeSample(t *testing.T, node *clusterNode, name, route string) float64 {
	t.Helper()
	text, err := node.client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range parseExposition(t, text) {
		if l.kind == "sample" && l.name == name && l.labels["route"] == route {
			return l.value
		}
	}
	t.Fatalf("no %s{route=%q} sample", name, route)
	return 0
}

// TestForwardedSolveBooksResponseBytes sends a solve to the node that does
// not own its operator: the owner serves the forwarded request, so it
// must book the answer in its response-byte histogram, as it books the
// request in its request-byte histogram.
func TestForwardedSolveBooksResponseBytes(t *testing.T) {
	nodes := newCluster(t, 2, testPool(), false)
	req := OperatorRequest(3, 8, 1e-8)
	owner := ownerIndex(t, nodes, req)
	reqBefore := routeSample(t, nodes[owner], "alad_request_bytes_count", "solve")
	respBefore := routeSample(t, nodes[owner], "alad_response_bytes_count", "solve")
	resp, err := nodes[1-owner].client.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("node%d", owner); resp.ServedBy != want || resp.Affinity != RouteHit {
		t.Fatalf("solve served by %q with affinity %q, want the owner %q and %q", resp.ServedBy, resp.Affinity, want, RouteHit)
	}
	if got := routeSample(t, nodes[owner], "alad_request_bytes_count", "solve"); got != reqBefore+1 {
		t.Fatalf("owner booked %v forwarded requests, want %v", got, reqBefore+1)
	}
	if got := routeSample(t, nodes[owner], "alad_response_bytes_count", "solve"); got != respBefore+1 {
		t.Fatalf("owner booked %v responses to forwarded solves, want %v", got, respBefore+1)
	}
}

// expLine is one line of a text exposition: a HELP or TYPE comment line
// (kind "HELP"/"TYPE", text holding the help or the type) or a sample.
type expLine struct {
	kind   string
	name   string // the family for comments, the sample name for samples
	text   string
	labels map[string]string
	value  float64
}

func parseExposition(t *testing.T, text string) []expLine {
	t.Helper()
	var out []expLine
	for n, raw := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if comment, ok := strings.CutPrefix(raw, "# "); ok {
			kind, rest, _ := strings.Cut(comment, " ")
			name, body, _ := strings.Cut(rest, " ")
			out = append(out, expLine{kind: kind, name: name, text: body})
			continue
		}
		l, err := parseSample(raw)
		if err != nil {
			t.Fatalf("line %d %q: %v", n+1, raw, err)
		}
		out = append(out, l)
	}
	return out
}

// parseSample parses name{k="v",...} value, undoing label escapes.
func parseSample(line string) (expLine, error) {
	l := expLine{kind: "sample", labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return l, fmt.Errorf("no sample name")
	}
	l.name, line = line[:i], line[i:]
	if line[0] == '{' {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			key, rest, ok := strings.Cut(line, `="`)
			if !ok {
				return l, fmt.Errorf("malformed label set")
			}
			var val strings.Builder
			for {
				if rest == "" {
					return l, fmt.Errorf("unterminated label value")
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' && rest != "" {
					c = map[byte]byte{'n': '\n'}[rest[0]]
					if c == 0 {
						c = rest[0]
					}
					rest = rest[1:]
				}
				val.WriteByte(c)
			}
			l.labels[key] = val.String()
			line = strings.TrimPrefix(rest, ",")
		}
		line = line[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimPrefix(line, " "), 64)
	l.value = v
	return l, err
}

// familyOf resolves a sample name to its declared family: itself, or a
// histogram's base name for its _bucket/_sum/_count series.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

var (
	metricName  = regexp.MustCompile(`^alad_[a-z0-9_]+$`)
	nonBaseUnit = regexp.MustCompile(`_(ms|us|ns|milliseconds|microseconds|nanoseconds|minutes|hours|kb|mb|kib|mib|gib)(_|$)`)
)

// The exposition lint: what a Prometheus scraper and an operator reading
// /metrics by eye rely on, checked on a node that has served every kind
// of request.
func TestMetricsExpositionLint(t *testing.T) {
	lines := parseExposition(t, servedScrape(t))
	types := map[string]string{}
	for _, l := range lines {
		if l.kind == "TYPE" {
			types[l.name] = l.text
		}
	}
	helps, typeLines := map[string]int{}, map[string]int{}
	sampled, closed := map[string]bool{}, map[string]bool{}
	current := ""
	for _, l := range lines {
		fam := l.name
		if l.kind == "sample" {
			if fam = familyOf(l.name, types); fam == "" {
				t.Errorf("sample %s belongs to no declared family", l.name)
				continue
			}
			if !sampled[fam] && (helps[fam] != 1 || typeLines[fam] != 1) {
				t.Errorf("%s: first sample before its HELP and TYPE lines", fam)
			}
			sampled[fam] = true
		} else if sampled[fam] {
			t.Errorf("%s: # %s line after its samples", fam, l.kind)
		}
		switch l.kind {
		case "HELP":
			helps[fam]++
		case "TYPE":
			typeLines[fam]++
		case "sample":
		default:
			t.Errorf("%s: unexpected # %s comment", fam, l.kind)
		}
		if fam != current {
			if closed[fam] {
				t.Errorf("%s: family split into more than one group", fam)
			}
			closed[current] = true
			current = fam
		}
	}
	names := make([]string, 0, len(types))
	for fam := range types {
		names = append(names, fam)
	}
	sort.Strings(names)
	for _, fam := range names {
		typ := types[fam]
		if helps[fam] != 1 || typeLines[fam] != 1 {
			t.Errorf("%s: %d HELP and %d TYPE lines, want one each", fam, helps[fam], typeLines[fam])
		}
		if !metricName.MatchString(fam) {
			t.Errorf("%s: name does not match %s", fam, metricName)
		}
		if strings.HasSuffix(fam, "_total") != (typ == "counter") {
			t.Errorf("%s: a %s; names end in _total if and only if they are counters", fam, typ)
		}
		if nonBaseUnit.MatchString(fam) {
			t.Errorf("%s: non-base unit (use seconds and bytes)", fam)
		}
		switch typ {
		case "counter", "gauge", "histogram":
		default:
			t.Errorf("%s: unknown type %q", fam, typ)
		}
	}
	for fam := range helps {
		if _, ok := types[fam]; !ok {
			t.Errorf("%s: HELP without TYPE", fam)
		}
	}
	checkHistograms(t, lines, types)
}

// checkHistograms holds every histogram series (one per label set) to
// strictly increasing le bounds, cumulative counts, a final le="+Inf"
// bucket, and +Inf equal to _count.
func checkHistograms(t *testing.T, lines []expLine, types map[string]string) {
	type hist struct {
		les      []float64
		buckets  []float64
		hasSum   bool
		count    float64
		hasCount bool
	}
	all := map[string]*hist{}
	var order []string
	for _, l := range lines {
		fam := familyOf(l.name, types)
		if l.kind != "sample" || types[fam] != "histogram" {
			continue
		}
		var pairs []string
		for k, v := range l.labels {
			if k != "le" {
				pairs = append(pairs, k+"="+v)
			}
		}
		sort.Strings(pairs)
		key := fam + "{" + strings.Join(pairs, ",") + "}"
		h := all[key]
		if h == nil {
			h = &hist{}
			all[key] = h
			order = append(order, key)
		}
		switch strings.TrimPrefix(l.name, fam) {
		case "_bucket":
			le, err := strconv.ParseFloat(l.labels["le"], 64)
			if err != nil {
				t.Errorf("%s: bucket le=%q: %v", key, l.labels["le"], err)
				continue
			}
			if n := len(h.les); n > 0 && (le <= h.les[n-1] || l.value < h.buckets[n-1]) {
				t.Errorf("%s: bucket le=%v count %v after le=%v count %v (bounds must rise, counts must not fall)", key, le, l.value, h.les[n-1], h.buckets[n-1])
			}
			h.les = append(h.les, le)
			h.buckets = append(h.buckets, l.value)
		case "_sum":
			h.hasSum = true
		case "_count":
			h.count, h.hasCount = l.value, true
		}
	}
	if len(order) == 0 {
		t.Fatal("no histogram series")
	}
	for _, key := range order {
		h := all[key]
		n := len(h.les)
		if n == 0 || !math.IsInf(h.les[n-1], 1) {
			t.Errorf("%s: buckets do not end in le=\"+Inf\"", key)
			continue
		}
		if !h.hasSum || !h.hasCount || h.buckets[n-1] != h.count {
			t.Errorf("%s: +Inf bucket %v, _count %v (present %v), _sum present %v", key, h.buckets[n-1], h.count, h.hasCount, h.hasSum)
		}
	}
}

// seriesContract is every family a router-wrapped node exposes, with its
// type and label keys (le aside): what the benchmark's scrape, the smoke
// and operators' dashboards read. Renaming or relabelling one is a
// breaking change; adding one means adding it here.
var seriesContract = []struct{ name, typ, keys string }{
	// serve
	{"alad_uptime_seconds", "gauge", ""},
	{"alad_queue_depth", "gauge", ""},
	{"alad_inflight", "gauge", ""},
	{"alad_rejected_total", "counter", ""},
	{"alad_deadline_exceeded_total", "counter", ""},
	{"alad_solve_errors_total", "counter", ""},
	{"alad_solves_total", "counter", "backend"},
	{"alad_analog_seconds_total", "counter", ""},
	{"alad_runs_total", "counter", ""},
	{"alad_rescales_total", "counter", ""},
	{"alad_overflows_total", "counter", ""},
	{"alad_refinements_total", "counter", ""},
	{"alad_decomposed_total", "counter", ""},
	{"alad_decomposed_blocks_total", "counter", ""},
	{"alad_decomposed_sweeps_total", "counter", ""},
	{"alad_decomposed_configs_total", "counter", ""},
	{"alad_decomposed_reuse_hits_total", "counter", ""},
	{"alad_batch_rhs_total", "counter", ""},
	{"alad_session_cache_hits_total", "counter", ""},
	{"alad_session_cache_misses_total", "counter", ""},
	{"alad_session_cache_evictions_total", "counter", ""},
	{"alad_session_cache_invalidations_total", "counter", ""},
	{"alad_goroutines", "gauge", ""},
	{"alad_heap_alloc_bytes", "gauge", ""},
	{"alad_heap_sys_bytes", "gauge", ""},
	{"alad_gc_cycles_total", "counter", ""},
	{"alad_gc_pause_seconds_total", "counter", ""},
	{"alad_pool_builds_total", "counter", ""},
	{"alad_pool_calibrations_total", "counter", ""},
	{"alad_pool_chips_built", "gauge", "class"},
	{"alad_pool_chips_free", "gauge", "class"},
	{"alad_session_cache_resident", "gauge", "class"},
	{"alad_jobs_state", "gauge", "state"},
	{"alad_jobs_submitted_total", "counter", ""},
	{"alad_jobs_completed_total", "counter", ""},
	{"alad_jobs_failed_total", "counter", ""},
	{"alad_jobs_cancelled_total", "counter", ""},
	{"alad_jobs_lease_expired_total", "counter", ""},
	{"alad_jobs_replayed_total", "counter", ""},
	{"alad_jobs_dedup_total", "counter", ""},
	{"alad_jobs_compactions_total", "counter", ""},
	{"alad_jobs_torn_dropped_total", "counter", ""},
	{"alad_jobs_wal_records_total", "counter", ""},
	{"alad_jobs_wal_bytes", "gauge", ""},
	{"alad_jobs_operators", "gauge", ""},
	{"alad_service_time_ewma_seconds", "gauge", ""},
	{"alad_request_seconds", "histogram", ""},
	{"alad_sweep_seconds", "histogram", ""},
	{"alad_coalesced_requests_total", "counter", ""},
	{"alad_detached_lanes", "gauge", ""},
	{"alad_wave_lanes", "histogram", ""},
	{"alad_coalesce_wait_seconds", "histogram", ""},
	{"alad_registry_operators", "gauge", ""},
	{"alad_registry_bytes", "gauge", ""},
	{"alad_registry_hits_total", "counter", ""},
	{"alad_registry_misses_total", "counter", ""},
	{"alad_registry_evictions_total", "counter", ""},
	{"alad_registry_registrations_total", "counter", ""},
	{"alad_registry_register_seconds", "histogram", ""},
	{"alad_request_bytes", "histogram", "route"},
	{"alad_response_bytes", "histogram", "route"},
	// federation
	{"alad_fed_routed_total", "counter", "route"},
	{"alad_fed_forward_errors_total", "counter", ""},
	{"alad_fed_block_batches_total", "counter", ""},
	{"alad_fed_block_items_total", "counter", ""},
	{"alad_fed_member_healthy", "gauge", "node"},
	{"alad_fed_member_resident", "gauge", "node"},
	{"alad_fed_member_queue_depth", "gauge", "node"},
	{"alad_fed_cluster_cache_hits_total", "counter", ""},
	{"alad_fed_cluster_cache_misses_total", "counter", ""},
	{"alad_fed_cluster_cache_hit_rate", "gauge", ""},
	{"alad_fed_cluster_nodes", "gauge", ""},
	{"alad_fed_request_seconds", "histogram", "route"},
}

// The series contract: every family keeps its name, type and label keys,
// and has at least one sample once the node has served traffic.
func TestMetricsSeriesContract(t *testing.T) {
	if len(seriesContract) != 73 {
		t.Fatalf("contract lists %d families, want 73", len(seriesContract))
	}
	lines := parseExposition(t, servedScrape(t))
	types := map[string]string{}
	for _, l := range lines {
		if l.kind == "TYPE" {
			types[l.name] = l.text
		}
	}
	keys := map[string]map[string]bool{}
	for _, l := range lines {
		fam := familyOf(l.name, types)
		if l.kind != "sample" || fam == "" {
			continue
		}
		var ks []string
		for k := range l.labels {
			if k != "le" {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		if keys[fam] == nil {
			keys[fam] = map[string]bool{}
		}
		keys[fam][strings.Join(ks, ",")] = true
	}
	want := map[string]bool{}
	for _, c := range seriesContract {
		want[c.name] = true
		if got, ok := types[c.name]; !ok {
			t.Errorf("%s: missing from /metrics", c.name)
			continue
		} else if got != c.typ {
			t.Errorf("%s: type %s, want %s", c.name, got, c.typ)
		}
		if len(keys[c.name]) != 1 || !keys[c.name][c.keys] {
			t.Errorf("%s: sample label keys %v, want exactly {%s}", c.name, keys[c.name], c.keys)
		}
	}
	for fam := range types {
		if !want[fam] {
			t.Errorf("%s: exposed but not in the series contract", fam)
		}
	}
}
