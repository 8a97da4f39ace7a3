package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"analogacc/internal/federation"
	"analogacc/internal/serve"
)

func init() {
	register(Experiment{
		ID:     "federation",
		Title:  "Fingerprint-affinity federation: zipf load routed with affinity vs without vs single node",
		Run:    runFederation,
		Varies: true,
	})
}

// runFederation drives the same zipf-operator traffic through three
// in-process cluster configurations and compares cluster-wide session-
// cache hit rate and latency percentiles. The claim under test: routing
// each fingerprint to its rendezvous owner keeps hot operators resident
// on one node's chips, so the cluster reprograms far less than when a
// blind load balancer smears the same traffic across members.
func runFederation(cfg Config) (*Table, error) {
	load := federation.LoadConfig{}
	if cfg.Quick {
		// One request in flight at a time: each hit rate then follows the
		// routing policy, not how concurrent requests interleave on the
		// chips, and 200 requests keep the quick run under a second.
		load.Requests = 200
		load.Operators = 12
		load.Concurrency = 1
	}
	pool := serve.PoolConfig{ChipsPerClass: 4, WarmSizes: []int{2}, MinClass: 2, MaxDim: 32}
	variants := []struct {
		name     string
		nodes    int
		disabled bool
	}{
		{"federated (affinity)", 3, false},
		{"affinity disabled", 3, true},
		{"single node", 1, false},
	}
	t := &Table{
		ID:    "federation",
		Title: "Zipf-operator load: cluster cache hit rate and latency by routing policy",
		Columns: []string{
			"policy", "nodes", "hit rate", "hits", "misses", "p50 (ms)", "p99 (ms)", "routes",
		},
	}
	var affinityRate, disabledRate float64
	for _, v := range variants {
		cfg.logf("federation: %s (%d nodes)", v.name, v.nodes)
		lc, err := federation.StartLocalCluster(v.nodes, pool, v.disabled)
		if err != nil {
			return nil, fmt.Errorf("bench: federation %s: %w", v.name, err)
		}
		lv := load
		lv.Entries = lc.URLs()
		// Bound the run, and each request within it: the generator derives
		// per-request contexts from these deadlines, so a wedged node fails
		// the experiment instead of leaking goroutines forever.
		lv.RequestTimeout = 15 * time.Second
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		res, err := federation.RunZipfLoad(ctx, lv)
		cancel()
		lc.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: federation %s: %w", v.name, err)
		}
		if res.Errors > 0 {
			return nil, fmt.Errorf("bench: federation %s: %d/%d requests failed", v.name, res.Errors, res.Requests)
		}
		switch v.name {
		case "federated (affinity)":
			affinityRate = res.HitRate()
		case "affinity disabled":
			disabledRate = res.HitRate()
		}
		t.AddRow(
			v.name, v.nodes,
			fmt.Sprintf("%.3f", res.HitRate()),
			res.ClusterHits, res.ClusterMisses,
			fmt.Sprintf("%.2f", float64(res.P50.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(res.P99.Microseconds())/1000),
			routeMix(res.ByAffinity),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("affinity hit rate %.3f vs affinity-disabled %.3f (%.1fx)", affinityRate, disabledRate, ratio(affinityRate, disabledRate)),
		"hit rate = warm chip checkouts / total checkouts summed over every node's /v1/peer/stats deltas",
		"scripts/bench.sh 7 records the same three policies as BENCH_7.json via the Go benchmarks in internal/federation",
	)
	return t, nil
}

// routeMix renders an affinity-label histogram compactly and in a
// deterministic order, e.g. "hit:132 local:48 fallback:20".
func routeMix(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
