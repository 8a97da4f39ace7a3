package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestSmokeEveryMetricEmitted runs each workload briefly, untraced and
// traced, and checks the result line: every answer correct, and exactly
// the metrics BENCHMARK.json names for that mode, each with its unit.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := &config{
				workload: wl.Name,
				seed:     1,
				seconds:  0.5,
				trace:    traced,
				setups:   1,
				clients:  2,
				preJobs:  2,
				dir:      filepath.Join(t.TempDir(), "run"),
			}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, ms := range want {
				got, ok := res.Metrics[ms.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", wl.Name, traced, ms.Name)
				case got.Unit != ms.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", wl.Name, traced, ms.Name, got.Unit, ms.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// failing wraps a workload and fails every request it sends, as a
// server error would.
type failing struct{ workload }

func (f failing) request(ctx context.Context, c *caller, k int) sample {
	s := f.workload.request(ctx, c, k)
	s.fail, s.solved = "injected", 0
	return s
}

// TestFailedRunStillPrintsResult injects a failure into every timed
// request and checks that the result line still encodes, reporting the
// run as incorrect with its failures counted.
func TestFailedRunStillPrintsResult(t *testing.T) {
	workloads = append(workloads, workloadInfo{"failing", func(cfg *config) workload { return failing{newDigitalWire(cfg)} }})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	for _, traced := range []bool{false, true} {
		cfg := &config{
			workload: "failing",
			seed:     1,
			seconds:  0.5,
			trace:    traced,
			setups:   1,
			clients:  2,
			dir:      filepath.Join(t.TempDir(), "run"),
		}
		res, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("trace=%v: result line does not encode: %v", traced, err)
		}
		if res.Correct || res.Failed < 1 || res.Failed > res.Attempted {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d, want an incorrect run with failures", traced, res.Correct, res.Attempted, res.Failed)
		}
	}
}
