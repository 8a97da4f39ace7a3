package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// The compare mode: stdlib only. It reads --record files (one JSON line
// per run) and prints, per workload and metric, each side's median and
// quartiles, the spread between the quartiles as a share of the median,
// and the change between the sides' medians against the metric's bound
// in BENCHMARK.json. With one file it reports that side's spread alone.

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRecords groups recorded values by trace mode, workload, and metric.
func loadRecords(path string) (map[int]map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[int]map[string]map[string][]float64{0: {}, 1: {}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec recordLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byMetric := out[rec.Trace][rec.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			out[rec.Trace][rec.Workload] = byMetric
		}
		for name, m := range rec.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return out, sc.Err()
}

func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.jsonl [head.jsonl]  (run from the checkout root, next to BENCHMARK.json)")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var sides []map[int]map[string]map[string][]float64
	for _, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		sides = append(sides, recs)
	}
	e2eHead := fmt.Sprintf("%-32s %-36s", "metric (end to end)", "base median [q1 q3] spread (n)")
	layerHead := fmt.Sprintf("%-32s %-36s", "metric (per layer)", "base")
	if len(sides) == 2 {
		e2eHead += fmt.Sprintf(" %-36s %9s", "head median [q1 q3] spread (n)", "change")
		layerHead += " head"
	}
	regressions := 0
	for _, wl := range spec.Workloads {
		fmt.Printf("== %s\n%s %7s  %s\n", wl.Name, e2eHead, "bound", "verdict")
		for _, ms := range spec.EndToEnd {
			line, bad := compareLine(ms, sides, 0, wl.Name)
			regressions += bad
			fmt.Println(line)
		}
		fmt.Println(layerHead)
		for _, ms := range spec.PerLayer {
			line, _ := compareLine(ms, sides, 1, wl.Name)
			fmt.Println(line)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d metric × workload pairs worse than their bound\n", regressions)
		return 1
	}
	return 0
}

// compareLine renders one metric × workload row and reports whether the
// head side is worse than the base by more than the metric's bound.
func compareLine(ms metricSpec, sides []map[int]map[string]map[string][]float64, trace int, workload string) (string, int) {
	cols := []string{fmt.Sprintf("%-32s", ms.Name+" ("+ms.Unit+")")}
	var meds []float64
	var spreads []float64
	for _, side := range sides {
		xs := side[trace][workload][ms.Name]
		if len(xs) == 0 {
			cols = append(cols, fmt.Sprintf("%-36s", "-"))
			meds = append(meds, math.NaN())
			spreads = append(spreads, math.NaN())
			continue
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		q1, q2, q3 := quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
		spread := math.Abs(q3-q1) / math.Abs(q2)
		cols = append(cols, fmt.Sprintf("%-36s", fmt.Sprintf("%.4g [%.4g %.4g] %.3f (%d)", q2, q1, q3, spread, len(xs))))
		meds = append(meds, q2)
		spreads = append(spreads, spread)
	}
	if trace == 1 {
		return strings.Join(cols, " "), 0
	}
	if len(sides) == 1 {
		verdict := "steady"
		switch {
		case math.IsNaN(spreads[0]):
			verdict = "missing"
		case spreads[0] > ms.Bound:
			verdict = "SPREAD ABOVE BOUND"
		case spreads[0] > ms.Bound/3:
			verdict = "spread above a third of the bound"
		}
		return strings.Join(cols, " ") + fmt.Sprintf(" %6.1f%%  %s", 100*ms.Bound, verdict), 0
	}
	worse := (meds[1] - meds[0]) / math.Abs(meds[0])
	if ms.Better == "higher" {
		worse = -worse
	}
	verdict, bad := "ok", 0
	switch {
	case math.IsNaN(worse):
		verdict = "missing"
	case worse > ms.Bound && spreads[0] > ms.Bound:
		verdict = "unresolved (base spread above bound)"
	case worse > ms.Bound:
		verdict, bad = "REGRESSION", 1
	case -worse > spreads[0] && -worse > 0:
		verdict = "better"
	}
	return strings.Join(cols, " ") + fmt.Sprintf(" %+8.1f%% %6.1f%%  %s", 100*worse, 100*ms.Bound, verdict), bad
}
