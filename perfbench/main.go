// Command perfbench is the repository's end-to-end benchmark. It boots a
// real serve.Server on loopback HTTP, drives one named workload with
// closed-loop clients, checks every answer against the generated system,
// and prints every metric by name with its unit; the last line of its
// standard output is the result as one JSON object. See README.md.
//
//	perfbench --workload analog-hot --seed 1 --seconds 25 --trace 0
//	perfbench compare base.jsonl head.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: analog-hot, digital-wire, durable-churn")
	seed := fs.Uint64("seed", 1, "input seed: one seed always gives one request sequence")
	seconds := fs.Float64("seconds", 25, "length of the timed closed-loop phase (a traced run splits it between an untraced and a traced phase)")
	trace := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
	record := fs.String("record", "", "also append {workload, seed, trace, result} to this JSON-lines file (for compare)")
	scratch := fs.String("scratch", ".bench_build", "directory for job stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		setups:   untracedSetups,
		clients:  loadClients,
		preJobs:  prePhaseJobs,
		dir:      filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid())),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	for _, fact := range hostFacts() {
		logf("host %s", fact)
	}
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, name := range sortedKeys(res.Metrics) {
		logf("  %-34s %14.6g %s", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if *record != "" {
		line := recordLine{Workload: cfg.workload, Seed: cfg.seed, Trace: *trace, Result: *res}
		if err := writeJSONLine(*record, line); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: recording result: %v\n", err)
			return 1
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}

// recordLine is one --record entry.
type recordLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// hostFacts stamps a run with the machine it measured.
func hostFacts() []string {
	cpu, avx2 := cpuInfo()
	lanes := "off (pure-Go lane loops)"
	if runtime.GOARCH == "amd64" && avx2 {
		lanes = "on (amd64 with avx2)"
	}
	return []string{
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"cpu=" + cpu,
		"go=" + runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		"commit=" + gitCommit(),
		"avx2_lane_kernels=" + lanes,
	}
}

// cpuInfo reads the CPU model and the avx2 flag from /proc/cpuinfo.
func cpuInfo() (model string, avx2 bool) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", false
	}
	model = "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model = strings.TrimSpace(val)
		case "flags":
			avx2 = strings.Contains(" "+val+" ", " avx2 ")
		}
		if model != "unknown" && avx2 {
			break
		}
	}
	return model, avx2
}

// gitCommit resolves HEAD from the checkout's .git directory, if any.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown (" + ref + ")"
}
