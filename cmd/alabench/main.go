// Command alabench regenerates the paper's evaluation artifacts: every
// figure and table has a registered experiment that emits the same
// rows/series the paper reports.
//
// Usage:
//
//	alabench -list
//	alabench -e fig8
//	alabench -e all -quick
//	alabench -e fig12 -csv -o fig12.csv
//	alabench -check experiments_full.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"analogacc"
	"analogacc/internal/bench"
)

func main() {
	var (
		expID = flag.String("e", "", "experiment ID to run, or 'all'")
		list  = flag.Bool("list", false, "list available experiments")
		quick = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		csv   = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		out   = flag.String("o", "", "write output to a file instead of stdout")
		quiet = flag.Bool("q", false, "suppress progress messages")
		jobs  = flag.Int("j", 0, "max concurrent sweep points/experiments (0 = GOMAXPROCS, 1 = sequential)")
		check = flag.String("check", "", "rerun every section of this saved text output and fail on any cell or note that differs (host-timed cells and the federation section excepted)")
	)
	flag.Parse()

	cfg := analogacc.ExperimentConfig{Quick: *quick, Jobs: *jobs}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *check != "" {
		os.Exit(runCheck(cfg, *check))
	}

	if *list {
		for _, e := range analogacc.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "alabench: pick an experiment with -e <id> (see -list)")
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alabench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var targets []analogacc.Experiment
	if *expID == "all" {
		targets = analogacc.Experiments()
	} else {
		e, ok := analogacc.ExperimentByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "alabench: unknown experiment %q (see -list)\n", *expID)
			os.Exit(2)
		}
		targets = []analogacc.Experiment{e}
	}

	tables, err := analogacc.RunExperiments(cfg, targets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alabench: %v\n", err)
		os.Exit(1)
	}
	for i, table := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		var rerr error
		if *csv {
			rerr = table.RenderCSV(w)
		} else {
			rerr = table.Render(w)
		}
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "alabench: rendering %s: %v\n", table.ID, rerr)
			os.Exit(1)
		}
	}
}

// runCheck reruns the experiments behind a saved output file and prints
// every difference; it returns the process exit code.
func runCheck(cfg analogacc.ExperimentConfig, path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alabench: %v\n", err)
		return 1
	}
	defer f.Close()
	diffs, err := bench.Check(cfg, f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alabench: checking %s: %v\n", path, err)
		return 1
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "alabench: %s: %d differences\n", path, len(diffs))
		return 1
	}
	fmt.Printf("%s: every checked cell and note matches\n", path)
	return 0
}
