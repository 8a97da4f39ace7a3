// Command smoke is the CI end-to-end gate for the serve subsystem: it
// starts a real alad daemon on a random port, solves the paper's
// Equation 2 system through serve.Client, scrapes /metrics to confirm the
// solve counter moved, optionally round-trips alasolve -server, SIGTERMs
// the daemon and asserts a clean drain — then runs the crash-replay
// gauntlet: submit an async job against a journal-backed daemon, SIGKILL
// it mid-solve, restart on the same store, and assert the job completes
// exactly once with a bit-identical solution. Run by scripts/ci.sh:
//
//	go run ./scripts/smoke -alad /tmp/alad [-alasolve /tmp/alasolve]
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"analogacc/internal/circuit"
	"analogacc/internal/la"
	"analogacc/internal/serve"
	"analogacc/internal/solvers"
)

// daemon wraps one running alad process: started on a random port, its
// stderr forwarded and watched for the listen announcement and the
// clean-drain line.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan bool
}

// started holds every alad process the smoke launched, so that die can
// stop them all before it exits.
var (
	startedMu sync.Mutex
	started   []*exec.Cmd
)

// startDaemon launches alad with the given extra flags (every daemon
// gets -addr 127.0.0.1:0) and waits for it to announce its port.
func startDaemon(aladPath string, extra ...string) *daemon {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(aladPath, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		die("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		die("starting alad: %v", err)
	}
	startedMu.Lock()
	started = append(started, cmd)
	startedMu.Unlock()
	d := &daemon{cmd: cmd, drained: make(chan bool, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sawDrain := false
		listenRe := regexp.MustCompile(`listening on (\S+)`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "[alad %d] %s\n", cmd.Process.Pid, line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if strings.Contains(line, "drained, bye") {
				sawDrain = true
			}
		}
		d.drained <- sawDrain
	}()
	select {
	case d.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		die("alad never announced its listen address")
	}
	return d
}

func (d *daemon) client() *serve.Client { return serve.NewClient(d.addr) }

// terminate SIGTERMs the daemon and asserts a clean, logged drain.
//
// Order matters: wait for the log scanner's EOF (the child exiting
// closes its stderr, so EOF means every line was read) before calling
// Wait. Calling Wait first closes the parent's pipe end on process
// exit and can drop the final buffered lines — losing "drained, bye"
// and failing the assertion spuriously.
func (d *daemon) terminate() {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		die("sigterm: %v", err)
	}
	select {
	case sawDrain := <-d.drained:
		if err := d.cmd.Wait(); err != nil {
			die("alad exited dirty: %v", err)
		}
		if !sawDrain {
			die("alad exited without logging a clean drain")
		}
	case <-time.After(30 * time.Second):
		die("alad did not exit within the drain budget")
	}
}

// kill SIGKILLs the daemon: the crash the journal must survive.
func (d *daemon) kill() {
	if err := d.cmd.Process.Kill(); err != nil {
		die("sigkill: %v", err)
	}
	<-d.drained
	d.cmd.Wait()
}

func eq2Request() serve.SolveRequest {
	return serve.SolveRequest{
		Backend: "analog-refined",
		N:       2,
		A: []serve.Entry{
			{Row: 0, Col: 0, Val: 0.8}, {Row: 0, Col: 1, Val: 0.2},
			{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
		},
		B:   []float64{0.5, 0.3},
		Tol: 1e-8,
	}
}

func main() {
	aladPath := flag.String("alad", "", "path to the alad binary")
	alasolvePath := flag.String("alasolve", "", "path to the alasolve binary (optional)")
	flag.Parse()
	if *aladPath == "" {
		die("usage: smoke -alad <path> [-alasolve <path>]")
	}

	// 1. Start alad on a random port with a tiny warm pool. -max-dim 8
	// keeps the largest chip class small so step 4 can exercise the
	// decomposed fan-out path with a modest n=16 system; pooled chips run
	// the lane-capable fused kernel, so step 3.5's batch must report
	// settling lane-parallel. -pool 1 gives step 3.7's waves one chip to
	// queue for, and -max-batch 4096 lets its batch hold that chip.
	d := startDaemon(*aladPath, "-pool", "1", "-warm", "2", "-queue", "16", "-max-dim", "8", "-max-batch", "4096")
	defer d.cmd.Process.Kill()
	client := d.client()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := client.Healthz(ctx); err != nil {
		die("healthz: %v", err)
	}

	// 2. Solve Equation 2 (the paper's 2x2 system) through serve.Client.
	resp, err := client.Solve(ctx, eq2Request())
	if err != nil {
		die("solve: %v", err)
	}
	want := []float64{0.24 / 0.44, 0.14 / 0.44}
	for i := range want {
		if math.Abs(resp.U[i]-want[i]) > 1e-6 {
			die("u[%d] = %v, want %v", i, resp.U[i], want[i])
		}
	}
	if resp.Analog == nil || resp.Analog.AnalogSeconds <= 0 {
		die("no analog cost accounting in response: %+v", resp)
	}
	fmt.Fprintf(os.Stderr, "[smoke] solve ok: u=%v residual=%.3g analog=%.3es\n",
		resp.U, resp.Residual, resp.Analog.AnalogSeconds)

	// 3. Scrape /metrics: the solve counter must have incremented.
	text, err := client.Metrics(ctx)
	if err != nil {
		die("metrics: %v", err)
	}
	for _, needle := range []string{
		`alad_solves_total{backend="analog-refined"} 1`,
		"alad_analog_seconds_total",
		"alad_request_seconds_count 1",
	} {
		if !strings.Contains(text, needle) {
			die("metrics missing %q", needle)
		}
	}
	fmt.Fprintf(os.Stderr, "[smoke] metrics ok\n")

	// 3.5. Session cache: re-solving the same matrix must land on the chip
	// that still holds it programmed, and a batch request must amortize one
	// programming across its right-hand sides. Both show up in /metrics.
	if _, err := client.Solve(ctx, eq2Request()); err != nil {
		die("repeat solve: %v", err)
	}
	batchResp, err := client.SolveBatch(ctx, serve.BatchSolveRequest{
		Backend: "analog-refined",
		N:       2,
		A: []serve.Entry{
			{Row: 0, Col: 0, Val: 0.8}, {Row: 0, Col: 1, Val: 0.2},
			{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
		},
		RHS: [][]float64{{0.5, 0.3}, {-0.2, 0.4}, {0.1, -0.6}},
		Tol: 1e-8,
	})
	if err != nil {
		die("batch solve: %v", err)
	}
	if len(batchResp.Items) != 3 {
		die("batch returned %d items, want 3", len(batchResp.Items))
	}
	for i := range want {
		if math.Abs(batchResp.Items[0].U[i]-want[i]) > 1e-6 {
			die("batch u[%d] = %v, want %v", i, batchResp.Items[0].U[i], want[i])
		}
	}
	// Three right-hand sides do not fill a lane wave, so every item runs
	// the scalar attempt loop and reports no lane width.
	for k, it := range batchResp.Items {
		if it.Analog == nil || it.Analog.Lanes != 0 {
			die("batch item %d rode a lane wave narrower than %d: analog=%+v", k, circuit.LaneWidth, it.Analog)
		}
	}
	text, err = client.Metrics(ctx)
	if err != nil {
		die("metrics after batch: %v", err)
	}
	if !strings.Contains(text, "alad_batch_rhs_total 3") {
		die("metrics missing alad_batch_rhs_total 3")
	}
	hitsRe := regexp.MustCompile(`alad_session_cache_hits_total (\d+)`)
	m := hitsRe.FindStringSubmatch(text)
	if m == nil || m[1] == "0" {
		die("session cache never hit: %q in metrics", hitsRe.String())
	}
	fmt.Fprintf(os.Stderr, "[smoke] session cache ok: hits=%s, batch of %d served scalar\n",
		m[1], len(batchResp.Items))

	// 3.7. Micro-batching coalescer: eight concurrent identical solo
	// solves of a fresh operator (n=8) must share waves instead of
	// settling one at a time on the single chip. A wave does not wait for
	// companions, so the chip is occupied first: a batch of holdRHS
	// right-hand sides on another n=8 operator holds the one class-8 chip
	// from its checkout until it returns, which outlasts the eight
	// arrivals, and the wave waiting behind it boards them. (-queue 16
	// admits the batch and all eight at once.) At least two must report
	// wave_lanes > 1, every residual must clear the tolerance, and —
	// packing independence — every answer must be bit-identical to every
	// other's.
	const holdRHS = 4096
	holdReq := serve.BatchSolveRequest{Backend: "analog-refined", Tol: 1e-8}
	hold := tridiag(8, 5, 1e-8)
	holdReq.N, holdReq.A = hold.N, hold.A
	for k := 0; k < holdRHS; k++ {
		holdReq.RHS = append(holdReq.RHS, hold.B)
	}
	var held *serve.BatchSolveResponse
	holdErr := make(chan error, 1)
	go func() {
		var err error
		held, err = client.SolveBatch(ctx, holdReq)
		holdErr <- err
	}()
	waitMetric(ctx, client, `alad_pool_chips_free{class="8"} 0`)
	var (
		coWG    sync.WaitGroup
		coMu    sync.Mutex
		coErr   error
		shared  int
		coResps [8]*serve.SolveResponse
	)
	for i := range coResps {
		coWG.Add(1)
		go func(i int) {
			defer coWG.Done()
			r, err := client.Solve(ctx, tridiag(8, 4, 1e-8))
			coMu.Lock()
			defer coMu.Unlock()
			if err != nil && coErr == nil {
				coErr = err
				return
			}
			coResps[i] = r
			if r != nil && r.Coalesced && r.WaveLanes > 1 {
				shared++
			}
		}(i)
	}
	coWG.Wait()
	if coErr != nil {
		die("coalesced solve: %v", coErr)
	}
	if err := <-holdErr; err != nil {
		die("chip-holding batch: %v", err)
	}
	if shared < 2 {
		die("coalescer never shared a wave: %d/8 requests report wave_lanes > 1", shared)
	}
	for i, r := range coResps {
		if r.Residual > 1e-6 {
			die("coalesced solve %d residual %v", i, r.Residual)
		}
		for j := range coResps[0].U {
			if r.U[j] != coResps[0].U[j] {
				die("coalesced u[%d][%d] = %v, lane 0 got %v (lanes not bit-identical)", i, j, r.U[j], coResps[0].U[j])
			}
		}
	}
	text, err = client.Metrics(ctx)
	if err != nil {
		die("metrics after coalesced solves: %v", err)
	}
	waveRe := regexp.MustCompile(`alad_wave_lanes_count (\d+)`)
	coalescedRe := regexp.MustCompile(`alad_coalesced_requests_total (\d+)`)
	wm, cm := waveRe.FindStringSubmatch(text), coalescedRe.FindStringSubmatch(text)
	if wm == nil || wm[1] == "0" {
		die("wave occupancy histogram never observed a wave: %q", waveRe.String())
	}
	if cm == nil || cm[1] == "0" {
		die("coalesced request counter never moved: %q", coalescedRe.String())
	}
	fmt.Fprintf(os.Stderr, "[smoke] coalescer ok: %d/8 requests shared waves, %s waves fired, %s coalesced, behind a %d-RHS batch of %.0f ms\n",
		shared, wm[1], cm[1], holdRHS, held.ElapsedMs)

	// 4. Oversized solve: n=16 against -max-dim 8 is bigger than any chip
	// class, so the daemon must partition it and fan the blocks out through
	// the decomposition engine instead of rejecting it as too_large.
	const big = 16
	var bigA []serve.Entry
	bigB := make([]float64, big)
	for i := 0; i < big; i++ {
		bigA = append(bigA, serve.Entry{Row: i, Col: i, Val: 4})
		if i > 0 {
			bigA = append(bigA, serve.Entry{Row: i, Col: i - 1, Val: -1})
			bigA = append(bigA, serve.Entry{Row: i - 1, Col: i, Val: -1})
		}
		bigB[i] = 1 + 0.25*float64(i%3)
	}
	bigResp, err := client.Solve(ctx, serve.SolveRequest{
		Backend: "analog-refined", N: big, A: bigA, B: bigB, Tol: 1e-6,
	})
	if err != nil {
		die("oversized solve: %v", err)
	}
	if bigResp.Backend != "decomposed" {
		die("oversized solve ran on %q, want decomposed", bigResp.Backend)
	}
	dec := bigResp.Decompose
	if dec == nil || dec.Blocks < 2 || dec.Sweeps < 1 || dec.Chips < 1 {
		die("oversized solve missing decompose stats: %+v", dec)
	}
	ref, err := solvers.SolveCSRDirect(la.MustCSR(big, bigA), la.Vector(bigB))
	if err != nil {
		die("digital reference: %v", err)
	}
	for i := range ref {
		if math.Abs(bigResp.U[i]-ref[i]) > 1e-5 {
			die("oversized u[%d] = %v, digital reference %v", i, bigResp.U[i], ref[i])
		}
	}
	text, err = client.Metrics(ctx)
	if err != nil {
		die("metrics after oversized solve: %v", err)
	}
	for _, needle := range []string{
		"alad_decomposed_total 1",
		`alad_solves_total{backend="decomposed"} 1`,
		"alad_sweep_seconds_count",
	} {
		if !strings.Contains(text, needle) {
			die("metrics missing %q after oversized solve", needle)
		}
	}
	fmt.Fprintf(os.Stderr, "[smoke] oversized solve ok: blocks=%d sweeps=%d chips=%d configs=%d reuse=%d\n",
		dec.Blocks, dec.Sweeps, dec.Chips, dec.Configs, dec.ReuseHits)

	// 5. Optionally, the CLI's remote path against the same daemon.
	if *alasolvePath != "" {
		out, err := exec.Command(*alasolvePath, "-server", d.addr, "-f", "testdata/eq2.txt").CombinedOutput()
		if err != nil {
			die("alasolve -server: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "served by") {
			die("alasolve -server did not go remote:\n%s", out)
		}
		fmt.Fprintf(os.Stderr, "[smoke] alasolve -server ok\n")

		// Batch mode over the wire: a full lane wave of right-hand sides,
		// one programming.
		rhsFile := fmt.Sprintf("%s/smoke-rhs-%d.txt", os.TempDir(), os.Getpid())
		var rows strings.Builder
		for k := 0; k < circuit.LaneWidth; k++ {
			fmt.Fprintf(&rows, "%g %g\n", 0.5-0.05*float64(k), 0.3+0.02*float64(k))
		}
		if err := os.WriteFile(rhsFile, []byte(rows.String()), 0o644); err != nil {
			die("writing rhs file: %v", err)
		}
		defer os.Remove(rhsFile)
		out, err = exec.Command(*alasolvePath, "-server", d.addr, "-f", "testdata/eq2.txt", "-rhs-file", rhsFile).CombinedOutput()
		if err != nil {
			die("alasolve -rhs-file: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "# rhs 15") || !strings.Contains(string(out), fmt.Sprintf("%d rhs served by", circuit.LaneWidth)) {
			die("alasolve -rhs-file output malformed:\n%s", out)
		}
		// Every right-hand side settles in the one full lane wave on the
		// daemon's fused engine where the CPU has the lane kernels, and
		// the per-item cost line says so; elsewhere the chip refuses lane
		// mode and every item runs scalar.
		want := 0
		if circuit.LaneKernels() {
			want = circuit.LaneWidth
		}
		if got := strings.Count(string(out), fmt.Sprintf(", %d lanes", circuit.LaneWidth)); got != want {
			die("alasolve -rhs-file: %d rhs settled at %d lanes, want %d:\n%s", got, circuit.LaneWidth, want, out)
		}
		fmt.Fprintf(os.Stderr, "[smoke] alasolve -rhs-file ok (%d rhs, lane kernels %t)\n", circuit.LaneWidth, circuit.LaneKernels())

		// Async round trip: submit with -async, then fetch the result by
		// job ID with -wait.
		out, err = exec.Command(*alasolvePath, "-server", d.addr, "-f", "testdata/eq2.txt", "-async", "-q").CombinedOutput()
		if err != nil {
			die("alasolve -async: %v\n%s", err, out)
		}
		jobID := strings.TrimSpace(string(out))
		if !strings.HasPrefix(jobID, "j-") {
			die("alasolve -async printed %q, want a job ID", jobID)
		}
		out, err = exec.Command(*alasolvePath, "-server", d.addr, "-job", jobID, "-wait").CombinedOutput()
		if err != nil {
			die("alasolve -job -wait: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "done") || !strings.Contains(string(out), "u[0]") {
			die("alasolve -job -wait output malformed:\n%s", out)
		}
		fmt.Fprintf(os.Stderr, "[smoke] alasolve -async / -job ok (%s)\n", jobID)
	}

	// 6. SIGTERM and assert a clean drain.
	d.terminate()
	fmt.Fprintf(os.Stderr, "[smoke] drain ok\n")

	// 7. Crash replay: the durable job queue's reason to exist. A
	// journal-backed daemon accepts a job, gets SIGKILLed while the job
	// is mid-flight (held there by -job-exec-delay), and a fresh daemon
	// on the same store must finish it — exactly once, bit-identically,
	// with the interrupted attempt visible in the attempt count.
	crashReplay(ctx, *aladPath)
	fmt.Fprintf(os.Stderr, "[smoke] crash replay ok\n")

	// 8. Federation gauntlet: a 3-node fingerprint-affinity cluster must
	// route repeat traffic to the resident node, survive the affinity
	// owner's SIGKILL via rendezvous fallback, and scatter-gather an
	// oversized solve bit-identically to the single-node path.
	federationGauntlet(ctx, *aladPath, *alasolvePath)
	fmt.Fprintf(os.Stderr, "[smoke] federation ok\n")
}

// pickPort reserves a free loopback port by binding and releasing it;
// federation daemons need their address known up front so every node can
// be told its peers' URLs before any of them has started.
func pickPort() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		die("picking port: %v", err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// waitMetric polls /metrics until the needle appears (the federation
// membership view converges one poll cycle after boot).
func waitMetric(ctx context.Context, c *serve.Client, needle string) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		text, err := c.Metrics(ctx)
		if err == nil && strings.Contains(text, needle) {
			return
		}
		if time.Now().After(deadline) {
			die("metrics never showed %q", needle)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// tridiag builds the n-order tridiagonal test operator shared by the
// federation steps: distinct fingerprint per (diag, n), cheap to solve.
func tridiag(n int, diag float64, tol float64) serve.SolveRequest {
	req := serve.SolveRequest{Backend: "analog-refined", N: n, Tol: tol}
	for i := 0; i < n; i++ {
		req.A = append(req.A, serve.Entry{Row: i, Col: i, Val: diag})
		if i > 0 {
			req.A = append(req.A, serve.Entry{Row: i, Col: i - 1, Val: -1})
			req.A = append(req.A, serve.Entry{Row: i - 1, Col: i, Val: -1})
		}
		req.B = append(req.B, 1+0.25*float64(i%3))
	}
	return req
}

func federationGauntlet(ctx context.Context, aladPath, alasolvePath string) {
	// Boot three federated daemons with tiny single-chip pools. Each
	// advertises a pre-picked port and lists the other two as peers.
	const n = 3
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", pickPort())
	}
	nodes := make([]*daemon, n)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nodes[i] = startDaemon(aladPath,
			"-addr", strings.TrimPrefix(urls[i], "http://"),
			"-pool", "1", "-warm", "2", "-max-dim", "8",
			"-federation", "-advertise", urls[i], "-peers", strings.Join(peers, ","),
			"-poll-interval", "100ms")
		defer nodes[i].cmd.Process.Kill()
	}
	byName := func(name string) int {
		for i, u := range urls {
			if u == name {
				return i
			}
		}
		die("federation: response served by unknown node %q", name)
		return -1
	}
	clients := make([]*serve.Client, n)
	for i := range clients {
		clients[i] = serve.NewClient(urls[i])
		waitMetric(ctx, clients[i], "alad_fed_cluster_nodes 3")
	}

	// Same fingerprint through two different entry nodes: both must land
	// on the rendezvous owner, and the second solve must be a warm hit on
	// the owner's already-programmed chip.
	req := tridiag(4, 4.0, 1e-8)
	resp1, err := clients[0].Solve(ctx, req)
	if err != nil {
		die("federation: solve via node0: %v", err)
	}
	owner := byName(resp1.ServedBy)
	ownerStats0, err := clients[owner].PeerStats(ctx)
	if err != nil {
		die("federation: owner stats: %v", err)
	}
	entry := (owner + 1) % n // guaranteed not the owner
	resp2, err := clients[entry].Solve(ctx, req)
	if err != nil {
		die("federation: solve via node%d: %v", entry, err)
	}
	if resp2.ServedBy != resp1.ServedBy {
		die("federation: same operator served by %s then %s", resp1.ServedBy, resp2.ServedBy)
	}
	if resp2.Affinity != "hit" {
		die("federation: cross-node repeat got affinity %q, want hit", resp2.Affinity)
	}
	ownerStats1, err := clients[owner].PeerStats(ctx)
	if err != nil {
		die("federation: owner stats after repeat: %v", err)
	}
	if ownerStats1.CacheHits <= ownerStats0.CacheHits {
		die("federation: owner cache hits did not move (%d -> %d): repeat was not a warm hit",
			ownerStats0.CacheHits, ownerStats1.CacheHits)
	}
	text, err := clients[entry].Metrics(ctx)
	if err != nil {
		die("federation: entry metrics: %v", err)
	}
	if !regexp.MustCompile(`alad_fed_routed_total\{route="hit"\} [1-9]`).MatchString(text) {
		die("federation: entry node missing routed hit counter")
	}
	if !strings.Contains(text, "alad_fed_cluster_cache_hit_rate") {
		die("federation: cluster hit rate gauge missing from /metrics")
	}
	fmt.Fprintf(os.Stderr, "[smoke] federation warm hit ok: owner=%s hits %d -> %d\n",
		resp1.ServedBy, ownerStats0.CacheHits, ownerStats1.CacheHits)

	// Register-then-solve across nodes: upload an operator once through
	// node0 (the router lands it on its rendezvous owner), then solve by
	// fingerprint through a different node. The warm request must carry
	// zero matrix bytes, answer bit-identically to the by-value solve,
	// and move the owning node's registry counters.
	regReq := tridiag(4, 5.0, 1e-8)
	regByVal, err := clients[1].Solve(ctx, regReq)
	if err != nil {
		die("federation: by-value baseline: %v", err)
	}
	info, err := clients[0].RegisterOperator(ctx, serve.OperatorRequest{N: regReq.N, A: regReq.A})
	if err != nil {
		die("federation: register operator via node0: %v", err)
	}
	regOwner := byName(info.ServedBy)
	refReq := serve.SolveRequest{Backend: "analog-refined", Fingerprint: info.Fingerprint, B: regReq.B, Tol: regReq.Tol}
	rawRef, err := json.Marshal(refReq)
	if err != nil {
		die("federation: encoding by-ref request: %v", err)
	}
	if strings.Contains(string(rawRef), `"A"`) || len(rawRef) > 512 {
		die("federation: by-ref request still carries matrix bytes (%dB): %s", len(rawRef), rawRef)
	}
	regByRef, err := clients[2].Solve(ctx, refReq)
	if err != nil {
		die("federation: by-ref solve via node2: %v", err)
	}
	if regByRef.ServedBy != info.ServedBy {
		die("federation: by-ref solve served by %s, operator lives on %s", regByRef.ServedBy, info.ServedBy)
	}
	for i := range regByVal.U {
		if regByRef.U[i] != regByVal.U[i] {
			die("federation: by-ref u[%d] = %v, by-value %v — must be bit-identical", i, regByRef.U[i], regByVal.U[i])
		}
	}
	regText, err := clients[regOwner].Metrics(ctx)
	if err != nil {
		die("federation: owner metrics: %v", err)
	}
	if !strings.Contains(regText, "alad_registry_operators 1") {
		die("federation: owner registry gauge missing/wrong after registration")
	}
	if !regexp.MustCompile(`alad_registry_hits_total [1-9]`).MatchString(regText) {
		die("federation: owner registry hits did not move on the by-ref solve")
	}
	fmt.Fprintf(os.Stderr, "[smoke] federation register-then-solve ok: owner=%s by-ref request %dB, bit-identical\n",
		info.ServedBy, len(rawRef))

	// alasolve provenance: the multi-endpoint client must print which
	// node served and how the request was routed.
	if alasolvePath != "" {
		out, err := exec.Command(alasolvePath,
			"-server", strings.Join(urls, ","), "-f", "testdata/eq2.txt").CombinedOutput()
		if err != nil {
			die("alasolve federation: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "served-by=") || !strings.Contains(string(out), "affinity=") {
			die("alasolve federation output missing routing provenance:\n%s", out)
		}
		fmt.Fprintf(os.Stderr, "[smoke] alasolve federation provenance ok\n")
	}

	// Oversized scatter-gather: n=16 against -max-dim 8 pools decomposes
	// across the cluster's chips and must answer bit-identically to a
	// standalone daemon with the same pool knobs solving it alone.
	big := tridiag(16, 4.0, 1e-6)
	solo := startDaemon(aladPath, "-pool", "1", "-warm", "2", "-max-dim", "8")
	defer solo.cmd.Process.Kill()
	ref, err := solo.client().Solve(ctx, big)
	if err != nil {
		die("federation: standalone oversized solve: %v", err)
	}
	fed, err := clients[entry].Solve(ctx, big)
	if err != nil {
		die("federation: oversized solve: %v", err)
	}
	if fed.Backend != "decomposed" || ref.Backend != "decomposed" {
		die("federation: oversized solves ran on %q / %q, want decomposed", fed.Backend, ref.Backend)
	}
	if fed.Decompose == nil || fed.Decompose.Chips < 2 {
		die("federation: oversized solve did not scatter: %+v", fed.Decompose)
	}
	for i := range ref.U {
		if fed.U[i] != ref.U[i] {
			die("federation: scattered u[%d] = %v, standalone %v — must be bit-identical", i, fed.U[i], ref.U[i])
		}
	}
	solo.terminate()
	fmt.Fprintf(os.Stderr, "[smoke] federation scatter-gather ok: %d blocks on %d chips, bit-identical\n",
		fed.Decompose.Blocks, fed.Decompose.Chips)

	// SIGKILL the affinity owner: the next solve for its operator must
	// re-route to the rendezvous fallback instead of failing.
	nodes[owner].kill()
	fmt.Fprintf(os.Stderr, "[smoke] killed affinity owner %s\n", urls[owner])
	resp3, err := clients[entry].Solve(ctx, req)
	if err != nil {
		die("federation: solve after owner kill: %v", err)
	}
	if resp3.ServedBy == urls[owner] {
		die("federation: dead owner %s answered", urls[owner])
	}
	// The label races the health poll: before the poll notices the kill
	// the forward fails over ("fallback"); after, the dead node drops out
	// of the HRW candidate set and the promoted survivor is the operator's
	// new legitimate owner ("hit", or "local" if that is the entry node).
	// Any of the three is a correct re-route — only the dead owner
	// answering, or the solve failing outright, would be wrong.
	switch resp3.Affinity {
	case "fallback", "local", "hit":
	default:
		die("federation: post-kill affinity %q, want fallback/hit/local", resp3.Affinity)
	}
	fmt.Fprintf(os.Stderr, "[smoke] federation failover ok: served-by=%s affinity=%s\n",
		resp3.ServedBy, resp3.Affinity)

	// Surviving nodes still drain clean.
	for i, d := range nodes {
		if i != owner {
			d.terminate()
		}
	}
}

func crashReplay(ctx context.Context, aladPath string) {
	dir, err := os.MkdirTemp("", "alad-smoke-jobs-")
	if err != nil {
		die("mkdir store: %v", err)
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "jobs.wal")

	// First incarnation: one worker, and a 3s fault-injection hold
	// between lease and execution so the SIGKILL reliably lands while
	// the job is non-terminal.
	d1 := startDaemon(aladPath,
		"-pool", "1", "-warm", "2", "-max-dim", "8",
		"-store", store, "-job-workers", "1", "-job-lease", "2s", "-job-exec-delay", "3s")
	defer d1.cmd.Process.Kill()
	c1 := d1.client()

	// The synchronous answer is the reference the replayed job must
	// reproduce bit-for-bit (the simulation is deterministic).
	ref, err := c1.Solve(ctx, eq2Request())
	if err != nil {
		die("crash: reference solve: %v", err)
	}

	req := eq2Request()
	st, err := c1.SubmitJob(ctx, serve.JobSubmitRequest{Solve: &req})
	if err != nil {
		die("crash: submit: %v", err)
	}
	jobID := st.ID

	// Wait for a worker to pick it up (leased or running), then pull the
	// plug while the exec-delay holds it mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c1.Job(ctx, jobID, 0)
		if err != nil {
			die("crash: poll: %v", err)
		}
		if cur.State == "leased" || cur.State == "running" {
			break
		}
		if cur.State != "queued" {
			die("crash: job reached %s before the kill", cur.State)
		}
		if time.Now().After(deadline) {
			die("crash: job never left queued")
		}
		time.Sleep(20 * time.Millisecond)
	}
	d1.kill()
	fmt.Fprintf(os.Stderr, "[smoke] killed alad with job %s mid-flight\n", jobID)

	// Second incarnation on the same journal, no fault injection: boot
	// replay must reclaim the orphaned lease and finish the job.
	d2 := startDaemon(aladPath,
		"-pool", "1", "-warm", "2", "-max-dim", "8",
		"-store", store, "-job-workers", "1", "-job-lease", "2s")
	defer d2.cmd.Process.Kill()
	c2 := d2.client()

	final, err := c2.WaitJob(ctx, jobID)
	if err != nil {
		die("crash: waiting for replayed job: %v", err)
	}
	if final.State != "done" {
		die("crash: replayed job finished %s (error %+v)", final.State, final.Error)
	}
	if final.Attempts != 2 {
		die("crash: replayed job took %d attempts, want 2 (one interrupted, one replayed)", final.Attempts)
	}
	var jobResp serve.SolveResponse
	if err := json.Unmarshal(final.Result, &jobResp); err != nil {
		die("crash: decoding job result: %v", err)
	}
	if len(jobResp.U) != len(ref.U) {
		die("crash: job answered %d values, reference %d", len(jobResp.U), len(ref.U))
	}
	for i := range ref.U {
		if jobResp.U[i] != ref.U[i] {
			die("crash: u[%d] = %v, reference %v — replayed result must be bit-identical", i, jobResp.U[i], ref.U[i])
		}
	}

	// Exactly-once: re-submitting the identical request must dedup onto
	// the finished job, not re-solve.
	dup, err := c2.SubmitJob(ctx, serve.JobSubmitRequest{Solve: &req})
	if err != nil {
		die("crash: duplicate submit: %v", err)
	}
	if dup.ID != jobID || !dup.Deduped {
		die("crash: duplicate submit answered %+v, want dedup onto %s", dup, jobID)
	}

	text, err := c2.Metrics(ctx)
	if err != nil {
		die("crash: metrics: %v", err)
	}
	for _, re := range []string{
		`alad_jobs_replayed_total [1-9]`,
		`alad_jobs_lease_expired_total [1-9]`,
		`alad_jobs_dedup_total [1-9]`,
		`alad_jobs_completed_total [1-9]`,
		`alad_jobs_state\{state="done"\} [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			die("crash: metrics missing %s", re)
		}
	}

	// And the journal-backed daemon still drains clean.
	d2.terminate()
}

// die reports a failed step, SIGKILLs every daemon the smoke started
// (one already gone just fails its Kill) and exits 1.
func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smoke: "+format+"\n", args...)
	startedMu.Lock()
	for _, cmd := range started {
		_ = cmd.Process.Kill()
	}
	startedMu.Unlock()
	os.Exit(1)
}
