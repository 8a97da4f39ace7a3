// Command alad is the analog-accelerator solve daemon: an HTTP/JSON
// service that keeps a pool of pre-built, pre-calibrated simulated chips
// warm and serves A·u = b solve requests on them (or on the digital
// baseline backends), with bounded admission, per-request deadlines, and
// a /metrics observability surface.
//
// Usage:
//
//	alad -addr :8080 -pool 4
//	curl -s localhost:8080/v1/solve -d '{
//	  "backend": "analog-refined",
//	  "n": 2,
//	  "A": [{"i":0,"j":0,"v":0.8},{"i":0,"j":1,"v":0.2},
//	        {"i":1,"j":0,"v":0.2},{"i":1,"j":1,"v":0.6}],
//	  "b": [0.5, 0.3]
//	}'
//	curl -s localhost:8080/metrics
//
// With -federation the daemon joins a fingerprint-affinity cluster:
// requests entering any node are routed to the rendezvous owner of the
// matrix fingerprint, so repeat traffic lands where the operator is
// already programmed:
//
//	alad -addr :8080 -federation -advertise http://host1:8080 \
//	     -peers http://host2:8080,http://host3:8080
//
// SIGINT/SIGTERM flip /readyz to 503 (peers stop routing here) and
// drain in-flight solves before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers on DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"analogacc/internal/federation"
	"analogacc/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		pool      = flag.Int("pool", 2, "chips per size class")
		warm      = flag.String("warm", "4,16", "comma-separated system orders whose chip classes are pre-built at startup")
		maxDim    = flag.Int("max-dim", 256, "largest servable system order")
		queue     = flag.Int("queue", 64, "admission queue bound (requests beyond it get 429)")
		adcBits   = flag.Int("adc-bits", 12, "chip converter resolution")
		bandwidth = flag.Float64("bandwidth", 20e3, "chip analog bandwidth in Hz")
		maxBatch  = flag.Int("max-batch", 64, "largest number of right-hand sides one /v1/solve/batch request may carry")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-request solve deadline")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight solves")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")

		federate   = flag.Bool("federation", false, "enable the fingerprint-affinity federation router (requires -advertise; use -peers for a multi-node cluster)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs (e.g. http://host2:8080,http://host3:8080)")
		advertise  = flag.String("advertise", "", "this node's own base URL as peers reach it (e.g. http://host1:8080); also the node name stamped into responses")
		pollEvery  = flag.Duration("poll-interval", time.Second, "federation membership health-poll period")
		noAffinity = flag.Bool("no-affinity", false, "federation: route to a random healthy member instead of the fingerprint owner (baseline/debug)")

		store        = flag.String("store", "", "async job journal path (empty: jobs run in memory and do not survive restarts)")
		jobWorkers   = flag.Int("job-workers", 2, "async job executor goroutines (-1 disables execution)")
		jobLease     = flag.Duration("job-lease", 10*time.Second, "async job lease TTL; a dead executor loses its job back to the queue after this long")
		jobQueue     = flag.Int("job-queue", 256, "async job backlog bound (submissions beyond it get 429)")
		jobQuota     = flag.Int("job-quota", 0, "per-tenant live async job cap (0 = unlimited)")
		jobExecDelay = flag.Duration("job-exec-delay", 0, "fault-injection hold between leasing and executing each job group (crash testing only)")

		regMaxOps   = flag.Int("registry-max-ops", 256, "operator registry capacity (registered matrices; LRU evicts beyond it)")
		regMaxBytes = flag.Int64("registry-max-bytes", 256<<20, "operator registry byte cap (estimated resident bytes; LRU evicts beyond it)")
	)
	flag.Parse()

	warmSizes, err := parseWarm(*warm)
	if err != nil {
		log.Fatalf("alad: %v", err)
	}
	if *federate && *advertise == "" {
		log.Fatalf("alad: -federation requires -advertise (the URL peers reach this node at)")
	}
	nodeName := federation.NormalizeURL(*advertise)
	srv, err := serve.New(serve.Config{
		NodeName: nodeName,
		Pool: serve.PoolConfig{
			ChipsPerClass: *pool,
			WarmSizes:     warmSizes,
			MaxDim:        *maxDim,
			ADCBits:       *adcBits,
			Bandwidth:     *bandwidth,
		},
		QueueBound:     *queue,
		MaxBatchRHS:    *maxBatch,
		DefaultTimeout: *timeout,
		JobStore:       *store,
		JobWorkers:     *jobWorkers,
		JobLeaseTTL:    *jobLease,
		JobMaxQueued:   *jobQueue,
		JobTenantQuota: *jobQuota,
		JobExecDelay:   *jobExecDelay,

		RegistryMaxOps:   *regMaxOps,
		RegistryMaxBytes: *regMaxBytes,
	})
	if err != nil {
		log.Fatalf("alad: %v", err)
	}

	if *pprofAddr != "" {
		// A separate listener keeps the profiling surface off the public
		// service port; the pprof import registered its handlers on
		// http.DefaultServeMux, which the main server never uses.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("alad: pprof listener: %v", err)
		}
		log.Printf("alad: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("alad: pprof server: %v", err)
			}
		}()
	}

	var router *federation.Router
	handler := srv.Handler()
	if *federate {
		router = federation.NewRouter(federation.Config{
			Self:         nodeName,
			Peers:        federation.SplitEndpoints(*peers),
			PollInterval: *pollEvery,
			Disabled:     *noAffinity,
		}, srv)
		router.Start()
		defer router.Stop()
		handler = router.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("alad: %v", err)
	}
	httpSrv := &http.Server{Handler: handler}
	log.Printf("alad: listening on %s (pool %d/class, warm %v, queue %d)",
		ln.Addr(), *pool, warmSizes, *queue)
	if router != nil {
		log.Printf("alad: federation on as %s (peers %v, affinity %v, poll %v)",
			nodeName, federation.SplitEndpoints(*peers), !*noAffinity, *pollEvery)
	}
	if js := srv.Jobs().Stats(); js.Replayed > 0 || *store != "" {
		log.Printf("alad: job store %q: %d jobs replayed (%d lease reclaims, %d torn records dropped), %d queued",
			*store, js.Replayed, js.LeaseExpired, js.TornDropped, js.Queued)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("alad: %v — draining in-flight solves (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Flip /readyz to 503 first so federation peers and load balancers
		// stop sending new work while in-flight solves finish.
		srv.SetDraining(true)
		if router != nil {
			router.Stop()
		}
		// Drain order: stop leasing new async work first, then close the
		// HTTP side (finishing admitted requests), then let running jobs
		// complete within the remaining budget. Whatever stays queued is
		// already journaled and replays on the next boot.
		srv.PauseJobs()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Fatalf("alad: drain incomplete: %v", err)
		}
		queued, derr := srv.DrainJobs(ctx)
		if derr != nil {
			log.Printf("alad: job drain incomplete (%v); running jobs re-queue via lease expiry on next boot", derr)
		}
		if err := srv.Close(); err != nil {
			log.Printf("alad: closing job store: %v", err)
		}
		log.Printf("alad: %d queued jobs persisted for next boot", queued)
		log.Printf("alad: drained, bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("alad: %v", err)
		}
	}
}

func parseWarm(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad warm size %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
