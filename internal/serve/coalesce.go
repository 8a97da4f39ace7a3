package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/core"
	"analogacc/internal/la"
)

// Dynamic micro-batching. The paper's economics amortize one matrix
// programming across many solves; the lane engine (§12) settles up to 16
// right-hand sides in one fused wave. The coalescer closes the gap for
// concurrent *solo* requests: in-flight solves of the same operator
// (fingerprint + order + backend + tolerance) are grouped for a bounded
// window and executed as one Session.SolveBatch wave on one checked-out
// chip. Every analog solo solve enrolls: a request nobody joins rides a
// wave of one, which dispatches exactly like an uncoalesced solve.
// Packing independence makes the grouping invisible to callers — every
// lane solves from batch-entry session state, so a coalesced answer is
// bit-identical to the solo answer (proven differentially in
// coalesce_test.go and paths_test.go).
//
// The window is self-clocking, the shape inference servers use for
// continuous batching: a group opened on an otherwise-idle server whose
// operator already has an idle resident chip fires immediately (an
// unloaded server adds ~zero latency), while under load membership stays
// open through the chip-checkout stall, so same-operator arrivals
// accumulate into full waves — exactly when batching pays. A group also
// closes early the moment it fills core.MaxBatchLanes lanes.

// waveKey identifies requests that may share a wave: same matrix (content
// fingerprint and order), same backend, same tolerance. Anything that can
// change the answer is part of the key.
type waveKey struct {
	fp      uint64
	n       int
	backend string
	tol     float64
}

// waveResult is what executing a call produced: one outcome per
// right-hand side, the serving chip's pool size class, and the width of
// the wave a solo call rode (0 off the coalescer) — or the error. The
// coalescer delivers one to each member, holding its lane's outcome.
type waveResult struct {
	outs  []cli.Outcome
	class int
	lanes int
	err   error
}

// waveMember is one enrolled request: its right-hand side, its own
// context (deadlines stay per-request), and a buffered result channel so
// the runner never blocks on a member that abandoned at its deadline.
type waveMember struct {
	ctx    context.Context
	b      la.Vector
	joined time.Time
	done   chan waveResult
}

// wave is one forming group. Members append under the coalescer mutex
// while the group is reachable from groups; the runner unlinks it there
// before reading members, so the slice is immutable once the wave fires.
type wave struct {
	key     waveKey
	a       *la.CSR
	params  cli.SolveParams
	members []*waveMember
	// fire closes the window early; the buffered send carries the reason
	// ("full", "resident") for the close-reason counters.
	fire chan string
	// ctx lives while any member still waits for its lane: each member
	// leaving on its own context drops live (under the coalescer mutex),
	// and the last one out cancels it. The chip checkout and a multi-lane
	// execution run under it, so a member that boards late is bound by
	// its own deadline, not by those of the members before it.
	ctx    context.Context
	cancel context.CancelFunc
	live   int
}

// coalescer groups in-flight solo solves by waveKey. One runner goroutine
// per open group owns the window timer, the single pool checkout, and the
// batch execution; members block on their lane's result under their own
// context.
type coalescer struct {
	s        *Server
	window   time.Duration
	maxLanes int

	// lastMulti is the UnixNano seal time of the most recent multi-lane
	// wave: the live-traffic signal that arms the boarding debounce (see
	// run).
	lastMulti atomic.Int64

	mu     sync.Mutex
	groups map[waveKey]*wave
}

// quiet is how long after a multi-lane seal the boarding debounce stays
// armed. Scaled to the window (the knob that already expresses the
// operator's latency tolerance) with a floor comfortably above a loaded
// wave boundary's response-to-next-request turnaround, which can run
// tens of milliseconds when every lane's response encodes on a busy
// CPU. A strictly sequential client never seals multi-lane waves, so it
// never pays the debounce.
func (c *coalescer) quiet() time.Duration {
	q := 100 * c.window
	if q < 250*time.Millisecond {
		q = 250 * time.Millisecond
	}
	return q
}

func newCoalescer(s *Server, window time.Duration) *coalescer {
	maxLanes := core.MaxBatchLanes
	if s.cfg.MaxBatchRHS > 0 && s.cfg.MaxBatchRHS < maxLanes {
		maxLanes = s.cfg.MaxBatchRHS
	}
	return &coalescer{s: s, window: window, maxLanes: maxLanes, groups: make(map[waveKey]*wave)}
}

// solve enrolls one request and blocks for its lane's result. When the
// member's own context expires first, the wave keeps running for
// everyone else and the result carries this caller's ctx error.
func (c *coalescer) solve(ctx context.Context, key waveKey, a *la.CSR, b la.Vector, params cli.SolveParams) waveResult {
	m := &waveMember{ctx: ctx, b: b, joined: time.Now(), done: make(chan waveResult, 1)}
	c.mu.Lock()
	g := c.groups[key]
	if g == nil {
		g = &wave{key: key, a: a, params: params, fire: make(chan string, 1), live: 1}
		g.ctx, g.cancel = context.WithCancel(context.Background())
		g.members = append(g.members, m)
		c.groups[key] = g
		// An *unloaded* server with an idle chip already holding this
		// operator gains nothing by waiting: fire now and the window adds
		// ~zero latency to the lone hot-operator caller.
		resident := c.s.metrics.inFlight.Load() <= 1 && c.s.pool.HasIdleResident(a)
		c.mu.Unlock()
		if resident {
			g.fire <- "resident"
		}
		go c.run(g)
	} else {
		g.members = append(g.members, m)
		g.live++
		full := len(g.members) >= c.maxLanes
		if full {
			// Unlink under the mutex so no 17th member can join between
			// the fill and the runner's pickup.
			delete(c.groups, key)
		}
		c.mu.Unlock()
		if full {
			select {
			case g.fire <- "full":
			default:
			}
		}
	}
	// Stop only on the result path: once ctx is done, leave must run, and
	// a racing stop could otherwise cancel it.
	stop := context.AfterFunc(ctx, func() { c.leave(g) })
	select {
	case r := <-m.done:
		stop()
		return r
	case <-ctx.Done():
		return waveResult{err: ctx.Err()}
	}
}

// leave drops one member that gave up on its own context. The last member
// out unlinks a still-forming wave before cancelling it, so no arrival can
// board a cancelled wave; its abandoned lane result lands in the buffered
// done channel unread.
func (c *coalescer) leave(g *wave) {
	c.mu.Lock()
	g.live--
	last := g.live == 0
	if last && c.groups[g.key] == g {
		delete(c.groups, g.key)
	}
	c.mu.Unlock()
	if last {
		g.cancel()
	}
}

// run owns one wave: wait out the window (or an early close), check out
// one chip — membership stays open the whole time the pool makes the
// wave wait, which is the load-adaptive half of the design: on a busy
// pool the checkout stall is exactly when same-operator arrivals pile
// up, and they all board this wave. The membership seals the moment a
// chip is in hand; then the group executes as a single batch, fanning
// per-lane results back out.
func (c *coalescer) run(g *wave) {
	reason := "window"
	timer := time.NewTimer(c.window)
	select {
	case reason = <-g.fire:
	case <-timer.C:
	}
	timer.Stop()

	s := c.s
	defer g.cancel()
	pc, err := s.pool.Checkout(g.ctx, g.a)

	// Boarding: with the chip in hand, under live coalescing traffic the
	// wave lingers while companions are still streaming in. A closed set
	// of clients resubmits the moment a wave's responses flush, but those
	// arrivals serialize behind each other's encode/decode, spreading one
	// logical burst over several milliseconds — far past any sane base
	// window. Debouncing on joins (seal only after a full idle period
	// admits nobody) collects the whole burst into one wave without
	// penalizing anyone: the wave already owns the chip, and each join it
	// waits for is a solve that would otherwise idle in the next queue.
	// Cold traffic (no recent multi-lane seal) skips this entirely.
	if err == nil && time.Duration(time.Now().UnixNano()-c.lastMulti.Load()) <= c.quiet() {
		idle := c.window
		if idle < time.Millisecond {
			idle = time.Millisecond
		}
		deadline := time.Now().Add(25 * idle)
		c.mu.Lock()
		last := len(g.members)
		c.mu.Unlock()
		for last < c.maxLanes && time.Now().Before(deadline) {
			time.Sleep(idle)
			c.mu.Lock()
			cur := len(g.members)
			c.mu.Unlock()
			if cur == last {
				break
			}
			last = cur
		}
	}

	// Seal: unlink the group so no one else can board, then read the
	// final membership (append-only while reachable, immutable now).
	c.mu.Lock()
	if c.groups[g.key] == g {
		delete(c.groups, g.key)
	}
	members := g.members
	c.mu.Unlock()
	if len(members) >= c.maxLanes {
		reason = "full"
	}
	if len(members) > 1 {
		c.lastMulti.Store(time.Now().UnixNano())
	}

	launch := time.Now()
	s.metrics.ObserveWave(len(members), reason)
	for _, m := range members {
		s.metrics.coalesceWait.ObserveDuration(launch.Sub(m.joined))
	}

	// A wave of one runs under its member's own context, exactly as an
	// uncoalesced solve would; a wider wave while any member still waits.
	ctx := g.ctx
	if len(members) == 1 {
		ctx = members[0].ctx
	}
	var (
		outs  []cli.Outcome
		class int
	)
	if err == nil {
		class = pc.Class
		rhs := make([]la.Vector, len(members))
		for i, m := range members {
			rhs[i] = m.b
		}
		outs, err = s.execute(ctx, pc, g.key.backend, g.a, rhs, g.params)
	}
	for i, m := range members {
		r := waveResult{class: class, lanes: len(members), err: err}
		if err == nil {
			r.outs = outs[i : i+1]
		}
		m.done <- r
	}
}
