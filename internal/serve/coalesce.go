package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"analogacc/internal/circuit"
	"analogacc/internal/cli"
	"analogacc/internal/la"
)

// Dynamic micro-batching. The paper's economics amortize one matrix
// programming across many solves; the lane engine (§12) settles 16
// right-hand sides in one fused wave. The coalescer closes the gap for
// concurrent *solo* requests: in-flight solves of the same operator
// (fingerprint + order + backend + tolerance) are grouped and executed
// as one Session.SolveBatch on one checked-out chip — a full lane wave
// when 16 board, the scalar attempt loop per member for 2–15. Every analog
// solo solve enrolls: a request nobody joins rides a wave of one, which
// dispatches exactly like an uncoalesced solve. Packing independence
// makes the grouping invisible to callers — every lane solves from
// batch-entry session state, so a coalesced answer is bit-identical to
// the solo answer (proven differentially in coalesce_test.go and
// paths_test.go).
//
// A wave goes straight to the pool's checkout when its first member
// arrives, so an idle server adds no wait; membership
// stays open through the checkout stall, so under load same-operator
// arrivals pile into the waiting wave — the continuous-batching shape,
// with the chip pool as the pacing clock. A wave closes the moment it
// fills circuit.LaneWidth lanes. Members that must ride together (a
// job and its leased operator-mates) join in one critical section.

// The boarding debounce (see run): with the chip in hand, a wave seals
// only after boardIdle passes with nobody new boarding, for at most
// boardIdles periods, and only while a multi-lane wave sealed within
// boardQuiet. The quiet floor sits comfortably above a loaded wave
// boundary's response-to-next-request turnaround, which can run tens of
// milliseconds when every lane's response encodes on a busy CPU; a
// strictly sequential client never seals multi-lane waves, so it never
// pays the debounce.
const (
	boardIdle  = time.Millisecond
	boardIdles = 25
	boardQuiet = 250 * time.Millisecond
)

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

// waveMember is one enrolled request: its wave key and the system a wave
// it opens runs, its right-hand side, its own context (deadlines stay
// per-request), and a buffered result channel so the runner never blocks
// on a member that abandoned at its deadline.
type waveMember struct {
	ctx    context.Context
	key    waveKey
	a      *la.CSR
	params cli.SolveParams
	b      la.Vector
	joined time.Time
	done   chan waveResult
	// stop unregisters the member's leave hook (see join).
	stop func() bool
}

// wave is one forming group. Members append under the coalescer mutex
// while the group is reachable from groups; the runner unlinks it there
// before reading members, so the slice is immutable once the wave seals.
type wave struct {
	key     waveKey
	a       *la.CSR
	params  cli.SolveParams
	members []*waveMember
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
// per open group owns the single pool checkout and the batch execution;
// members block on their lane's result under their own context.
type coalescer struct {
	s        *Server
	maxLanes int

	// lastMulti is the UnixNano seal time of the most recent multi-lane
	// wave: the live-traffic signal that arms the boarding debounce.
	lastMulti atomic.Int64

	mu     sync.Mutex
	groups map[waveKey]*wave
}

func newCoalescer(s *Server) *coalescer {
	maxLanes := circuit.LaneWidth
	if s.cfg.MaxBatchRHS > 0 && s.cfg.MaxBatchRHS < maxLanes {
		maxLanes = s.cfg.MaxBatchRHS
	}
	return &coalescer{s: s, maxLanes: maxLanes, groups: make(map[waveKey]*wave)}
}

// join enrolls members in one critical section, so members that share a
// key seal into one wave however the scheduler runs them. Each boards
// the forming wave of its key or opens one, whose runner goes straight
// to the pool's checkout; a wave that fills is unlinked at once, so the
// next member of its key opens another.
func (c *coalescer) join(ms ...*waveMember) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range ms {
		g := c.groups[m.key]
		if g == nil {
			g = &wave{key: m.key, a: m.a, params: m.params}
			g.ctx, g.cancel = context.WithCancel(context.Background())
			c.groups[m.key] = g
			// The runner needs c.mu to seal, so it cannot read the
			// membership before this critical section ends.
			go c.run(g)
		}
		m.joined = now
		g.members = append(g.members, m)
		g.live++
		if len(g.members) >= c.maxLanes {
			delete(c.groups, m.key)
		}
		// Stop only on the result path (wait): once ctx is done, leave
		// must run, and a racing stop could otherwise cancel it.
		m.stop = context.AfterFunc(m.ctx, func() { c.leave(g) })
	}
}

// wait blocks for an enrolled member's lane result. When the member's
// own context expires first, the wave keeps running for everyone else
// and the result carries this caller's ctx error.
func (c *coalescer) wait(m *waveMember) waveResult {
	select {
	case r := <-m.done:
		m.stop()
		return r
	case <-m.ctx.Done():
		return waveResult{err: m.ctx.Err()}
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

// run owns one wave: check out one chip at once — membership stays open
// the whole time the pool makes the wave wait, which is the
// load-adaptive half of the design: on a busy pool the checkout stall is
// exactly when same-operator arrivals pile up, and they all board this
// wave. The membership seals once a chip is in hand (after the boarding
// debounce, when armed); then the group executes as a single batch,
// fanning per-lane results back out.
func (c *coalescer) run(g *wave) {
	s := c.s
	defer g.cancel()
	pc, err := s.pool.Checkout(g.ctx, g.a)

	// Boarding: with the chip in hand, under live coalescing traffic the
	// wave lingers while companions are still streaming in. A closed set
	// of clients resubmits the moment a wave's responses flush, but those
	// arrivals serialize behind each other's encode/decode, spreading one
	// logical burst over several milliseconds. Debouncing on joins (seal
	// only after a full idle period admits nobody) collects the whole
	// burst into one wave without penalizing anyone: the wave already
	// owns the chip, and each join it waits for is a solve that would
	// otherwise idle in the next queue. Cold traffic (no recent
	// multi-lane seal) skips this entirely.
	if err == nil && time.Duration(time.Now().UnixNano()-c.lastMulti.Load()) <= boardQuiet {
		deadline := time.Now().Add(boardIdles * boardIdle)
		c.mu.Lock()
		last := len(g.members)
		c.mu.Unlock()
		for last < c.maxLanes && time.Now().Before(deadline) {
			time.Sleep(boardIdle)
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
	if len(members) > 1 {
		c.lastMulti.Store(time.Now().UnixNano())
	}

	launch := time.Now()
	s.metrics.waveLanes.Observe(float64(len(members)))
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
