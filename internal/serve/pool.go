package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"analogacc/internal/chip"
	"analogacc/internal/core"
	"analogacc/internal/la"
)

// The chip pool. Building a simulated accelerator and trimming its units
// (the Table I init sequence) is the expensive part of an analog solve, so
// the daemon keeps a fixed set of pre-built, pre-calibrated chips warm and
// lends them out per request. Chips are grouped into size classes (dims
// doubling from MinClass up to MaxDim); a request lands on the smallest
// class whose ChipSpec fits its matrix (core.SpecFits — structure, not
// just order, decides: a dense row needs more multipliers and fanout
// copies than a stencil row). Classes named in WarmSizes are built at
// startup; anything else is constructed and calibrated lazily on first
// use, up to ChipsPerClass chips per class.
//
// On top of inventory the pool is a session cache: a chip returning from a
// loan still holds its last matrix programming (identified by
// la.Fingerprint), and a later request for the same operator is routed to
// that chip, where core.BeginSession adopts the resident configuration
// without recompiling it. Each class's free list is kept in LRU order, so
// when every free chip holds some configuration the least recently used
// one is evicted. Recalibrating a chip invalidates its cached entry — the
// trims the cached settle behavior was measured against have changed.

// PoolConfig sizes the pool. The zero value gives a small warm pool
// suitable for tests; cmd/alad exposes the knobs as flags.
type PoolConfig struct {
	// ChipsPerClass caps how many chips each size class may hold
	// (default 2).
	ChipsPerClass int
	// WarmSizes lists system orders whose classes are pre-built (and
	// pre-calibrated) at NewPool time (default {4}).
	WarmSizes []int
	// MinClass is the smallest class dimension (default 4).
	MinClass int
	// MaxDim is the largest class dimension; systems that do not fit any
	// class up to it are rejected with core.ErrTooLarge (default 256).
	MaxDim int
	// ADCBits and Bandwidth parameterize every class's ChipSpec
	// (defaults 12 bits, 20 kHz).
	ADCBits   int
	Bandwidth float64
	// SkipCalibrate leaves chips untrimmed at build (tests only; real
	// serving wants calibrated chips).
	SkipCalibrate bool
	// Seed varies per-chip process variation; each built chip draws from
	// Seed offset by its class and slot so no two chips are identical.
	Seed int64
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.ChipsPerClass <= 0 {
		c.ChipsPerClass = 2
	}
	if c.MinClass <= 0 {
		c.MinClass = 4
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 256
	}
	if c.ADCBits <= 0 {
		c.ADCBits = 12
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = 20e3
	}
	if c.WarmSizes == nil {
		c.WarmSizes = []int{4}
	}
	return c
}

// PooledChip is one accelerator on loan from the pool. Acc is the driver
// the solve runs on; Dev is the bench handle (the stress test snapshots
// its calibration trims).
type PooledChip struct {
	Acc   *core.Accelerator
	Dev   *chip.Chip
	Class int
	slot  int
	inUse atomic.Bool

	// Session-cache bookkeeping, written at checkin while the chip is
	// exclusively the pool's (guarded by the subpool mutex while the chip
	// sits on the free list). residentFP/residentN mirror the matrix left
	// programmed on the chip; calSeen is the Accelerator's calibration
	// count the entry was cached under.
	hasResident bool
	residentFP  uint64
	residentN   int
	calSeen     int
}

type subpool struct {
	dim  int
	spec chip.Spec

	mu    sync.Mutex
	built int
	// free is the idle inventory in LRU order: index 0 is the least
	// recently returned chip (the eviction victim), the tail the most
	// recent (the best adoption candidate).
	free []*PooledChip
	// waiters queues checkouts that found the class fully on loan, FIFO.
	// Each entry is a buffered handoff channel: Checkin delivers the
	// returning chip directly to the head waiter, bypassing the free list.
	waiters []chan *PooledChip
}

// Pool is the chip pool: per-size sub-pools with checkout/checkin
// semantics and a fingerprint-keyed session cache. Safe for concurrent
// use.
type Pool struct {
	cfg PoolConfig

	mu      sync.Mutex
	classes map[int]*subpool

	// builds and calibrations count chip constructions (for /metrics).
	builds       atomic.Int64
	calibrations atomic.Int64

	// Session-cache traffic: a hit is a checkout served by a chip already
	// holding the request's matrix; an eviction is a checkout that
	// overwrites some other cached configuration; an invalidation is a
	// cached entry dropped because its chip was recalibrated.
	cacheHits          atomic.Int64
	cacheMisses        atomic.Int64
	cacheEvictions     atomic.Int64
	cacheInvalidations atomic.Int64
}

// NewPool builds the pool and pre-warms the classes covering
// cfg.WarmSizes.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, classes: make(map[int]*subpool)}
	// A bad chip design (an out-of-range converter resolution, say) fails
	// here, at startup, not at the first lazily built chip.
	if err := p.specFor(cfg.MinClass).Validate(); err != nil {
		return nil, fmt.Errorf("serve: pool chip design: %w", err)
	}
	for _, n := range cfg.WarmSizes {
		if n > cfg.MaxDim {
			return nil, fmt.Errorf("serve: warm size %d exceeds max dimension %d", n, cfg.MaxDim)
		}
		sp := p.subpoolFor(p.classFor(n))
		for {
			slot, ok := sp.reserve(cfg.ChipsPerClass)
			if !ok {
				break
			}
			c, err := p.build(sp, slot)
			if err != nil {
				return nil, fmt.Errorf("serve: warming class %d: %w", sp.dim, err)
			}
			sp.mu.Lock()
			sp.free = append(sp.free, c)
			sp.mu.Unlock()
		}
	}
	return p, nil
}

// classFor rounds a system order up to its size class: the first
// power-of-two multiple of MinClass that holds dim.
func (p *Pool) classFor(dim int) int {
	class := p.cfg.MinClass
	for class < dim && class < p.cfg.MaxDim {
		class *= 2
	}
	return class
}

// mulsPerMB is every class's multiplier budget per macroblock: seven
// coefficients plus the bias path — enough for 3-D stencil rows; denser
// rows escalate to a larger class.
const mulsPerMB = 8

// specFor is the chip design of one size class.
func (p *Pool) specFor(class int) chip.Spec {
	return chip.ScaledSpec(class, p.cfg.ADCBits, p.cfg.Bandwidth, mulsPerMB)
}

func (p *Pool) subpoolFor(class int) *subpool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp, ok := p.classes[class]
	if !ok {
		sp = &subpool{dim: class, spec: p.specFor(class)}
		p.classes[class] = sp
	}
	return sp
}

// reserve claims a build slot if the class is below its cap. The check
// and the claim are one critical section so two concurrent checkouts can
// never both build the same slot past the cap.
func (sp *subpool) reserve(cap int) (slot int, ok bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.built >= cap {
		return 0, false
	}
	slot = sp.built
	sp.built++
	return slot, true
}

// errChipBuild marks a pooled chip that would not build or calibrate:
// the service's own fault, answered 500 internal rather than 422.
var errChipBuild = errors.New("serve: building a pooled chip")

// build fabricates (and unless configured otherwise, calibrates) one chip
// for a subpool slot already reserved via sp.reserve.
func (p *Pool) build(sp *subpool, slot int) (*PooledChip, error) {
	spec := sp.spec
	spec.Seed = p.cfg.Seed + int64(sp.dim)*1009 + int64(slot)
	acc, dev, err := core.NewSimulated(spec)
	if err != nil {
		sp.mu.Lock()
		sp.built--
		sp.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", errChipBuild, err)
	}
	p.builds.Add(1)
	if !p.cfg.SkipCalibrate {
		if _, err := acc.Calibrate(); err != nil {
			sp.mu.Lock()
			sp.built--
			sp.mu.Unlock()
			return nil, fmt.Errorf("%w: calibrating class-%d chip: %w", errChipBuild, sp.dim, err)
		}
		p.calibrations.Add(1)
	}
	return &PooledChip{Acc: acc, Dev: dev, Class: sp.dim, slot: slot, calSeen: acc.CalibrationCount()}, nil
}

// Checkout lends out a calibrated chip whose design fits the matrix,
// blocking (under ctx) when every fitting chip is on loan. Requests whose
// structure exceeds every class up to MaxDim fail with core.ErrTooLarge.
//
// Within a class, checkout prefers (1) an idle chip whose resident
// configuration fingerprints equal to a — the solve then adopts it and
// skips matrix programming entirely — then (2) an idle blank chip, so
// other cached configurations survive, then (3) lazy construction below
// the class cap, then (4) evicting the least recently used cached
// configuration, and only then (5) blocks for a checkin.
func (p *Pool) Checkout(ctx context.Context, a core.Matrix) (*PooledChip, error) {
	fp, n := la.Fingerprint(a), a.Dim()
	var lastFit error
	for class := p.classFor(n); class <= p.cfg.MaxDim; class *= 2 {
		sp := p.subpoolFor(class)
		if err := core.SpecFits(sp.spec, a); err != nil {
			// Too dense for this class's per-variable budget: escalate
			// to the next class, whose totals are twice as large.
			lastFit = err
			continue
		}
		return p.checkout(ctx, sp, fp, n)
	}
	if lastFit == nil {
		lastFit = fmt.Errorf("serve: order %d exceeds pool max dimension %d: %w",
			n, p.cfg.MaxDim, core.ErrTooLarge)
	}
	return nil, fmt.Errorf("serve: no pool class up to %d fits the system: %w", p.cfg.MaxDim, lastFit)
}

// Fits reports whether some class up to MaxDim can program the matrix —
// nil, or the error Checkout would fail with (core.ErrTooLarge for
// systems beyond every class). The request router uses it to send
// too-large systems down the decomposed fan-out path instead of rejecting
// them.
func (p *Pool) Fits(a core.Matrix) error {
	var lastFit error
	for class := p.classFor(a.Dim()); class <= p.cfg.MaxDim; class *= 2 {
		if err := core.SpecFits(p.subpoolFor(class).spec, a); err != nil {
			lastFit = err
			continue
		}
		return nil
	}
	if lastFit == nil {
		lastFit = fmt.Errorf("serve: order %d exceeds pool max dimension %d: %w",
			a.Dim(), p.cfg.MaxDim, core.ErrTooLarge)
	}
	return fmt.Errorf("serve: no pool class up to %d fits the system: %w", p.cfg.MaxDim, lastFit)
}

// TryCheckout lends out a fitting chip without blocking: a free chip of
// any fitting class (preferring a cached match for a), or a lazily built
// one while some class is below cap. It returns (nil, nil) when every
// fitting chip is on loan — the decomposed fan-out uses it to pick up
// opportunistic extra workers after its first, blocking checkout,
// degrading to fewer chips rather than deadlocking the pool under
// concurrent decomposed solves.
func (p *Pool) TryCheckout(a core.Matrix) (*PooledChip, error) {
	fp, n := la.Fingerprint(a), a.Dim()
	for class := p.classFor(n); class <= p.cfg.MaxDim; class *= 2 {
		sp := p.subpoolFor(class)
		if core.SpecFits(sp.spec, a) != nil {
			continue
		}
		if c := p.takeFree(sp, fp, n); c != nil {
			return c.lend()
		}
		if slot, ok := sp.reserve(p.cfg.ChipsPerClass); ok {
			c, err := p.build(sp, slot)
			if err != nil {
				return nil, err
			}
			p.cacheMisses.Add(1)
			return c.lend()
		}
	}
	return nil, nil
}

// takeFree removes and returns the best free chip of the class for the
// fingerprint — cached match, then blank, then LRU eviction — accounting
// cache traffic; nil when the free list is empty.
func (p *Pool) takeFree(sp *subpool, fp uint64, n int) *PooledChip {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return p.takeFreeLocked(sp, fp, n)
}

// takeFreeLocked is takeFree with sp.mu already held.
func (p *Pool) takeFreeLocked(sp *subpool, fp uint64, n int) *PooledChip {
	// Cached match, most recently used first.
	for i := len(sp.free) - 1; i >= 0; i-- {
		if c := sp.free[i]; c.hasResident && c.residentFP == fp && c.residentN == n {
			sp.removeFree(i)
			p.cacheHits.Add(1)
			return c
		}
	}
	// A blank chip leaves every cached configuration in place.
	for i := len(sp.free) - 1; i >= 0; i-- {
		if !sp.free[i].hasResident {
			c := sp.free[i]
			sp.removeFree(i)
			p.cacheMisses.Add(1)
			return c
		}
	}
	// All free chips cache some other operator: evict the LRU one.
	if len(sp.free) > 0 {
		c := sp.free[0]
		sp.removeFree(0)
		p.cacheMisses.Add(1)
		p.cacheEvictions.Add(1)
		return c
	}
	return nil
}

// removeFree deletes index i from the free list preserving LRU order.
func (sp *subpool) removeFree(i int) {
	copy(sp.free[i:], sp.free[i+1:])
	sp.free[len(sp.free)-1] = nil
	sp.free = sp.free[:len(sp.free)-1]
}

func (p *Pool) checkout(ctx context.Context, sp *subpool, fp uint64, n int) (*PooledChip, error) {
	// Fast paths: an idle chip (cached match, blank, or LRU eviction).
	if c := p.takeFree(sp, fp, n); c != nil {
		return c.lend()
	}
	// Lazy construction while the class is below its cap.
	if slot, ok := sp.reserve(p.cfg.ChipsPerClass); ok {
		c, err := p.build(sp, slot)
		if err != nil {
			return nil, err
		}
		p.cacheMisses.Add(1)
		return c.lend()
	}
	// Every chip in the class is on loan: queue for direct handoff from a
	// checkin, or give up at the request's deadline. A checkin may race
	// the free list between our takeFree above and this enqueue, so the
	// re-check and the enqueue are one critical section.
	ch := make(chan *PooledChip, 1)
	sp.mu.Lock()
	if c := p.takeFreeLocked(sp, fp, n); c != nil {
		sp.mu.Unlock()
		return c.lend()
	}
	sp.waiters = append(sp.waiters, ch)
	sp.mu.Unlock()
	select {
	case c := <-ch:
		p.accountHandoff(c, fp, n)
		return c.lend()
	case <-ctx.Done():
		// Dequeue ourselves; if a checkin delivered concurrently, put the
		// chip back for the next taker.
		sp.mu.Lock()
		for i, w := range sp.waiters {
			if w == ch {
				sp.waiters = append(sp.waiters[:i], sp.waiters[i+1:]...)
				break
			}
		}
		sp.mu.Unlock()
		select {
		case c := <-ch:
			p.release(sp, c)
		default:
		}
		return nil, fmt.Errorf("serve: waiting for a class-%d chip: %w", sp.dim, ctx.Err())
	}
}

// accountHandoff books cache traffic for a chip delivered to a waiter:
// the waiter takes whatever chip came back first, so a cached match is
// luck, and a mismatched resident configuration is about to be evicted.
func (p *Pool) accountHandoff(c *PooledChip, fp uint64, n int) {
	if c.hasResident && c.residentFP == fp && c.residentN == n {
		p.cacheHits.Add(1)
		return
	}
	p.cacheMisses.Add(1)
	if c.hasResident {
		p.cacheEvictions.Add(1)
	}
}

func (c *PooledChip) lend() (*PooledChip, error) {
	if c.inUse.Swap(true) {
		// Cannot happen through the free-list discipline; a panic here
		// means the pool invariant broke and solving on a shared chip
		// would corrupt results silently.
		panic(fmt.Sprintf("serve: class-%d chip %d checked out twice", c.Class, c.slot))
	}
	return c, nil
}

// Checkin returns a chip to its class's free list (or hands it straight
// to a queued waiter). The chip's calibration trims persist across loans
// (they "remain constant during accelerator operation and between solving
// different problems") — nothing is re-trimmed on the way back in. The
// matrix left programmed on the chip is recorded under its fingerprint so
// a later Checkout for the same operator can adopt it, unless the
// borrower recalibrated the chip, which drops the cached entry.
func (p *Pool) Checkin(c *PooledChip) {
	if c == nil {
		return
	}
	if !c.inUse.Swap(false) {
		panic(fmt.Sprintf("serve: class-%d chip %d checked in while free", c.Class, c.slot))
	}
	sp := p.subpoolFor(c.Class)
	// The chip is exclusively ours between the inUse swap and the handoff
	// below, so reading the driver is race-free.
	fp, n := c.Acc.ResidentFingerprint()
	cal := c.Acc.CalibrationCount()
	// Only an adoptable resident is worth advertising: a solve whose
	// dynamic-range boost left the gains programmed above the base scale
	// would be reprogrammed by BeginSession anyway, so caching it would
	// count hits that still pay the full configuration cost.
	c.hasResident = n > 0 && c.Acc.ResidentAdoptable()
	c.residentFP, c.residentN = fp, n
	if cal != c.calSeen {
		if c.hasResident {
			p.cacheInvalidations.Add(1)
		}
		c.hasResident = false
		c.calSeen = cal
	}
	p.release(sp, c)
}

// release parks a not-in-use chip: direct handoff to the head waiter if
// any, else the MRU end of the free list.
func (p *Pool) release(sp *subpool, c *PooledChip) {
	sp.mu.Lock()
	if len(sp.waiters) > 0 {
		ch := sp.waiters[0]
		sp.waiters = sp.waiters[1:]
		// Each waiter channel is cap-1 buffered and receives at most one
		// chip, so this send cannot block. Delivering under sp.mu makes
		// pop+send atomic with a cancelled waiter's dequeue-and-drain: a
		// waiter still in sp.waiters here will always find its chip when
		// it drains after removing itself.
		ch <- c
		sp.mu.Unlock()
		return
	}
	sp.free = append(sp.free, c)
	sp.mu.Unlock()
}

// ClassStat is one size class's inventory for /metrics. Cached counts the
// free chips currently holding a resident configuration (session-cache
// occupancy).
type ClassStat struct {
	Class  int
	Built  int
	Free   int
	Cached int
}

// Stats snapshots the pool inventory, smallest class first.
func (p *Pool) Stats() []ClassStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ClassStat, 0, len(p.classes))
	for _, sp := range p.classes {
		sp.mu.Lock()
		st := ClassStat{Class: sp.dim, Built: sp.built, Free: len(sp.free)}
		for _, c := range sp.free {
			if c.hasResident {
				st.Cached++
			}
		}
		sp.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// Resident is one cached configuration currently idle in the pool: the
// size class holding it, the operator's order, and its fingerprint.
// Federation peer stats advertise these so routers can see where a
// matrix is already programmed.
type Resident struct {
	Class int
	N     int
	FP    uint64
}

// ResidentFingerprints snapshots the fingerprints of every cached
// configuration on free chips, smallest class first. Chips on loan are
// invisible (their resident entry is recorded at checkin), so the view
// lags actual residency by at most one in-flight solve.
func (p *Pool) ResidentFingerprints() []Resident {
	p.mu.Lock()
	subs := make([]*subpool, 0, len(p.classes))
	for _, sp := range p.classes {
		subs = append(subs, sp)
	}
	p.mu.Unlock()
	var out []Resident
	for _, sp := range subs {
		sp.mu.Lock()
		for _, c := range sp.free {
			if c.hasResident {
				out = append(out, Resident{Class: sp.dim, N: c.residentN, FP: c.residentFP})
			}
		}
		sp.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].FP < out[j].FP
	})
	return out
}

// Builds returns how many chips the pool has fabricated.
func (p *Pool) Builds() int64 { return p.builds.Load() }

// Calibrations returns how many init sequences the pool has run.
func (p *Pool) Calibrations() int64 { return p.calibrations.Load() }

// CacheHits returns checkouts served by a chip already holding the
// request's matrix.
func (p *Pool) CacheHits() int64 { return p.cacheHits.Load() }

// CacheMisses returns checkouts that had to (re)program a matrix.
func (p *Pool) CacheMisses() int64 { return p.cacheMisses.Load() }

// CacheEvictions returns checkouts that overwrote some other cached
// configuration.
func (p *Pool) CacheEvictions() int64 { return p.cacheEvictions.Load() }

// CacheInvalidations returns cached entries dropped by recalibration.
func (p *Pool) CacheInvalidations() int64 { return p.cacheInvalidations.Load() }

// AnalogSeconds sums virtual analog time across every free chip still
// known to the pool — the fleet-wide convergence-time odometer.
// Accelerator.AnalogTime is not synchronized, so chips on loan are
// skipped; the figure only lags.
func (p *Pool) AnalogSeconds() float64 {
	p.mu.Lock()
	subs := make([]*subpool, 0, len(p.classes))
	for _, sp := range p.classes {
		subs = append(subs, sp)
	}
	p.mu.Unlock()
	var total float64
	for _, sp := range subs {
		sp.mu.Lock()
		for _, c := range sp.free {
			total += c.Acc.AnalogTime()
		}
		sp.mu.Unlock()
	}
	return total
}
