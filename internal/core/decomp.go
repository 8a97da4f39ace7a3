package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"analogacc/internal/la"
)

// Parallel domain decomposition over leased block workers. Section IV-B's
// parallel form — "the subproblems can be solved separately on multiple
// accelerators" — only pays off if each accelerator programs its block's
// principal submatrix once and then keeps it resident: the matrix
// configuration is O(block²) crossbar work, while the per-sweep right-hand
// side rewrite (b_s − A_off·x) is O(block). ParallelDecompose is that
// engine. It is deliberately ignorant of where its workers come from: a
// WorkerProvider lends them, which makes the same engine run against a
// plain slice of accelerators (Accelerators, the Farm), the serve package's
// warm chip pool, and a federation node that adds peer nodes to its pool.

// BlockWorker is one lane of a decomposed solve: anything that can hold a
// block matrix resident and solve batches of right-hand sides against it.
// A local *Accelerator is the in-process form; a federation peer reached
// over the serve wire protocol is the remote one. Workers are driven by a
// single goroutine each, so implementations need no internal locking.
type BlockWorker interface {
	// OpenBlock makes the block matrix resident on the worker and returns
	// a session to solve against it. The engine opens each distinct block
	// once and reuses the session across sweeps.
	OpenBlock(a *la.CSR) (BlockSession, error)
	// Odometer reports the worker's cumulative analog seconds, runs, and
	// matrix configurations; the engine differences before/after readings
	// into DecomposeStats.
	Odometer() (analogSeconds float64, runs, configs int)
}

// BlockSession is a block matrix resident on a BlockWorker. *Session
// satisfies it directly.
type BlockSession interface {
	SolveBatchRefinedItems(ctx context.Context, items []BatchItem, opt SolveOptions) ([]la.Vector, []Stats, []float64, error)
}

// OpenBlock implements BlockWorker: the block is programmed through a
// Session pinned to this chip.
func (acc *Accelerator) OpenBlock(a *la.CSR) (BlockSession, error) { return acc.BeginSession(a) }

// Odometer implements BlockWorker from the accelerator's cumulative
// counters.
func (acc *Accelerator) Odometer() (float64, int, int) {
	return acc.AnalogTime(), acc.Runs(), acc.Configurations()
}

// WorkerProvider lends the block workers a parallel decomposed solve fans
// out over, and sizes its blocks.
type WorkerProvider interface {
	// AcquireWorkers lends up to want workers. sample is a representative
	// block submatrix: every returned worker must be able to hold it (and,
	// for contiguous equal-size decompositions, therefore every block).
	// Providers may return fewer than want workers — the engine schedules
	// blocks over whatever it gets — but must return at least one or an
	// error. The release function, if non-nil, is called exactly once
	// when the solve is done with the workers.
	AcquireWorkers(ctx context.Context, sample Matrix, want int) (workers []BlockWorker, release func(), err error)
	// MaxBlockSize is the largest contiguous block order of a that the
	// provider's workers hold (see LargestBlock), or 0 for no choice. The
	// engine uses it when DecomposeOptions.BlockSize is unset.
	MaxBlockSize(a *la.CSR) int
}

// Accelerators adapts a plain slice of accelerators to WorkerProvider: it
// lends every accelerator that fits the sample block, up to want. The
// zero-cost release makes this the in-process form used by Farm and the
// CLI's local decomposed backend.
type Accelerators []*Accelerator

// AcquireWorkers implements WorkerProvider.
func (s Accelerators) AcquireWorkers(_ context.Context, sample Matrix, want int) ([]BlockWorker, func(), error) {
	var fit []BlockWorker
	var lastErr error
	for _, acc := range s {
		if err := acc.Fits(sample); err != nil {
			lastErr = err
			continue
		}
		fit = append(fit, acc)
		if len(fit) == want {
			break
		}
	}
	if len(fit) == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("empty accelerator set")
		}
		return nil, nil, fmt.Errorf("core: no accelerator fits the block: %w", lastErr)
	}
	return fit, nil, nil
}

// MaxBlockSize implements WorkerProvider using the first accelerator's
// capacity (a homogeneous farm is the common case).
func (s Accelerators) MaxBlockSize(a *la.CSR) int {
	if len(s) == 0 {
		return 0
	}
	return s[0].maxBlockSize(a)
}

// ParallelDecompose runs block-Jacobi outer sweeps with the block solves
// fanned out over workers leased from a WorkerProvider. Each block's
// submatrix is programmed onto its chip once, through a pinned Session;
// between sweeps only the O(block) right-hand side moves. Blocks are
// grouped by identical submatrices and the groups are kept contiguous per
// chip, so a chip owning several blocks of a regular grid adopts the
// already-programmed matrix instead of recompiling it.
//
// The outer iteration is Jacobi, not Gauss-Seidel: every block solve in a
// sweep reads the previous sweep's iterate, so the blocks are independent
// and their schedule — and hence the worker count — cannot change the
// result. The price is roughly 2× the sweeps of Gauss-Seidel on
// diagonally dominant systems; the payoff is that K chips cut the analog
// critical path by ~K and the answer is bit-identical for any K.
type ParallelDecompose struct {
	// Provider leases the workers. Required.
	Provider WorkerProvider
	// Workers caps how many workers are requested (default and upper
	// bound: one per block).
	Workers int
	// Opt tunes the decomposition. Jacobi semantics are implied by the
	// parallel schedule regardless of Opt.Jacobi; BlockSize defaults to
	// the provider's MaxBlockSize when unset.
	Opt DecomposeOptions
	// OnSweep, if non-nil, observes every completed outer sweep (the
	// serve layer feeds its per-sweep latency histogram with it).
	OnSweep func(sweep int, residual float64, elapsed time.Duration)
}

// chipWorker is one leased chip's schedule: the blocks it owns, in
// group-contiguous order, and its per-solve scratch. Contiguous
// same-group runs of blocks solve as one lane-batched wave per sweep
// (SolveBatchRefinedItems), so the per-item scratch is a slice per run
// slot rather than a single buffer.
type chipWorker struct {
	w                  BlockWorker
	blocks             []*decompBlock
	size               int // maximum block dimension (scratch sizing)
	offBuf             la.Vector
	rhsBufs, guessBufs []la.Vector
	items              []BatchItem
	refinements        int
	err                error
}

type decompBlock struct {
	idx   []int
	sub   *la.CSR // group representative: pointer-shared across equal blocks
	group int
	sess  BlockSession
	// sigmaGain is this block's learned sigma estimate, carried across
	// sweeps. It lives on the block — not on a shared session — so the
	// estimate a block solves with is independent of which chip runs it
	// and of how blocks are grouped into waves: bit-identical results for
	// any worker count.
	sigmaGain float64
}

// Solve runs the decomposed solve. The context aborts between sweeps and
// inside the per-block analog solves (settle/refinement checkpoints).
func (pd *ParallelDecompose) Solve(ctx context.Context, a *la.CSR, b la.Vector) (u la.Vector, stats DecomposeStats, err error) {
	if pd.Provider == nil {
		return nil, stats, fmt.Errorf("core: ParallelDecompose needs a WorkerProvider")
	}
	opt := pd.Opt.withDefaults()
	n := a.Dim()
	if len(b) != n {
		return nil, stats, fmt.Errorf("core: b length %d != %d", len(b), n)
	}
	size := opt.BlockSize
	if size <= 0 {
		size = pd.Provider.MaxBlockSize(a)
		if size <= 0 {
			return nil, stats, fmt.Errorf("core: no block size: set DecomposeOptions.BlockSize or use a provider that chooses one")
		}
	}
	if size > n {
		size = n
	}
	ranges := blockRanges(n, size)
	stats.Blocks = len(ranges)

	// Group blocks with identical submatrices and share one CSR per
	// group: sessions built from the representative compare pointer-equal
	// in ensureOwned, so switching between same-group blocks on a chip
	// never reprograms the matrix.
	blocks := make([]*decompBlock, len(ranges))
	var groups []*la.CSR
	var groupFPs []uint64
	for bi, idx := range ranges {
		sub := a.Submatrix(idx)
		fp := la.Fingerprint(sub)
		g := -1
		for gi, rep := range groups {
			if rep.Dim() == sub.Dim() && groupFPs[gi] == fp && fpVerify(rep, sub) {
				g = gi
				break
			}
		}
		if g < 0 {
			g = len(groups)
			groups = append(groups, sub)
			groupFPs = append(groupFPs, fp)
		}
		blocks[bi] = &decompBlock{idx: idx, sub: groups[g], group: g}
	}

	want := pd.Workers
	if want <= 0 || want > len(blocks) {
		want = len(blocks)
	}
	bws, release, err := pd.Provider.AcquireWorkers(ctx, blocks[0].sub, want)
	if release != nil {
		defer release()
	}
	if err != nil {
		return nil, stats, err
	}
	if len(bws) == 0 {
		return nil, stats, fmt.Errorf("core: provider returned no workers")
	}
	stats.Chips = len(bws)

	// Sort blocks by group, then chunk contiguously over the chips: each
	// chip sees as few distinct matrices as possible, and a block keeps
	// the same chip for the whole solve (the pinned session).
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return blocks[order[i]].group < blocks[order[j]].group })
	workers := make([]*chipWorker, len(bws))
	for i, bw := range bws {
		workers[i] = &chipWorker{w: bw, size: size, offBuf: la.NewVector(size)}
	}
	for i, bi := range order {
		w := workers[i*len(workers)/len(order)]
		w.blocks = append(w.blocks, blocks[bi])
	}

	timeBase := make([]float64, len(bws))
	runsBase := make([]int, len(bws))
	cfgBase := make([]int, len(bws))
	for i, bw := range bws {
		timeBase[i], runsBase[i], cfgBase[i] = bw.Odometer()
	}
	defer func() {
		var critical float64
		for i, bw := range bws {
			at, rn, cf := bw.Odometer()
			dt := at - timeBase[i]
			stats.AnalogTime += dt
			if dt > critical {
				critical = dt
			}
			stats.Runs += rn - runsBase[i]
			stats.Configs += cf - cfgBase[i]
		}
		stats.AnalogCritical = critical
		for _, w := range workers {
			stats.InnerRefinements += w.refinements
		}
		if hits := stats.Sweeps*stats.Blocks - stats.Configs; hits > 0 {
			stats.ReuseHits = hits
		}
	}()

	x := la.NewVector(n)
	xNext := la.NewVector(n)
	if b.NormInf() == 0 {
		return x, stats, nil
	}
	inner := opt.Inner
	for sweep := 1; sweep <= opt.MaxSweeps; sweep++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, stats, fmt.Errorf("core: decomposed solve aborted before sweep %d: %w", sweep, cerr)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *chipWorker) {
				defer wg.Done()
				w.sweep(ctx, a, b, x, xNext, sweep, inner)
			}(w)
		}
		wg.Wait()
		for _, w := range workers {
			if w.err != nil {
				return nil, stats, w.err
			}
		}
		// Every index belongs to exactly one block and every block wrote
		// its slice of xNext, so the swap is a complete Jacobi update.
		x, xNext = xNext, x
		stats.Sweeps = sweep
		stats.Residual = la.RelativeResidual(a, x, b)
		if pd.OnSweep != nil {
			pd.OnSweep(sweep, stats.Residual, time.Since(start))
		}
		if stats.Residual <= opt.OuterTolerance {
			return x, stats, nil
		}
	}
	return x, stats, fmt.Errorf("core: residual %v after %d sweeps (target %v): %w",
		stats.Residual, opt.MaxSweeps, opt.OuterTolerance, ErrNotSettled)
}

// sweep runs one Jacobi sweep's worth of this chip's blocks: rebuild each
// block's right-hand side from the previous iterate x, solve it on the
// pinned session, and write the solution into this block's slice of
// xNext. Blocks partition the index range, so writes are disjoint across
// workers. Contiguous runs of same-group blocks (the common case after
// the group-sorted schedule) solve as one batch: on a lane-capable chip
// all of a run's residual systems settle in one wave.
func (w *chipWorker) sweep(ctx context.Context, a *la.CSR, b, x, xNext la.Vector, sweep int, inner SolveOptions) {
	for lo := 0; lo < len(w.blocks); {
		hi := lo + 1
		for hi < len(w.blocks) && w.blocks[hi].sub == w.blocks[lo].sub {
			hi++
		}
		if !w.runBlocks(ctx, a, b, x, xNext, sweep, inner, w.blocks[lo:hi]) {
			return
		}
		lo = hi
	}
}

// runBlocks solves one same-matrix run of blocks as a batch on the run
// leader's session. Each item enters with its block's own learned sigma
// gain and leaves it updated, so the batch grouping never leaks state
// between blocks.
func (w *chipWorker) runBlocks(ctx context.Context, a *la.CSR, b, x, xNext la.Vector, sweep int, inner SolveOptions, blks []*decompBlock) bool {
	for len(w.rhsBufs) < len(blks) {
		w.rhsBufs = append(w.rhsBufs, la.NewVector(w.size))
		w.guessBufs = append(w.guessBufs, la.NewVector(w.size))
	}
	items := w.items[:0]
	for k, blk := range blks {
		rhs := blockRHS(w.rhsBufs[k], w.offBuf, a, blk.idx, b, x)
		// Seed with the previous iterate (see SolveOptions.Guess): the
		// guess is x restricted to the block, identical under any
		// block→chip schedule, so determinism across worker counts holds.
		guess := w.guessBufs[k][:len(blk.idx)]
		for p, g := range blk.idx {
			guess[p] = x[g]
		}
		items = append(items, BatchItem{RHS: rhs, Guess: guess, SigmaGain: blk.sigmaGain})
	}
	w.items = items
	lead := blks[0]
	if lead.sess == nil {
		sess, err := w.w.OpenBlock(lead.sub)
		if err != nil {
			w.err = fmt.Errorf("core: block at %d: %w", lead.idx[0], err)
			return false
		}
		lead.sess = sess
	}
	us, sts, gains, err := lead.sess.SolveBatchRefinedItems(ctx, items, inner)
	for k := range sts {
		w.refinements += sts[k].Refinements
	}
	if err != nil {
		w.err = fmt.Errorf("core: sweep %d blocks at %d: %w", sweep, lead.idx[0], err)
		return false
	}
	for k, blk := range blks {
		blk.sigmaGain = gains[k]
		for p, g := range blk.idx {
			xNext[g] = us[k][p]
		}
	}
	return true
}
