package core

import (
	"fmt"

	"analogacc/internal/la"
)

// Domain decomposition (Section IV-B): a system too large for the chip is
// split into contiguous index blocks; each block's principal submatrix is
// solved on the accelerator, with the couplings to other blocks moved to
// the right-hand side (b_s − A_off·x). An outer block iteration sweeps the
// blocks until the global residual converges. As the paper notes, the
// outer iteration converges more slowly than element-wise methods, so
// blocks should be as large as the chip allows ("it is still desirable to
// ensure the block matrices are large").

// DecomposeOptions configures SolveDecomposed.
type DecomposeOptions struct {
	// BlockSize caps variables per block (default: the chip's capacity
	// for this matrix structure).
	BlockSize int
	// Jacobi makes SolveDecomposed read the previous sweep's values
	// (block Jacobi) instead of the freshest ones within a sweep (block
	// Gauss-Seidel, the default). ParallelDecompose always runs Jacobi,
	// since blocks solving in parallel cannot see each other's updates.
	Jacobi bool
	// OuterTolerance is the global stop: ‖b − A·x‖∞ ≤ OuterTolerance·‖b‖∞
	// (default 1e-6).
	OuterTolerance float64
	// MaxSweeps bounds outer iterations (default 400).
	MaxSweeps int
	// Inner tunes the per-block analog solves (refinement happens per
	// block with Inner.Tolerance).
	Inner SolveOptions
}

func (o DecomposeOptions) withDefaults() DecomposeOptions {
	if o.OuterTolerance <= 0 {
		o.OuterTolerance = 1e-6
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 400
	}
	return o
}

// DecomposeStats reports the outer iteration.
type DecomposeStats struct {
	Blocks int
	Sweeps int
	// Chips is how many accelerators the solve fanned out over (always 1
	// for the sequential path).
	Chips int
	// AnalogTime is the summed virtual analog seconds across all chips;
	// AnalogCritical is the per-chip maximum — the analog time on the
	// critical path when block solves run concurrently. On one chip the
	// two are equal.
	AnalogTime     float64
	AnalogCritical float64
	Runs           int
	// InnerRefinements totals Algorithm 2 passes across all block solves.
	InnerRefinements int
	// Configs counts full matrix programming passes (gains + routing)
	// performed during the solve; ReuseHits counts block solves served by
	// a chip that already held the block's matrix. Session pinning makes
	// Configs grow with the number of distinct blocks, not blocks×sweeps.
	Configs   int
	ReuseHits int
	Residual  float64
}

// blockRHS forms one block's right-hand side rhs = b_s − A_off·x in the
// caller's scratch storage, allocating nothing: dst and off must each hold
// at least len(idx) elements. idx must be a contiguous ascending range,
// which is exactly what blockRanges produces.
func blockRHS(dst, off la.Vector, a *la.CSR, idx []int, b, x la.Vector) la.Vector {
	k := len(idx)
	rhs, neg := dst[:k], off[:k]
	neg.Zero()
	a.OffRangeApply(neg, idx[0], idx[0]+k, x)
	for p, g := range idx {
		rhs[p] = b[g] - neg[p]
	}
	return rhs
}

// blockRange computes contiguous blocks of at most size over n indices.
func blockRanges(n, size int) [][]int {
	var blocks [][]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		blocks = append(blocks, idx)
	}
	return blocks
}

// LargestBlock returns the largest contiguous block order, at most
// largest, at which fits accepts every block of A (the last block may be
// shorter than size). Section IV-B wants blocks as large as the chip
// allows, so the search starts at largest and shrinks by 3/4 only while
// some block's structure is too dense; it bottoms out at 1.
func LargestBlock(a *la.CSR, largest int, fits func(size int, block *la.CSR) error) int {
next:
	for size := min(largest, a.Dim()); size > 1; size = size * 3 / 4 {
		for _, idx := range blockRanges(a.Dim(), size) {
			if fits(size, a.Submatrix(idx)) != nil {
				continue next
			}
		}
		return size
	}
	return 1
}

// maxBlockSize is the largest contiguous block order of A that fits the
// chip, starting from its converter capacity.
func (acc *Accelerator) maxBlockSize(a *la.CSR) int {
	return LargestBlock(a, acc.MaxVariables(), func(_ int, block *la.CSR) error { return acc.Fits(block) })
}

// SolveDecomposed solves A·x = b for systems larger than the chip by block
// decomposition with an outer block iteration. A must be square with a
// nonsingular principal block structure (SPD diagonally-dominant systems
// such as discretized elliptic PDEs converge).
func (acc *Accelerator) SolveDecomposed(a *la.CSR, b la.Vector, opt DecomposeOptions) (u la.Vector, stats DecomposeStats, err error) {
	opt = opt.withDefaults()
	n := a.Dim()
	if len(b) != n {
		return nil, stats, fmt.Errorf("core: b length %d != %d", len(b), n)
	}
	size := opt.BlockSize
	if size <= 0 {
		size = acc.maxBlockSize(a)
	}
	blocks := blockRanges(n, size)
	stats.Blocks = len(blocks)
	stats.Chips = 1
	timeBase := acc.AnalogTime()
	runsBase := acc.Runs()
	cfgBase := acc.Configurations()
	defer func() {
		stats.AnalogTime = acc.AnalogTime() - timeBase
		stats.AnalogCritical = stats.AnalogTime
		stats.Runs = acc.Runs() - runsBase
		stats.Configs = acc.Configurations() - cfgBase
		if hits := stats.Sweeps*stats.Blocks - stats.Configs; hits > 0 {
			stats.ReuseHits = hits
		}
	}()

	// One session per distinct block matrix. For regular grids most
	// blocks share a matrix; sessions are keyed by block and rebuilt
	// only when the chip must be reprogrammed with different gains.
	type blockState struct {
		idx  []int
		sub  *la.CSR
		sess *Session
	}
	states := make([]*blockState, len(blocks))
	for bi, idx := range blocks {
		sub := a.Submatrix(idx)
		states[bi] = &blockState{idx: idx, sub: sub}
	}

	x := la.NewVector(n)
	xNext := la.NewVector(n)
	bn := b.NormInf()
	if bn == 0 {
		return x, stats, nil
	}
	// Scratch for the per-block right-hand sides, sized once for the
	// largest block and resliced inside the sweeps: the outer loop runs
	// blocks×sweeps times and must not allocate per iteration.
	maxLen := 0
	for _, idx := range blocks {
		if len(idx) > maxLen {
			maxLen = len(idx)
		}
	}
	rhsBuf := la.NewVector(maxLen)
	offBuf := la.NewVector(maxLen)
	guessBuf := la.NewVector(maxLen)
	inner := opt.Inner
	for sweep := 1; sweep <= opt.MaxSweeps; sweep++ {
		src := x
		dst := x
		if opt.Jacobi {
			xNext.CopyFrom(x)
			dst = xNext
		}
		for _, st := range states {
			// rhs_s = b_s − (off-block couplings)·x.
			rhs := blockRHS(rhsBuf, offBuf, a, st.idx, b, src)
			// Seed the block solve with the previous iterate: late sweeps
			// change each block little, so refinement starts from (or
			// digitally confirms) a near-solution instead of solving from
			// scratch.
			inner.Guess = guessBuf[:len(st.idx)]
			for p, g := range st.idx {
				inner.Guess[p] = src[g]
			}
			if st.sess == nil {
				// Sessions share the one chip; SolveFor reprograms the
				// gains automatically when ownership changes, and skips
				// the reprogram when the block matrices are identical
				// (all interior strips of a regular grid).
				sess, err := acc.BeginSession(st.sub)
				if err != nil {
					return nil, stats, fmt.Errorf("core: block at %d: %w", st.idx[0], err)
				}
				st.sess = sess
			}
			u, innerStats, err := st.sess.SolveForRefined(rhs, inner)
			stats.InnerRefinements += innerStats.Refinements
			if err != nil {
				return nil, stats, fmt.Errorf("core: sweep %d block at %d: %w", sweep, st.idx[0], err)
			}
			for p, g := range st.idx {
				dst[g] = u[p]
			}
		}
		if opt.Jacobi {
			x.CopyFrom(xNext)
		}
		stats.Sweeps = sweep
		stats.Residual = la.RelativeResidual(a, x, b)
		if stats.Residual <= opt.OuterTolerance {
			return x, stats, nil
		}
	}
	return x, stats, fmt.Errorf("core: residual %v after %d sweeps (target %v): %w",
		stats.Residual, opt.MaxSweeps, opt.OuterTolerance, ErrNotSettled)
}
