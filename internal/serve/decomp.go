package serve

import (
	"context"

	"analogacc/internal/core"
	"analogacc/internal/la"
)

// PoolProvider adapts the chip pool to core.WorkerProvider, which is how
// a decomposed solve fans out over the daemon's warm chips: the first chip
// is a normal blocking checkout (honoring the request deadline and the
// admission discipline), every further worker up to want is opportunistic
// via TryCheckout — if the pool is busy the solve degrades to fewer chips
// instead of holding its first chip hostage while waiting for more.
type PoolProvider struct {
	pool *Pool
}

// DecompProvider returns the pool's worker provider for decomposed
// solves.
func (p *Pool) DecompProvider() *PoolProvider { return &PoolProvider{pool: p} }

// AcquireWorkers implements core.WorkerProvider.
func (pp *PoolProvider) AcquireWorkers(ctx context.Context, sample core.Matrix, want int) ([]core.BlockWorker, func(), error) {
	first, err := pp.pool.Checkout(ctx, sample)
	if err != nil {
		return nil, nil, err
	}
	chips := []*PooledChip{first}
	for len(chips) < want {
		c, err := pp.pool.TryCheckout(sample)
		if err != nil || c == nil {
			// A build failure or an exhausted pool: run with what we have.
			break
		}
		chips = append(chips, c)
	}
	workers := make([]core.BlockWorker, len(chips))
	for i, c := range chips {
		workers[i] = c.Acc
	}
	release := func() {
		for _, c := range chips {
			pp.pool.Checkin(c)
		}
	}
	return workers, release, nil
}

// MaxBlockSize implements core.WorkerProvider: the largest contiguous
// block order whose every submatrix fits the class that would serve it,
// searched down from the pool's largest class dimension.
func (pp *PoolProvider) MaxBlockSize(a *la.CSR) int {
	cfg := pp.pool.cfg
	largest := cfg.MinClass
	for largest*2 <= cfg.MaxDim {
		largest *= 2
	}
	return core.LargestBlock(a, largest, func(size int, block *la.CSR) error {
		return core.SpecFits(pp.pool.specFor(pp.pool.classFor(size)), block)
	})
}
