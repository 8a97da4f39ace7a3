package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"analogacc/internal/core"
	"analogacc/internal/la"
)

func eq2() (*la.CSR, la.Vector) {
	a := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.8}, {Row: 0, Col: 1, Val: 0.2},
		{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
	})
	return a, la.VectorOf(0.5, 0.3)
}

// testPoolConfig keeps pool tests fast: tiny classes, trimmed chips.
func testPoolConfig() PoolConfig {
	return PoolConfig{ChipsPerClass: 2, WarmSizes: []int{2}, MinClass: 2, MaxDim: 32}
}

// checkoutAll drains every buildable chip of the class holding dim-n
// systems, so tests can inspect the full inventory.
func checkoutAll(t *testing.T, p *Pool, a core.Matrix) []*PooledChip {
	t.Helper()
	var chips []*PooledChip
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		c, err := p.Checkout(ctx, a)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return chips
			}
			t.Fatal(err)
		}
		chips = append(chips, c)
	}
}

// TestPoolStress fires N concurrent solves through a pool smaller than N
// under -race (scripts/ci.sh) and asserts the two pool invariants: no
// chip is ever on loan to two requests at once, and a chip's calibration
// trims come back from every loan unchanged.
func TestPoolStress(t *testing.T) {
	pool, err := NewPool(testPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := eq2()

	// Snapshot every chip's trims before the storm.
	warm := checkoutAll(t, pool, a)
	if len(warm) != 2 {
		t.Fatalf("warm class should hold 2 chips, got %d", len(warm))
	}
	trimsBefore := make(map[*PooledChip][]int)
	for _, c := range warm {
		trimsBefore[c] = c.Dev.TrimCodes()
		if len(trimsBefore[c]) == 0 {
			t.Fatal("no trim codes — chip not calibrated?")
		}
		pool.Checkin(c)
	}

	const (
		workers = 12 // vs 2 chips in the class
		rounds  = 4
	)
	var (
		mu  sync.Mutex
		out = make(map[*PooledChip]bool) // chips currently on loan
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				c, err := pool.Checkout(ctx, a)
				if err != nil {
					cancel()
					errCh <- err
					return
				}
				mu.Lock()
				if out[c] {
					mu.Unlock()
					cancel()
					errCh <- fmt.Errorf("chip class=%d slot=%d checked out twice at once", c.Class, c.slot)
					return
				}
				out[c] = true
				mu.Unlock()

				u, _, err := c.Acc.SolveRefinedCtx(ctx, a, b, core.SolveOptions{Tolerance: 1e-6})
				cancel()
				if err != nil {
					errCh <- err
				} else if res := la.RelativeResidual(a, u, b); res > 1e-5 {
					errCh <- fmt.Errorf("residual %v on chip class=%d slot=%d", res, c.Class, c.slot)
				}

				mu.Lock()
				out[c] = false
				mu.Unlock()
				pool.Checkin(c)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Chips come back clean: same chips, identical trims.
	after := checkoutAll(t, pool, a)
	if len(after) != 2 {
		t.Fatalf("pool lost chips: %d left", len(after))
	}
	for _, c := range after {
		before, ok := trimsBefore[c]
		if !ok {
			t.Fatalf("unknown chip surfaced after stress (class=%d slot=%d)", c.Class, c.slot)
		}
		now := c.Dev.TrimCodes()
		if len(before) != len(now) {
			t.Fatalf("trim vector length changed: %d -> %d", len(before), len(now))
		}
		for i := range before {
			if before[i] != now[i] {
				t.Fatalf("trim code %d changed across loans: %d -> %d", i, before[i], now[i])
			}
		}
		pool.Checkin(c)
	}
	if pool.Builds() != 2 {
		t.Fatalf("stress must reuse the 2 warm chips, built %d", pool.Builds())
	}
}

func TestPoolLazyEscalation(t *testing.T) {
	pool, err := NewPool(testPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Builds(); got != 2 {
		t.Fatalf("warm pool built %d chips, want 2", got)
	}
	// A dense 4x4 system: too many multipliers per row for class 4's
	// budget? No — 5 muls/row fits mulsPerMB = 8; but its fanout demand
	// escalates past class 4 (each variable feeds 4 rows + ADC with only
	// 2 trees of 4 ways per macroblock).
	n := 4
	var entries []la.COOEntry
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.1
			if i == j {
				v = 1
			}
			entries = append(entries, la.COOEntry{Row: i, Col: j, Val: v})
		}
	}
	dense := la.MustCSR(n, entries)
	c, err := pool.Checkout(context.Background(), dense)
	if err != nil {
		t.Fatal(err)
	}
	if c.Class < n {
		t.Fatalf("class %d cannot hold a %d-dim system", c.Class, n)
	}
	if err := core.SpecFits(pool.specFor(c.Class), dense); err != nil {
		t.Fatalf("checkout returned a class the system does not fit: %v", err)
	}
	pool.Checkin(c)
	if pool.Builds() <= 2 {
		t.Fatal("escalated class must have been built lazily")
	}
}

func TestPoolTooLarge(t *testing.T) {
	pool, err := NewPool(testPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := la.NewGrid(2, 8) // 64 unknowns > MaxDim 32
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.Checkout(context.Background(), la.PoissonMatrix(grid))
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestPoolCheckoutDeadline(t *testing.T) {
	cfg := testPoolConfig()
	cfg.ChipsPerClass = 1
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := eq2()
	c, err := pool.Checkout(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := pool.Checkout(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded while the only chip is on loan, got %v", err)
	}
	pool.Checkin(c)
	// Chip free again: checkout succeeds immediately.
	c2, err := pool.Checkout(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	pool.Checkin(c2)
}
