package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"analogacc/internal/journal"
	"analogacc/internal/la"
)

// diagOp builds a small diagonally-dominant operator whose content (and
// therefore fingerprint) varies with scale, so tests can mint distinct
// registry entries cheaply.
func diagOp(n int, scale float64) *la.CSR {
	entries := make([]la.COOEntry, n)
	for i := 0; i < n; i++ {
		entries[i] = la.COOEntry{Row: i, Col: i, Val: scale + float64(i%7)*0.01}
	}
	return la.MustCSR(n, entries)
}

func mustRegister(t *testing.T, r *opRegistry, a *la.CSR) uint64 {
	t.Helper()
	fp, _, err := r.register(a)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestRegistryLRUCountEviction fills a 2-operator registry with three
// operators and asserts the least recently used one fell out — and that
// a lookup refreshes recency, changing who the next victim is.
func TestRegistryLRUCountEviction(t *testing.T) {
	r, err := openRegistry(2, 1<<30, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fp0 := mustRegister(t, r, diagOp(4, 1))
	fp1 := mustRegister(t, r, diagOp(4, 2))
	fp2 := mustRegister(t, r, diagOp(4, 3))
	if ops, _ := r.stats(); ops != 2 {
		t.Fatalf("registry holds %d operators, cap is 2", ops)
	}
	if _, ok := r.lookup(fp0); ok {
		t.Fatal("oldest operator survived a count eviction")
	}
	if _, ok := r.lookup(fp1); !ok {
		t.Fatal("fp1 evicted early")
	}
	// fp1 is now MRU; registering a fourth operator must evict fp2.
	fp3 := mustRegister(t, r, diagOp(4, 4))
	if _, ok := r.lookup(fp2); ok {
		t.Fatal("lookup did not refresh recency: fp2 should be the victim")
	}
	for _, fp := range []uint64{fp1, fp3} {
		if _, ok := r.lookup(fp); !ok {
			t.Fatalf("operator %x missing after refresh-then-evict", fp)
		}
	}
	if r.evictions.Load() != 2 {
		t.Fatalf("evictions counter = %d, want 2", r.evictions.Load())
	}
}

// TestRegistryByteCapEviction caps the registry by bytes instead of
// count and asserts residency never exceeds the cap.
func TestRegistryByteCapEviction(t *testing.T) {
	cost := operatorCost(diagOp(4, 1)) // all test operators cost the same
	r, err := openRegistry(100, 2*cost+cost/2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fp0 := mustRegister(t, r, diagOp(4, 1))
	mustRegister(t, r, diagOp(4, 2))
	mustRegister(t, r, diagOp(4, 3))
	ops, resident := r.stats()
	if ops != 2 || resident != 2*cost {
		t.Fatalf("ops=%d resident=%d, want 2 ops / %d bytes under the cap", ops, resident, 2*cost)
	}
	if _, ok := r.lookup(fp0); ok {
		t.Fatal("byte-cap eviction kept the LRU operator")
	}
}

// TestRegistryOversizedRejected sends an operator whose cost alone
// exceeds the byte cap: the registry refuses it with the capacity
// sentinel, and the HTTP surface maps that to 413 too_large.
func TestRegistryOversizedRejected(t *testing.T) {
	r, err := openRegistry(100, 64, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, rerr := r.register(diagOp(4, 1)); !errors.Is(rerr, errRegistryCapacity) {
		t.Fatalf("oversized register answered %v, want errRegistryCapacity", rerr)
	}
	if ops, _ := r.stats(); ops != 0 {
		t.Fatal("rejected operator became resident")
	}
}

// TestRegistryJournalReplay registers through a journal, reopens, and
// asserts the operators came back — then corrupts the tail and reopens
// again to prove a torn write never blocks a boot.
func TestRegistryJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.journal")
	r, err := openRegistry(8, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	fps := []uint64{
		mustRegister(t, r, diagOp(4, 1)),
		mustRegister(t, r, diagOp(6, 2)),
		mustRegister(t, r, diagOp(8, 3)),
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}

	r2, err := openRegistry(8, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		a, ok := r2.lookup(fp)
		if !ok {
			t.Fatalf("operator %d (fp %x) lost across restart", i, fp)
		}
		if la.Fingerprint(a) != fp {
			t.Fatalf("operator %d replayed with wrong content", i)
		}
	}
	if err := r2.close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: garbage after the last intact frame is dropped silently.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r3, err := openRegistry(8, 1<<30, path, nil)
	if err != nil {
		t.Fatalf("torn tail broke the boot: %v", err)
	}
	if ops, _ := r3.stats(); ops != 3 {
		t.Fatalf("torn-tail replay kept %d operators, want 3", ops)
	}
	r3.close()

	// Reopen under a tighter cap: boot compaction wrote MRU-last, so the
	// replay squeeze keeps the most recently used operators.
	r4, err := openRegistry(2, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r4.close()
	if _, ok := r4.lookup(fps[0]); ok {
		t.Fatal("cap squeeze on replay kept the LRU operator over the MRU ones")
	}
	for _, fp := range fps[1:] {
		if _, ok := r4.lookup(fp); !ok {
			t.Fatalf("cap squeeze on replay dropped a recent operator %x", fp)
		}
	}
}

// TestRegistryPinExemptsEviction pins one operator, churns the registry
// far past its caps, and asserts the pinned operator never falls out —
// then unpins it and asserts it rejoins the ordinary LRU economy.
func TestRegistryPinExemptsEviction(t *testing.T) {
	r, err := openRegistry(2, 1<<30, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := r.registerPinned(diagOp(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 8; i++ {
		mustRegister(t, r, diagOp(4, float64(i)))
	}
	if _, ok := r.lookup(fp); !ok {
		t.Fatal("pinned operator evicted by registry churn")
	}
	if r.pinnedCount() != 1 {
		t.Fatalf("pinnedCount = %d, want 1", r.pinnedCount())
	}
	r.unpin(fp)
	if r.pinnedCount() != 0 {
		t.Fatalf("pinnedCount after unpin = %d, want 0", r.pinnedCount())
	}
	mustRegister(t, r, diagOp(4, 9))
	mustRegister(t, r, diagOp(4, 10))
	if _, ok := r.lookup(fp); ok {
		t.Fatal("unpinned operator still exempt from eviction")
	}
}

// TestRegistryUnpinCollectsCapDebt pins two operators into a 1-op
// registry (pins may hold the store over cap) and asserts the debt is
// collected the moment a pin is released, not lazily on the next insert.
func TestRegistryUnpinCollectsCapDebt(t *testing.T) {
	r, err := openRegistry(1, 1<<30, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fp0, _, err := r.registerPinned(diagOp(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	fp1, _, err := r.registerPinned(diagOp(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ops, _ := r.stats(); ops != 2 {
		t.Fatalf("two pinned operators in a 1-op registry: resident %d, want 2 (pins override caps)", ops)
	}
	r.unpin(fp0)
	if ops, _ := r.stats(); ops != 1 {
		t.Fatalf("unpin left %d operators resident, want the cap (1) restored immediately", ops)
	}
	if _, ok := r.lookup(fp1); !ok {
		t.Fatal("wrong victim: the still-pinned operator fell out")
	}
}

// TestRegistryEphemeralTier checks the journal-less tier: an ephemeral
// registration is resident and addressable but never journaled (lost on
// restart), while a later durable registration of the same operator
// promotes it into the journal.
func TestRegistryEphemeralTier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.journal")
	r, err := openRegistry(8, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	eph := diagOp(4, 1)
	fpE, _, err := r.registerEphemeral(eph)
	if err != nil {
		t.Fatal(err)
	}
	fpD := mustRegister(t, r, diagOp(4, 2))
	if _, ok := r.lookup(fpE); !ok {
		t.Fatal("ephemeral operator not resident")
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}

	r2, err := openRegistry(8, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.lookup(fpD); !ok {
		t.Fatal("durable operator lost across restart")
	}
	if _, ok := r2.lookup(fpE); ok {
		t.Fatal("ephemeral operator survived a restart — it leaked into the journal")
	}

	// Promote: ephemeral first, then a durable registration of the same
	// operator must journal it.
	if _, _, err := r2.registerEphemeral(eph); err != nil {
		t.Fatal(err)
	}
	if _, existed, err := r2.register(eph); err != nil || !existed {
		t.Fatalf("promoting registration answered existed=%v err=%v", existed, err)
	}
	if err := r2.close(); err != nil {
		t.Fatal(err)
	}
	r3, err := openRegistry(8, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.close()
	if _, ok := r3.lookup(fpE); !ok {
		t.Fatal("promoted operator did not survive a restart")
	}
}

// TestRegistryReplayKeepsPinnedUnderCapSqueeze reopens a 3-operator
// journal under a 1-op cap with a pin on the LRU-most operator — the one
// a plain squeeze would drop first. The pin (queued durable jobs
// reference it) must carry it through replay.
func TestRegistryReplayKeepsPinnedUnderCapSqueeze(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.journal")
	r, err := openRegistry(8, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	fps := []uint64{
		mustRegister(t, r, diagOp(4, 1)),
		mustRegister(t, r, diagOp(6, 2)),
		mustRegister(t, r, diagOp(8, 3)),
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}

	r2, err := openRegistry(1, 1<<30, path, map[uint64]int{fps[0]: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.close()
	if _, ok := r2.lookup(fps[0]); !ok {
		t.Fatal("replay cap squeeze dropped a pinned operator")
	}
	if _, ok := r2.lookup(fps[2]); !ok {
		t.Fatal("replay cap squeeze dropped the MRU operator")
	}
	if _, ok := r2.lookup(fps[1]); ok {
		t.Fatal("cap squeeze kept an unpinned non-MRU operator")
	}
}

// TestRegistryConcurrentRegisterEvict hammers a tiny registry from many
// goroutines so the race detector can see register, lookup, and evict
// interleave. Correctness bar: no panic, no race, caps hold at the end.
func TestRegistryConcurrentRegisterEvict(t *testing.T) {
	r, err := openRegistry(4, 1<<30, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := diagOp(4, float64(1+(g*7+i)%10))
				fp, _, err := r.register(a)
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if got, ok := r.lookup(fp); ok && la.Fingerprint(got) != fp {
					t.Error("lookup answered a different operator")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ops, resident := r.stats()
	if ops > 4 {
		t.Fatalf("registry over count cap: %d", ops)
	}
	if want := int64(ops) * operatorCost(diagOp(4, 1)); resident != want {
		t.Fatalf("resident bytes %d out of sync with %d ops (want %d)", resident, ops, want)
	}
	if r.registrations.Load() == 0 {
		t.Fatal("registrations counter never moved")
	}
}

// TestRegistryUndecodableFrameFailsBoot journals frames whose checksums
// are valid but whose payloads are not operators: the boot must fail
// naming the file and the frame, not skip them.
func TestRegistryUndecodableFrameFailsBoot(t *testing.T) {
	for _, bad := range []string{`not json`, `{"n":2,"A":[{"i":5,"j":0,"v":1}]}`} {
		path := filepath.Join(t.TempDir(), "ops.journal")
		good, err := operatorPayload(diagOp(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		frames := [][]byte{good, []byte(bad)}
		l, err := journal.Create(path, opsMagic, len(frames), func(i int) ([]byte, error) { return frames[i], nil })
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		r, err := openRegistry(8, 1<<30, path, nil)
		if err == nil {
			r.close()
			t.Fatalf("payload %q replayed without error", bad)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "frame 1") {
			t.Fatalf("boot error %q does not name the file and frame 1", err)
		}
	}
}

// TestRegistryJournalCompactsWhileAppending registers well past 2×maxOps
// durable operators, so the journal is compacted mid-run and appends
// continue on the compacted file: a reopen must find the resident
// operators, and the file must stay bounded by the compaction cadence.
func TestRegistryJournalCompactsWhileAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.journal")
	r, err := openRegistry(2, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fps []uint64
	for i := 1; i <= 12; i++ {
		fps = append(fps, mustRegister(t, r, diagOp(4, float64(i))))
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	frames := 0
	if _, err := journal.Read(path, opsMagic, func([]byte) error { frames++; return nil }); err != nil {
		t.Fatal(err)
	}
	if frames > 2+2*2+1 {
		t.Fatalf("journal holds %d frames after 12 registrations, want at most a 2-op snapshot plus 5 appends", frames)
	}
	r2, err := openRegistry(2, 1<<30, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.close()
	for _, fp := range fps[len(fps)-2:] {
		if _, ok := r2.lookup(fp); !ok {
			t.Fatalf("operator %x registered after a compaction was lost across restart", fp)
		}
	}
}
