package serve

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"analogacc/internal/journal"
	"analogacc/internal/la"
)

// The operator registry. The paper's economics make programming the
// operator a one-time static cost — but the wire path re-shipped the full
// O(nnz) matrix JSON on every request even when the chip pool already held
// it programmed. The registry closes that gap one level above the pool:
// PUT /v1/operators uploads a matrix once into a bounded, byte-capped LRU
// store keyed by la.Fingerprint, and every later solve references it by
// fingerprint alone, shrinking warm-path requests to O(n) (the right-hand
// side) regardless of sparsity.
//
// The registry and the pool's session cache are deliberately independent
// tiers: the registry holds *parsed matrices* (cheap DRAM, hundreds of
// operators), the session cache holds *programmed configurations* (scarce
// chips, a handful). An operator evicted from the registry may still be
// resident on a chip, and vice versa; a by-reference solve needs only the
// registry hit — the pool then finds or rebuilds the programming as usual.
//
// When the server runs with a durable job store, the registry journals
// registrations beside it (JobStore + ".ops", an internal/journal file
// with one wireOperator per frame) so crash replay of by-reference job
// payloads re-resolves: the WAL frame holds O(n), the operator store
// holds the O(nnz) matrix exactly once.

// opsMagic tags the registry journal; bump it on any record format change.
const opsMagic = "ALADOPS2"

// errRegistryCapacity marks an operator whose cost alone exceeds the
// registry byte cap; the API maps it to 413.
var errRegistryCapacity = errors.New("serve: operator exceeds the registry byte cap")

// opEntry is one resident operator.
type opEntry struct {
	fp    uint64
	a     *la.CSR
	bytes int64
	elem  *list.Element
	// ephemeral marks an implicitly registered operator (federation
	// sub-blocks): never journaled, skipped by compaction, lost on
	// restart. Callers of the ephemeral tier always have a full-send
	// fallback, so losing one costs a resend, not correctness.
	ephemeral bool
}

// opRegistry is the bounded LRU operator store. Safe for concurrent use.
type opRegistry struct {
	maxOps   int
	maxBytes int64

	mu    sync.Mutex
	ops   map[uint64]*opEntry
	lru   *list.List // front = most recently used
	bytes int64
	// pins refcounts operators that queued or leased durable jobs
	// reference by fingerprint: a pinned operator is exempt from LRU
	// eviction (and, being resident, survives journal compaction), so an
	// accepted by-reference job can always re-resolve its matrix no
	// matter how much the registry churns before the job runs. Pins may
	// hold the store over its caps — durability of accepted work wins
	// over the byte budget.
	pins map[uint64]int

	// Journal (nil when the registry is memory-only). appends counts
	// records written since the last compaction; when it exceeds
	// 2×maxOps the journal is rewritten with only the survivors.
	log     *journal.Log
	path    string
	appends int

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	registrations atomic.Int64
}

// operatorCost estimates resident bytes for one parsed operator: CSR
// values+indices plus row pointers plus bookkeeping.
func operatorCost(a *la.CSR) int64 {
	return 16*int64(a.NNZ()) + 8*int64(a.Dim()+1) + 96
}

// openRegistry builds the registry, replaying (and compacting) the
// journal at path when non-empty. pins (may be nil) seeds the pin
// refcounts before replay — the fingerprints queued durable jobs still
// reference — so a cap squeeze during replay can never drop an operator
// an accepted job depends on.
func openRegistry(maxOps int, maxBytes int64, path string, pins map[uint64]int) (*opRegistry, error) {
	r := &opRegistry{
		maxOps:   maxOps,
		maxBytes: maxBytes,
		ops:      make(map[uint64]*opEntry),
		lru:      list.New(),
		path:     path,
		pins:     make(map[uint64]int),
	}
	for fp, n := range pins {
		if n > 0 {
			r.pins[fp] = n
		}
	}
	if path == "" {
		return r, nil
	}
	// A damaged journal fails the boot untouched. A torn tail is not
	// surfaced: the registration it held was never acknowledged.
	if _, err := journal.Read(path, opsMagic, r.replay); err != nil {
		return nil, fmt.Errorf("replaying operator journal: %w", err)
	}
	// Boot compaction: rewrite the journal with only the operators that
	// survived the caps, dropping torn tails and evicted duplicates.
	if err := r.compactLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// wireOperator is the journal payload: the matrix in triplet form. The
// fingerprint is recomputed on load, never trusted from disk.
type wireOperator struct {
	N int     `json:"n"`
	A []Entry `json:"A"`
}

// replay registers one journaled operator through the normal LRU path
// (caps apply — a journal larger than the store keeps only the most
// recently appended survivors). A frame that does not decode into a
// valid matrix fails the boot like any other damage.
func (r *opRegistry) replay(payload []byte) error {
	var op wireOperator
	if err := json.Unmarshal(payload, &op); err != nil {
		return fmt.Errorf("undecodable operator: %v", err)
	}
	entries := make([]la.COOEntry, len(op.A))
	for i, e := range op.A {
		entries[i] = la.COOEntry{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	a, err := la.NewCSR(op.N, entries)
	if err != nil {
		return fmt.Errorf("invalid operator: %w", err)
	}
	r.insert(la.Fingerprint(a), a, false)
	return nil
}

// register adds (or refreshes) an operator and reports whether it was
// already resident. An operator whose cost alone exceeds the byte cap is
// rejected — the caller maps that to 413.
func (r *opRegistry) register(a *la.CSR) (fp uint64, existed bool, err error) {
	return r.registerOpts(a, true, false)
}

// registerPinned registers (or refreshes) an operator and takes one pin
// on it, exempting it from eviction until a matching unpin. The pin is
// only taken when registration fully succeeded (journal append
// included), so a pinned fingerprint is always durably re-resolvable.
func (r *opRegistry) registerPinned(a *la.CSR) (fp uint64, existed bool, err error) {
	return r.registerOpts(a, true, true)
}

// registerEphemeral registers (or refreshes) an operator in the
// journal-less tier: resident and addressable like any other, but never
// written to the registry journal and dropped by compaction. Federation
// block workers use it for implicitly registered sub-blocks — they fall
// back to a full send on a miss, so an fsync per sub-block inside the
// solve path buys nothing.
func (r *opRegistry) registerEphemeral(a *la.CSR) (fp uint64, existed bool, err error) {
	return r.registerOpts(a, false, false)
}

func (r *opRegistry) registerOpts(a *la.CSR, durable, pin bool) (fp uint64, existed bool, err error) {
	fp = la.Fingerprint(a)
	cost := operatorCost(a)
	if cost > r.maxBytes {
		return fp, false, fmt.Errorf("%w: operator is %d bytes, cap is %d", errRegistryCapacity, cost, r.maxBytes)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, existed = r.ops[fp]; !existed {
		r.registrations.Add(1)
	}
	r.insert(fp, a, true)
	// An entry is durable once its frame is journaled, so a failed append
	// leaves it ephemeral and the next durable registration retries.
	if e := r.ops[fp]; durable && e.ephemeral {
		if err := r.appendLocked(e.a); err != nil {
			return fp, existed, err
		}
		e.ephemeral = false
	}
	if pin {
		r.pins[fp]++
	}
	return fp, existed, nil
}

// pin takes one pin on a fingerprint without registering anything: the
// boot path uses it indirectly (openRegistry's pins argument), the live
// path pins through registerPinned.
func (r *opRegistry) pin(fp uint64) {
	r.mu.Lock()
	r.pins[fp]++
	r.mu.Unlock()
}

// unpin releases one pin. When the last pin drops the entry rejoins the
// ordinary LRU economy, and any cap debt the pins were holding open is
// collected immediately.
func (r *opRegistry) unpin(fp uint64) {
	r.mu.Lock()
	switch n := r.pins[fp]; {
	case n > 1:
		r.pins[fp] = n - 1
	case n == 1:
		delete(r.pins, fp)
		r.evictLocked()
	}
	r.mu.Unlock()
}

// pinnedCount snapshots how many distinct operators hold pins.
func (r *opRegistry) pinnedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pins)
}

// insert adds one operator under r.mu (or before concurrency exists, in
// replay) and evicts LRU entries until both caps hold again.
func (r *opRegistry) insert(fp uint64, a *la.CSR, ephemeral bool) {
	if e, ok := r.ops[fp]; ok {
		r.lru.MoveToFront(e.elem)
		return
	}
	e := &opEntry{fp: fp, a: a, bytes: operatorCost(a), ephemeral: ephemeral}
	if e.bytes > r.maxBytes {
		return
	}
	e.elem = r.lru.PushFront(e)
	r.ops[fp] = e
	r.bytes += e.bytes
	r.evictLocked()
}

// evictLocked restores the caps (r.mu held): LRU entries fall first,
// skipping pinned operators and the MRU entry itself. When everything
// evictable is gone the store may stay over cap — pinned operators
// belong to accepted durable jobs and must outlive any churn.
func (r *opRegistry) evictLocked() {
	for len(r.ops) > r.maxOps || r.bytes > r.maxBytes {
		var victim *opEntry
		for el := r.lru.Back(); el != nil && el != r.lru.Front(); el = el.Prev() {
			cand := el.Value.(*opEntry)
			if r.pins[cand.fp] > 0 {
				continue
			}
			victim = cand
			break
		}
		if victim == nil {
			return
		}
		r.lru.Remove(victim.elem)
		delete(r.ops, victim.fp)
		r.bytes -= victim.bytes
		r.evictions.Add(1)
	}
}

// lookup resolves a fingerprint to its parsed matrix, refreshing its LRU
// position.
func (r *opRegistry) lookup(fp uint64) (*la.CSR, bool) {
	r.mu.Lock()
	e, ok := r.ops[fp]
	if ok {
		r.lru.MoveToFront(e.elem)
	}
	r.mu.Unlock()
	if ok {
		r.hits.Add(1)
		return e.a, true
	}
	r.misses.Add(1)
	return nil, false
}

// stats snapshots occupancy (resident operators, resident bytes).
func (r *opRegistry) stats() (ops int, resident int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops), r.bytes
}

// residents snapshots the resident operators, most recently used first.
func (r *opRegistry) residents() []OperatorInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]OperatorInfo, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*opEntry)
		out = append(out, OperatorInfo{
			Fingerprint: FormatFingerprint(e.fp),
			N:           e.a.Dim(),
			NNZ:         e.a.NNZ(),
			Bytes:       e.bytes,
		})
	}
	return out
}

// appendLocked journals one registration (r.mu held). Registrations are
// rare relative to solves, so each one is flushed durably. When the
// journal holds more than 2×maxOps appended records it is first
// compacted to the survivors; a failed compaction fails the registration
// and leaves the old journal appending.
func (r *opRegistry) appendLocked(a *la.CSR) error {
	if r.log == nil {
		return nil
	}
	if r.appends > 2*r.maxOps {
		if err := r.compactLocked(); err != nil {
			return err
		}
	}
	payload, err := operatorPayload(a)
	if err != nil {
		return err
	}
	if err := r.log.Append(true, payload); err != nil {
		return err
	}
	r.appends++
	return nil
}

func operatorPayload(a *la.CSR) ([]byte, error) {
	return json.Marshal(wireOperator{N: a.Dim(), A: MatrixEntries(a)})
}

// compactLocked rewrites the journal with only the resident operators
// and swaps the new Log in; on failure the old Log stays. Entries go
// LRU-first, so the MRU entry is last and a replay that hits the caps
// keeps the hottest ones. Ephemeral entries are skipped — they were
// never promised durability.
func (r *opRegistry) compactLocked() error {
	var durable []*la.CSR
	for el := r.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*opEntry); !e.ephemeral {
			durable = append(durable, e.a)
		}
	}
	log, err := journal.Create(r.path, opsMagic, len(durable), func(i int) ([]byte, error) {
		return operatorPayload(durable[i])
	})
	if err != nil {
		return fmt.Errorf("compacting operator journal: %w", err)
	}
	if r.log != nil {
		r.log.Close() // its file was just replaced
	}
	r.log, r.appends = log, 0
	return nil
}

// close flushes and closes the journal.
func (r *opRegistry) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	return r.log.Close()
}
