package jobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testConfig(t *testing.T, path string) Config {
	t.Helper()
	return Config{Path: path, LeaseTTL: time.Second, Clock: time.Now}
}

func mustOpen(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func mustSubmit(t *testing.T, q *Queue, tenant string, fp uint64, payload string) *Job {
	t.Helper()
	j, err := q.Submit(Submission{Tenant: tenant, Kind: "solve", Fingerprint: fp, Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWALRoundTripAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j1 := mustSubmit(t, q, "a", 1, "p1")
	j2 := mustSubmit(t, q, "b", 2, "p2")
	// Complete j1, leave j2 queued.
	leased := q.Lease("w0")
	if leased == nil || leased.ID != j1.ID {
		t.Fatalf("leased %+v, want %s", leased, j1.ID)
	}
	if err := q.Start(j1.ID, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(j1.ID, "w0", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := mustOpen(t, testConfig(t, path))
	g1, ok := q2.Get(j1.ID)
	if !ok || g1.State != StateDone || string(g1.Result) != "r1" {
		t.Fatalf("j1 after restart: %+v", g1)
	}
	g2, ok := q2.Get(j2.ID)
	if !ok || g2.State != StateQueued || string(g2.Payload) != "p2" {
		t.Fatalf("j2 after restart: %+v", g2)
	}
	if s := q2.Stats(); s.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", s.Replayed)
	}
}

func TestWALTornTailRecordDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j1 := mustSubmit(t, q, "a", 1, "p1")
	mustSubmit(t, q, "a", 2, "p2")
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last record mid-payload, simulating a
	// crash during an append.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	q2 := mustOpen(t, testConfig(t, path))
	s := q2.Stats()
	if s.TornDropped != 1 {
		t.Fatalf("torn dropped = %d, want 1", s.TornDropped)
	}
	// The first job survives; the second's submit record was the torn
	// tail, so it is gone — an unacknowledged submit, not lost state.
	if _, ok := q2.Get(j1.ID); !ok {
		t.Fatal("first job lost with the torn tail")
	}
	if s.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", s.Replayed)
	}
}

func TestWALChecksumMismatchAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	mustSubmit(t, q, "a", 1, "p1")
	mustSubmit(t, q, "a", 2, "p2")
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the FIRST record's payload: mid-file
	// corruption, not a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(walMagic)+12] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(testConfig(t, path))
	if err == nil {
		t.Fatal("corrupt journal replayed without error")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error %q does not name the checksum mismatch", err)
	}
}

func TestWALBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0 some garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testConfig(t, path)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad-magic journal opened: err=%v", err)
	}
}

func TestWALBootCompactionBoundsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	// Ten full lifecycles = ~40 records.
	for i := 0; i < 10; i++ {
		j := mustSubmit(t, q, "a", uint64(100+i), "p")
		if got := q.Lease("w0"); got == nil || got.ID != j.ID {
			t.Fatalf("lease %d: %+v", i, got)
		}
		if err := q.Start(j.ID, "w0"); err != nil {
			t.Fatal(err)
		}
		if err := q.Complete(j.ID, "w0", []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Reopen compacts: 10 snap records + meta, far fewer bytes than the
	// transition-by-transition history.
	q2 := mustOpen(t, testConfig(t, path))
	if s := q2.Stats(); s.Compactions != 1 || s.Done != 10 {
		t.Fatalf("stats after compaction: %+v", s)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("compaction did not shrink the journal: %d → %d bytes", grown.Size(), compacted.Size())
	}

	// And the compacted journal replays identically.
	q3 := mustOpen(t, testConfig(t, path))
	if s := q3.Stats(); s.Done != 10 || s.Queued != 0 {
		t.Fatalf("state after double restart: %+v", s)
	}
}

// TestWALCrashAtEveryOffset runs a real lifecycle (submit, lease, start,
// done, fail, cancel, lease expiry, cancel request) on a live queue, then
// reopens its journal cut at every byte offset. Every cut must open, and
// replay exactly the jobs whose submit frame is complete, each in the
// state its last complete record left it after lease reclamation.
func TestWALCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{Path: filepath.Join(dir, "jobs.wal"), LeaseTTL: time.Second, Clock: clock.Now}
	q := mustOpen(t, cfg)

	// Each live operation appends one frame; record where it ends and
	// the state it left its job in.
	type event struct {
		end       int64
		id        string
		state     State
		cancelReq bool
	}
	var events []event
	note := func(id string) {
		j, _ := q.Get(id)
		events = append(events, event{q.Stats().WALBytes, id, j.State, j.CancelRequested})
	}
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, mustSubmit(t, q, "a", uint64(i+1), fmt.Sprintf("p%d", i)).ID)
		note(ids[i])
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	lease := func(want string) {
		t.Helper()
		if j := q.Lease("w"); j == nil || j.ID != want {
			t.Fatalf("leased %+v, want %s", j, want)
		}
		note(want)
	}
	lease(ids[0])
	must(q.Start(ids[0], "w"))
	note(ids[0])
	must(q.Complete(ids[0], "w", []byte("r0")))
	note(ids[0])
	lease(ids[1])
	must(q.Start(ids[1], "w"))
	note(ids[1])
	must(q.Fail(ids[1], "w", "bad", "failed"))
	note(ids[1])
	_, err := q.Cancel(ids[2])
	must(err)
	note(ids[2])
	lease(ids[3])
	clock.Advance(2 * time.Second)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	note(ids[3])
	lease(ids[3])
	must(q.Start(ids[3], "w"))
	note(ids[3])
	lease(ids[4])
	_, err = q.Cancel(ids[4])
	must(err)
	note(ids[4])
	raw, err := os.ReadFile(cfg.Path)
	must(err)
	if last := events[len(events)-1].end; last != int64(len(raw)) {
		t.Fatalf("journal is %d bytes, last frame ends at %d", len(raw), last)
	}

	cut := cfg
	cut.Path = filepath.Join(dir, "cut.wal")
	for off := 0; off <= len(raw); off++ {
		want := map[string]State{}
		cancelReq := map[string]bool{}
		for _, ev := range events {
			if ev.end <= int64(off) {
				want[ev.id], cancelReq[ev.id] = ev.state, ev.cancelReq
			}
		}
		for id, st := range want {
			if st == StateLeased || st == StateRunning {
				want[id] = StateQueued
				if cancelReq[id] {
					want[id] = StateCancelled
				}
			}
		}
		must(os.WriteFile(cut.Path, raw[:off], 0o644))
		q2, err := Open(cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		got := q2.List("", "")
		if len(got) != len(want) {
			t.Fatalf("cut at %d replayed %d jobs, want %d", off, len(got), len(want))
		}
		for _, j := range got {
			if j.State != want[j.ID] {
				t.Fatalf("cut at %d: job %s replayed %s, want %s", off, j.ID, j.State, want[j.ID])
			}
		}
		q2.Close()
	}
}

// TestWALOperatorFramesAtEveryOffset is TestWALCrashAtEveryOffset for
// operator frames. The journal holds a submission with its operator's
// frame, a second submission on the same live operator (no frame), both
// jobs turning terminal, a resubmission on the released operator (still
// no frame: the queue kept it), a submission that names an operator the
// queue never had without its bytes (refused, nothing written), and a job
// on a second operator. Every cut must open, and so must the journal its
// boot compacted; each live job that names an operator reads back the
// bytes submitted with it, and an operator frame whose submit record was
// cut off holds nothing. With the first operator frame cut out instead,
// live jobs name an operator no frame carries, and the boot fails.
func TestWALOperatorFramesAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Path: filepath.Join(dir, "jobs.wal"), LeaseTTL: time.Second, Clock: newFakeClock().Now}
	q := mustOpen(t, cfg)
	opBytes := map[uint64][]byte{11: []byte(`{"n":2,"A":"eleven"}`), 12: []byte(`{"n":3,"A":"twelve"}`)}

	type event struct {
		end   int64
		id    string
		state State
	}
	var events []event
	note := func(id string) {
		j, _ := q.Get(id)
		events = append(events, event{q.Stats().WALBytes, id, j.State})
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	submit := func(fp, op uint64, withBytes bool, wantFrames int64) string {
		t.Helper()
		before := q.Stats().WALRecords
		s := Submission{Tenant: "a", Kind: "solve", Fingerprint: fp, Operator: op, Payload: []byte(fmt.Sprintf("p%d", fp))}
		if withBytes {
			s.OperatorBytes = opBytes[op]
		}
		j, err := q.Submit(s)
		must(err)
		if got := q.Stats().WALRecords - before; got != wantFrames {
			t.Fatalf("submit %d on operator %d appended %d frames, want %d", fp, op, got, wantFrames)
		}
		note(j.ID)
		return j.ID
	}
	firstFrame := q.Stats().WALBytes
	a := submit(1, 11, true, 2)
	b := submit(2, 11, true, 1) // the operator is held: its bytes are not written again
	if j := q.Lease("w"); j == nil || j.ID != a {
		t.Fatalf("leased %+v, want %s", j, a)
	}
	note(a)
	must(q.Start(a, "w"))
	note(a)
	must(q.Complete(a, "w", []byte("r")))
	note(a)
	_, err := q.Cancel(b)
	must(err)
	note(b)
	if s := q.Stats(); s.Operators != 0 {
		t.Fatalf("%d operators held after their jobs ended, want 0", s.Operators)
	}
	submit(3, 11, false, 1) // released, but its frame is in this file
	before := q.Stats()
	if _, err := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: 4, Operator: 12}); !errors.Is(err, ErrNoOperator) {
		t.Fatalf("bytes-less submit on an operator the queue never had answered %v, want ErrNoOperator", err)
	}
	if after := q.Stats(); after.WALRecords != before.WALRecords || after.Submitted != before.Submitted {
		t.Fatalf("refused submit left a trace: %+v, was %+v", after, before)
	}
	submit(5, 12, true, 2)
	raw, err := os.ReadFile(cfg.Path)
	must(err)
	if last := events[len(events)-1].end; last != int64(len(raw)) {
		t.Fatalf("journal is %d bytes, last frame ends at %d", len(raw), last)
	}

	cut := cfg
	cut.Path = filepath.Join(dir, "cut.wal")
	for off := 0; off <= len(raw); off++ {
		want := map[string]State{}
		for _, ev := range events {
			if ev.end <= int64(off) {
				want[ev.id] = ev.state
			}
		}
		must(os.WriteFile(cut.Path, raw[:off], 0o644))
		// The first open replays the cut journal, the second the
		// compacted journal the first wrote.
		for _, boot := range []string{"replay", "compacted replay"} {
			q2, err := Open(cut)
			if err != nil {
				t.Fatalf("cut at %d, %s: %v", off, boot, err)
			}
			got := q2.List("", "")
			if len(got) != len(want) {
				t.Fatalf("cut at %d, %s: %d jobs, want %d", off, boot, len(got), len(want))
			}
			live := map[uint64]bool{}
			for _, j := range got {
				if st := want[j.ID]; st == StateLeased || st == StateRunning {
					want[j.ID] = StateQueued
				}
				if j.State != want[j.ID] {
					t.Fatalf("cut at %d, %s: job %s is %s, want %s", off, boot, j.ID, j.State, want[j.ID])
				}
				if j.State.Terminal() {
					continue
				}
				live[j.Operator] = true
				if b, ok := q2.Operator(j.Operator); !ok || string(b) != string(opBytes[j.Operator]) {
					t.Fatalf("cut at %d, %s: job %s reads operator %d as %q (held %v)", off, boot, j.ID, j.Operator, b, ok)
				}
			}
			if s := q2.Stats(); s.Operators != len(live) {
				t.Fatalf("cut at %d, %s: %d operators held for %d named by live jobs", off, boot, s.Operators, len(live))
			}
			for op := range opBytes {
				if _, ok := q2.Operator(op); ok != live[op] {
					t.Fatalf("cut at %d, %s: operator %d kept %v, named by a live job %v", off, boot, op, ok, live[op])
				}
			}
			q2.Close()
		}
	}

	frameEnd := firstFrame + 12 + 1 + int64(len(opBytes[11])) // header, tag, bytes
	orphaned := append(append([]byte(nil), raw[:firstFrame]...), raw[frameEnd:]...)
	must(os.WriteFile(cut.Path, orphaned, 0o644))
	if _, err := Open(cut); err == nil || !strings.Contains(err.Error(), "no operator frame carries") {
		t.Fatalf("a job whose operator frame is gone opened: err=%v", err)
	}
	if after, err := os.ReadFile(cut.Path); err != nil || string(after) != string(orphaned) {
		t.Fatalf("the failed boot rewrote the journal (read err %v)", err)
	}
}

// TestWALReleasedOperatorsReplayInOrder releases three operators whose
// frames together exceed retainOperatorBytes, so the least recently
// released one is dropped, and then enough small ones to exceed
// retainOperators, which drops the next. A job on a kept operator
// journals no frame, and a job on a dropped one is refused without its
// bytes and journals them again. Replay must keep and drop the same
// operators in the same order: a journal cut at every frame boundary
// opens, and every live job reads back its operator.
func TestWALReleasedOperatorsReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Path: filepath.Join(dir, "jobs.wal"), LeaseTTL: time.Second, Clock: newFakeClock().Now}
	q := mustOpen(t, cfg)
	opBytes := map[uint64][]byte{}
	for op := uint64(21); op <= 23; op++ {
		// Two of these fit under the byte bound; three do not.
		opBytes[op] = []byte(strings.Repeat(fmt.Sprint(op), retainOperatorBytes/5))
	}
	for op := uint64(41); op < 41+retainOperators-1; op++ {
		opBytes[op] = []byte(fmt.Sprint(op))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cuts := []int64{q.Stats().WALBytes}
	submit := func(fp, op uint64, withBytes bool, wantFrames int64) string {
		t.Helper()
		before := q.Stats()
		s := Submission{Tenant: "a", Kind: "solve", Fingerprint: fp, Operator: op, Payload: []byte("p")}
		if withBytes {
			s.OperatorBytes = opBytes[op]
		}
		j, err := q.Submit(s)
		must(err)
		after := q.Stats()
		if got := after.WALRecords - before.WALRecords; got != wantFrames {
			t.Fatalf("submit %d on operator %d appended %d frames, want %d", fp, op, got, wantFrames)
		}
		if wantFrames == 2 {
			cuts = append(cuts, before.WALBytes+12+1+int64(len(opBytes[op]))) // header, tag, bytes
		}
		cuts = append(cuts, after.WALBytes)
		return j.ID
	}
	finish := func(id string) {
		t.Helper()
		if j := q.Lease("w"); j == nil || j.ID != id {
			t.Fatalf("leased %+v, want %s", j, id)
		}
		must(q.Start(id, "w"))
		must(q.Complete(id, "w", []byte("r")))
		cuts = append(cuts, q.Stats().WALBytes)
	}
	for op := uint64(21); op <= 23; op++ {
		finish(submit(op, op, true, 2))
	}
	if _, ok := q.Operator(21); ok {
		t.Fatal("operator 21 kept past the byte bound")
	}
	for op := uint64(41); op < 41+retainOperators-1; op++ {
		finish(submit(op, op, true, 2))
	}
	if _, ok := q.Operator(22); ok {
		t.Fatal("operator 22 kept past the count bound")
	}
	submit(123, 23, false, 1)
	submit(141, 41, false, 1)
	for _, op := range []uint64{21, 22} {
		if _, err := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: 100 + op, Operator: op}); !errors.Is(err, ErrNoOperator) {
			t.Fatalf("bytes-less submit on dropped operator %d answered %v, want ErrNoOperator", op, err)
		}
		submit(100+op, op, true, 2)
	}

	raw, err := os.ReadFile(cfg.Path)
	must(err)
	cut := cfg
	cut.Path = filepath.Join(dir, "cut.wal")
	for _, off := range cuts {
		must(os.WriteFile(cut.Path, raw[:off], 0o644))
		q2, err := Open(cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		for _, j := range q2.List("", "") {
			if j.State.Terminal() {
				continue
			}
			if b, ok := q2.Operator(j.Operator); !ok || string(b) != string(opBytes[j.Operator]) {
				t.Fatalf("cut at %d: job %s reads operator %d as %d bytes (held %v)", off, j.ID, j.Operator, len(b), ok)
			}
		}
		q2.Close()
	}
}

// TestSubmitAfterFailedAppendLeavesNoTrace closes the journal under a
// live queue: the submit must fail, leave no job and no held operator
// behind, and a retry of the same request must fail too rather than dedup
// onto a job that was never journaled.
func TestSubmitAfterFailedAppendLeavesNoTrace(t *testing.T) {
	q := mustOpen(t, testConfig(t, filepath.Join(t.TempDir(), "jobs.wal")))
	if err := q.log.Close(); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		s := Submission{Tenant: "a", Kind: "solve", Fingerprint: 7, Operator: 9, OperatorBytes: []byte("op"), Payload: []byte("p")}
		if j, err := q.Submit(s); err == nil {
			t.Fatalf("attempt %d: submit on a failed journal answered %+v", attempt, j)
		}
		if jobs := q.List("", ""); len(jobs) != 0 {
			t.Fatalf("attempt %d: failed submit left %d jobs listed", attempt, len(jobs))
		}
		if _, held := q.Operator(9); held {
			t.Fatalf("attempt %d: failed submit left its operator held", attempt)
		}
	}
	if s := q.Stats(); s.Submitted != 0 || s.Deduped != 0 || s.Operators != 0 {
		t.Fatalf("stats after failed submits: %+v", s)
	}
}
