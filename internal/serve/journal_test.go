package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"analogacc/internal/jobs"
)

// frameEnds walks a journal file (8-byte magic, then frames with a
// 12-byte header whose first field is the payload length) and returns
// the offset at which the magic and every frame end.
func frameEnds(t *testing.T, raw []byte) []int {
	t.Helper()
	ends := []int{8}
	for off := 8; off < len(raw); {
		off += 12 + int(binary.LittleEndian.Uint32(raw[off:]))
		if off > len(raw) {
			t.Fatalf("journal frame runs past the end of the file")
		}
		ends = append(ends, off)
	}
	return ends
}

// scaledEq2 is the Equation 2 system with its matrix scaled by s and its
// right-hand side shifted by s: a distinct operator per s.
func scaledEq2(s float64) SolveRequest {
	req := eq2Request("analog-refined")
	for i := range req.A {
		req.A[i].Val *= s
	}
	req.B = []float64{0.5 * s, 0.3 + s/10}
	return req
}

// TestJournalDamageFailsBoot damages a store the ways a disk or an
// editor can, and checks the one damage policy: New fails with an error
// naming the file (and, for checksum damage, the frame and its offset)
// and leaves the damaged file byte-identical. The ops journal carries
// registered operators after the damaged frame, and the WAL a queued
// job's operator frame, which a best-effort replay would silently lose.
func TestJournalDamageFailsBoot(t *testing.T) {
	for _, tc := range []struct {
		name string
		// damage corrupts one file of the store and returns its path and
		// the text the boot error must contain besides that path.
		damage func(t *testing.T, store string) (path string, want []string)
	}{
		{"ops-payload-byte", func(t *testing.T, store string) (string, []string) {
			path := store + ".ops"
			raw := mustRead(t, path)
			ends := frameEnds(t, raw)
			if len(ends) != 4 {
				t.Fatalf("ops journal holds %d frames, want 3", len(ends)-1)
			}
			raw[ends[1]+12+3] ^= 0x20 // a payload byte of frame 1; frame 2 follows it
			mustWrite(t, path, raw)
			return path, []string{"frame 1", fmt.Sprintf("offset %d", ends[1]), "checksum mismatch"}
		}},
		{"ops-foreign-bytes", func(t *testing.T, store string) (string, []string) {
			path := store + ".ops"
			mustWrite(t, path, []byte("these bytes are not an operator journal\n"))
			return path, []string{"bad magic"}
		}},
		{"wal-length-bit", func(t *testing.T, store string) (string, []string) {
			raw := mustRead(t, store)
			raw[8+2] ^= 0x01 // frame 0's length grows by 64 KiB
			mustWrite(t, store, raw)
			return store, []string{"frame 0", "offset 8", "checksum mismatch"}
		}},
		{"wal-operator-frame-byte", func(t *testing.T, store string) (string, []string) {
			// The boot snapshot's meta frame, then the job's operator frame
			// and its submit frame.
			raw := mustRead(t, store)
			ends := frameEnds(t, raw)
			if len(ends) != 4 {
				t.Fatalf("WAL holds %d frames, want 3", len(ends)-1)
			}
			raw[ends[1]+12+5] ^= 0x20 // a payload byte of the operator frame
			mustWrite(t, store, raw)
			return store, []string{"frame 1", fmt.Sprintf("offset %d", ends[1]), "checksum mismatch"}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "jobs.wal")
			cfg := Config{Pool: testPoolConfig(), JobWorkers: -1, JobStore: store}
			s, client, done := newTestServer(t, cfg)
			ctx := context.Background()
			for i := 0; i < 3; i++ {
				if _, _, err := s.registry.register(diagOp(4, float64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			req := scaledEq2(1)
			if _, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req}); err != nil {
				t.Fatal(err)
			}
			done()

			path, want := tc.damage(t, store)
			before := mustRead(t, path)
			s2, err := New(cfg)
			if err == nil {
				s2.Close()
				t.Fatalf("boot on a damaged %s succeeded", filepath.Base(path))
			}
			for _, w := range append(want, path) {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("boot error %q does not name %q", err, w)
				}
			}
			if !bytes.Equal(mustRead(t, path), before) {
				t.Errorf("failed boot rewrote the damaged %s", filepath.Base(path))
			}
		})
	}
}

// TestByRefJobsReplayAtEveryWALFrame queues by-reference jobs on distinct
// operators, then boots on the job WAL cut at every frame boundary with
// no operator journal: each job's operator rides the WAL just before its
// submit record. Every replayed job must resolve its operator and answer
// bit-identically to the solo solve, and an operator frame cut off from
// its submit record holds nothing: no job outlives its operator.
func TestByRefJobsReplayAtEveryWALFrame(t *testing.T) {
	pool := PoolConfig{ChipsPerClass: 1, WarmSizes: []int{2}, MinClass: 2, MaxDim: 32}
	store := filepath.Join(t.TempDir(), "jobs.wal")
	s, client, done := newTestServer(t, Config{Pool: pool, JobWorkers: -1, JobStore: store})
	ctx := context.Background()
	var solo [][]float64 // reference answers, in submit order
	for _, scale := range []float64{1, 0.9, 1.2} {
		req := scaledEq2(scale)
		resp, err := client.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req}); err != nil {
			t.Fatal(err)
		}
		solo = append(solo, resp.U)
	}
	if got := len(s.jobs.List("", "")); got != len(solo) {
		t.Fatalf("queued %d jobs, want %d", got, len(solo))
	}
	done()
	wal := mustRead(t, store)

	// The WAL holds the magic and the boot snapshot (one meta frame),
	// then an operator frame and a submit frame per job.
	ends := frameEnds(t, wal)
	if len(ends) != 2+2*len(solo) {
		t.Fatalf("WAL holds %d frames, want a meta frame and %d operator and submit pairs", len(ends)-1, len(solo))
	}
	for i, end := range ends {
		queued := max(i-1, 0) / 2
		cut := filepath.Join(t.TempDir(), "jobs.wal")
		mustWrite(t, cut, wal[:end])
		s2, err := New(Config{Pool: pool, JobWorkers: -1, JobStore: cut})
		if err != nil {
			t.Fatalf("cut at %d: %v", end, err)
		}
		if got := len(s2.jobs.List("", "")); got != queued {
			s2.Close()
			t.Fatalf("cut at %d replayed %d jobs, want %d", end, got, queued)
		}
		if got := s2.jobs.Stats().Operators; got != queued {
			s2.Close()
			t.Fatalf("cut at %d holds %d operators for %d jobs", end, got, queued)
		}
		for k := 0; k < queued; k++ {
			j := s2.jobs.Lease("w")
			var stored SolveRequest
			if err := json.Unmarshal(j.Payload, &stored); err != nil || stored.Fingerprint == "" {
				t.Fatalf("cut at %d: job %s was journaled by value", end, j.ID)
			}
			if err := s2.jobs.Start(j.ID, "w"); err != nil {
				t.Fatal(err)
			}
			task := &jobs.Task{Ctx: ctx, Job: j}
			s2.executeJobs([]*jobs.Task{task})
			raw, code, msg := task.Result, task.ErrCode, task.ErrMsg
			if code != "" {
				t.Fatalf("cut at %d: replayed job %s failed: %s: %s", end, j.ID, code, msg)
			}
			var resp SolveResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			for i := range resp.U {
				if resp.U[i] != solo[k][i] {
					t.Fatalf("cut at %d: job %s u[%d] = %v, solo %v", end, j.ID, i, resp.U[i], solo[k][i])
				}
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func mustWrite(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
