package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testMagic = "ALADTEST"

// testPayloads are the frames of the test journal: 22 payloads of
// assorted lengths, one of them empty.
func testPayloads() [][]byte {
	var out [][]byte
	for i := 0; i < 22; i++ {
		out = append(out, []byte(fmt.Sprintf("frame-%02d:%s", i, strings.Repeat("x", (i*7)%23))))
	}
	out[5] = nil
	return out
}

// writeJournal writes payloads as a journal (the first half through
// Create, the rest through Append) and returns the file's bytes and the
// end offset of every frame.
func writeJournal(t testing.TB, path string, payloads [][]byte) ([]byte, []int) {
	t.Helper()
	half := len(payloads) / 2
	l, err := Create(path, testMagic, half, func(i int) ([]byte, error) { return payloads[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads[half:] {
		if err := l.Append(i%2 == 0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int, len(payloads))
	end := len(testMagic)
	for i, p := range payloads {
		end += headerSize + len(p)
		ends[i] = end
	}
	if end != len(raw) || int64(end) != l.Size() {
		t.Fatalf("journal is %d bytes (Size %d), frames end at %d", len(raw), l.Size(), end)
	}
	return raw, ends
}

// readAll replays the journal at path, copying out every payload.
func readAll(path string) (frames [][]byte, torn int, err error) {
	torn, err = Read(path, testMagic, func(p []byte) error {
		frames = append(frames, append([]byte(nil), p...))
		return nil
	})
	return frames, torn, err
}

func sameFrames(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestReadTruncatedAtEveryOffset cuts the test journal at every byte
// offset: each cut must replay exactly the frames that end at or before
// it, without an error, and report a torn tail unless it falls on a
// frame boundary. A missing file is an empty journal.
func TestReadTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	if torn, err := Read(filepath.Join(dir, "missing"), testMagic, nil); torn != 0 || err != nil {
		t.Fatalf("missing journal: torn %d, err %v; want an empty journal", torn, err)
	}
	payloads := testPayloads()
	raw, ends := writeJournal(t, filepath.Join(dir, "full"), payloads)
	cut := filepath.Join(dir, "cut")
	for off := 0; off <= len(raw); off++ {
		if err := os.WriteFile(cut, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		complete, boundary := 0, off == len(testMagic)
		for _, end := range ends {
			if end <= off {
				complete++
			}
			boundary = boundary || end == off
		}
		frames, torn, err := readAll(cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		if !sameFrames(frames, payloads[:complete]) {
			t.Fatalf("cut at %d replayed %d frames, want the %d complete ones", off, len(frames), complete)
		}
		if wantTorn := map[bool]int{true: 0, false: 1}[boundary]; torn != wantTorn {
			t.Fatalf("cut at %d: torn = %d, want %d", off, torn, wantTorn)
		}
	}
}

// TestReadRejectsEveryByteFlip damages every byte of the test journal,
// one at a time and three ways (low bit, high bit, all bits): every
// damaged journal must fail Read with an error naming the file, never
// replay as intact or as a torn tail.
func TestReadRejectsEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	raw, _ := writeJournal(t, filepath.Join(dir, "full"), testPayloads())
	bad := filepath.Join(dir, "bad")
	damaged := make([]byte, len(raw))
	for i := range raw {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			copy(damaged, raw)
			damaged[i] ^= mask
			if err := os.WriteFile(bad, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, torn, err := readAll(bad)
			if err == nil {
				t.Fatalf("byte %d ^ %#02x: Read accepted the damage (torn %d)", i, mask, torn)
			}
			if !strings.Contains(err.Error(), bad) {
				t.Fatalf("byte %d ^ %#02x: error %q does not name the file", i, mask, err)
			}
			if i >= len(testMagic) && !strings.Contains(err.Error(), "frame ") {
				t.Fatalf("byte %d ^ %#02x: error %q does not name the frame", i, mask, err)
			}
		}
	}
}

// TestReadCallbackErrorStops checks that a payload the caller rejects
// fails the replay with the frame and offset named.
func TestReadCallbackErrorStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	_, ends := writeJournal(t, path, testPayloads())
	errBad := errors.New("bad payload")
	n := 0
	_, err := Read(path, testMagic, func([]byte) error {
		if n++; n == 4 {
			return errBad
		}
		return nil
	})
	if !errors.Is(err, errBad) {
		t.Fatalf("Read answered %v, want the callback's error", err)
	}
	if want := fmt.Sprintf("frame 3 at offset %d", ends[2]); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

var errInjected = errors.New("injected fault")

// faultFS is the file-system seam with one injected failure: the k-th
// call (1-based) of one kind of operation fails. A failing write first
// writes half its bytes, as a short write does.
type faultFS struct {
	kind  string
	k     int
	calls map[string]int
}

func (ff *faultFS) hit(kind string) bool {
	ff.calls[kind]++
	return kind == ff.kind && ff.calls[kind] == ff.k
}

func (ff *faultFS) fsys() fsys {
	return fsys{
		open: func(name string, flag int, perm os.FileMode) (*os.File, error) {
			if ff.hit("open") {
				return nil, &os.PathError{Op: "open", Path: name, Err: errInjected}
			}
			return os.OpenFile(name, flag, perm)
		},
		write: func(f *os.File, b []byte) (int, error) {
			if ff.hit("write") {
				n, _ := f.Write(b[:len(b)/2])
				return n, &os.PathError{Op: "write", Path: f.Name(), Err: errInjected}
			}
			return f.Write(b)
		},
		sync: func(f *os.File) error {
			if ff.hit("sync") {
				return &os.PathError{Op: "sync", Path: f.Name(), Err: errInjected}
			}
			return f.Sync()
		},
		rename: func(oldpath, newpath string) error {
			if ff.hit("rename") {
				return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: errInjected}
			}
			return os.Rename(oldpath, newpath)
		},
	}
}

// TestFaultAtEveryCall fails the k-th open, write, fsync and rename, for
// every k, while a journal is compacted over an old one and then
// appended to, and checks the three crash invariants on what the file
// holds afterwards:
//   - a failed Create leaves the old file byte-identical and the old
//     Log appending;
//   - every Append(sync=true) that returned nil replays;
//   - no frame follows a partial one: the file replays without damage
//     to a prefix of what was appended, ending at the first failure.
func TestFaultAtEveryCall(t *testing.T) {
	payloads := testPayloads()
	oldFrames, snapshot, appends := payloads[:3], payloads[3:9], payloads[9:]
	for _, kind := range []string{"open", "write", "sync", "rename"} {
		for k := 1; ; k++ {
			ff := &faultFS{kind: kind, k: k, calls: map[string]int{}}
			if !faultScenario(t, ff, oldFrames, snapshot, appends) {
				break
			}
			if ff.calls[kind] < k {
				break // every call of this kind has been failed once
			}
		}
	}
}

// faultScenario runs one fault-injected compaction and append sequence;
// it reports false once the test has already failed.
func faultScenario(t *testing.T, ff *faultFS, oldFrames, snapshot, appends [][]byte) bool {
	t.Helper()
	name := fmt.Sprintf("%s #%d", ff.kind, ff.k)
	path := filepath.Join(t.TempDir(), "j")
	old, err := Create(path, testMagic, len(oldFrames), func(i int) ([]byte, error) { return oldFrames[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	l, err := create(ff.fsys(), path, testMagic, len(snapshot), func(i int) ([]byte, error) { return snapshot[i], nil })
	if err != nil {
		if !strings.Contains(err.Error(), path+":") || strings.Contains(err.Error(), ".tmp") {
			t.Errorf("%s: Create error %q should name the journal, not its .tmp", name, err)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: failed Create changed the old journal", name)
			return false
		}
		if err := old.Append(true, []byte("after")); err != nil {
			t.Errorf("%s: old Log stopped appending after a failed Create: %v", name, err)
			return false
		}
		frames, _, err := readAll(path)
		if err != nil || !sameFrames(frames, append(append([][]byte{}, oldFrames...), []byte("after"))) {
			t.Errorf("%s: old journal replays %d frames (err %v) after a failed Create", name, len(frames), err)
			return false
		}
		return true
	}

	// Append until the first failure and a few times past it: a failure
	// must stick, and nothing may be written after it.
	var acked, written int // appends durably acknowledged / possibly on disk
	failed := false
	for i, p := range appends {
		sync := i%3 != 1
		err := l.Append(sync, p)
		if err != nil && (!strings.Contains(err.Error(), path+":") || strings.Contains(err.Error(), ".tmp")) {
			t.Errorf("%s: Append error %q should name the journal, not its .tmp", name, err)
		}
		switch {
		case err != nil && !failed:
			failed = true
			if ff.kind == "sync" {
				written = i + 1 // the frame was written; only its fsync failed
			}
		case err == nil && failed:
			t.Errorf("%s: Append %d succeeded after an earlier failure", name, i)
			return false
		case err == nil:
			written = i + 1
			if sync {
				acked = i + 1
			}
		}
	}
	l.Close()
	frames, _, err := readAll(path)
	if err != nil {
		t.Errorf("%s: journal damaged after a failed append: %v", name, err)
		return false
	}
	got := len(frames) - len(snapshot)
	if got < acked || got > written || !sameFrames(frames, append(append([][]byte{}, snapshot...), appends[:got]...)) {
		t.Errorf("%s: replayed %d appended frames, want between %d (acked) and %d (written), in order", name, got, acked, written)
		return false
	}
	return true
}

// FuzzLogReplay feeds arbitrary bytes to Read. It must never panic, and
// whatever frames it accepts must be exactly the file: written back with
// Create they reproduce the input, up to the dropped torn tail.
func FuzzLogReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		frames, torn, err := readAll(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out")
		l, err := Create(out, testMagic, len(frames), func(i int) ([]byte, error) { return frames[i], nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case torn == 0 && !bytes.Equal(rebuilt, data):
			t.Fatalf("intact journal of %d bytes rebuilt as %d different bytes", len(data), len(rebuilt))
		case torn == 1 && len(data) < len(testMagic):
			if len(frames) != 0 || !bytes.HasPrefix(rebuilt, data) {
				t.Fatalf("journal cut inside its magic replayed %d frames", len(frames))
			}
		case torn == 1 && (len(rebuilt) >= len(data) || !bytes.HasPrefix(data, rebuilt)):
			t.Fatalf("torn journal of %d bytes: its %d intact frames rebuild as %d bytes that are not its prefix",
				len(data), len(frames), len(rebuilt))
		case torn > 1:
			t.Fatalf("torn = %d, want 0 or 1", torn)
		}
	})
}
