// Package journal is the one on-disk log format under alad's durable
// state: the job write-ahead log (internal/jobs) and the operator journal
// (internal/serve). A journal is a flat file:
//
//	magic      the caller's file-kind tag
//	repeat:
//	  uint32 LE  payload length
//	  uint32 LE  CRC-32 (IEEE) of the payload
//	  uint32 LE  CRC-32 (IEEE) of the 8 header bytes above
//	  payload
//
// Every byte after the magic is under a checksum, so one damage policy
// needs no guessing. An incomplete final frame (a crash mid-append) is
// dropped and counted. Any other damage fails Read with an error naming
// the file, the frame and its offset, and nothing here rewrites the file.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// headerSize is the frame header: length, payload CRC, header CRC.
const headerSize = 12

// fsys is the file-system seam: every open, write, fsync and rename on
// the write path goes through one, so the package's tests can fail any
// of them. Production code uses osFS.
type fsys struct {
	open   func(name string, flag int, perm os.FileMode) (*os.File, error)
	write  func(f *os.File, b []byte) (int, error)
	sync   func(f *os.File) error
	rename func(oldpath, newpath string) error
}

var osFS = fsys{os.OpenFile, (*os.File).Write, (*os.File).Sync, os.Rename}

func header(payload []byte) [headerSize]byte {
	var h [headerSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(h[8:12], crc32.ChecksumIEEE(h[:8]))
	return h
}

// Read replays the journal at path, calling each on every intact frame in
// file order. A missing file is an empty journal. An incomplete final
// frame, or a file cut short inside its magic, is dropped and reported as
// torn = 1. Any other damage, and any error from each, stops the replay
// with an error naming the file, the frame and its offset. The payload
// handed to each is only valid until it returns.
func Read(path, magic string, each func(payload []byte) error) (torn int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	r := bufio.NewReaderSize(f, 64<<10)

	head := make([]byte, len(magic))
	n, err := io.ReadFull(r, head)
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		if string(head[:n]) == magic[:n] {
			return 1, nil
		}
	case err != nil:
		return 0, describe(path, "reading magic", err)
	}
	if string(head[:n]) != magic {
		return 0, fmt.Errorf("journal: %s: bad magic %q, want %q", path, head[:n], magic)
	}

	var hdr [headerSize]byte
	var buf []byte
	off := int64(len(magic))
	for frame := 0; ; frame++ {
		at := func() string { return fmt.Sprintf("frame %d at offset %d", frame, off) }
		_, err := io.ReadFull(r, hdr[:])
		switch {
		case errors.Is(err, io.EOF):
			return 0, nil
		case errors.Is(err, io.ErrUnexpectedEOF):
			return 1, nil
		case err != nil:
			return 0, describe(path, at(), err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		if got, stored := crc32.ChecksumIEEE(hdr[:8]), binary.LittleEndian.Uint32(hdr[8:12]); got != stored {
			return 0, fmt.Errorf("journal: %s: %s: header checksum mismatch (stored %08x, computed %08x)", path, at(), stored, got)
		}
		// The header is intact, so its length is the one written: a
		// payload that runs past the end of the file is a torn tail.
		if int64(length) > info.Size()-off-headerSize {
			return 1, nil
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, describe(path, at(), err)
		}
		if got, stored := crc32.ChecksumIEEE(buf), binary.LittleEndian.Uint32(hdr[4:8]); got != stored {
			return 0, fmt.Errorf("journal: %s: %s: payload checksum mismatch (stored %08x, computed %08x)", path, at(), stored, got)
		}
		if err := each(buf); err != nil {
			return 0, fmt.Errorf("journal: %s: %s: %w", path, at(), err)
		}
		off += headerSize + int64(length)
	}
}

// Log appends frames to a journal opened by Create. It is not safe for
// concurrent use; callers serialize appends under their own lock.
type Log struct {
	sys  fsys
	f    *os.File // nil once closed
	path string
	size int64
	buf  []byte
	// err is sticky: once a write or fsync fails, every later Append
	// returns it, so no frame lands after a partial one.
	err error
}

// Create writes a fresh journal at path holding frames payloads, the i-th
// from frame(i), and returns a Log appending after them. The journal is
// written to <path>.tmp, fsynced and renamed over path, and the directory
// is then fsynced, so a crash leaves the old journal or the new one,
// whole. A failed Create leaves the file at path untouched; an error from
// frame is returned as is.
func Create(path, magic string, frames int, frame func(i int) ([]byte, error)) (*Log, error) {
	return create(osFS, path, magic, frames, frame)
}

func create(sys fsys, path, magic string, frames int, frame func(i int) ([]byte, error)) (*Log, error) {
	tmp := path + ".tmp"
	f, err := sys.open(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, describe(path, "creating", err)
	}
	l := &Log{sys: sys, f: f, path: path}
	err = l.write(false, []byte(magic))
	for i := 0; i < frames && err == nil; i++ {
		var payload []byte
		if payload, err = frame(i); err == nil {
			err = l.Append(false, payload)
		}
	}
	if err == nil {
		err = l.write(true, nil)
	}
	if err == nil {
		if err = sys.rename(tmp, path); err != nil {
			err = describe(path, "renaming", err)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	// Make the rename durable. Best effort: some file systems refuse to
	// fsync a directory, and the rename has happened, so there is no old
	// state left to fall back to.
	if d, err := sys.open(filepath.Dir(path), os.O_RDONLY, 0); err == nil {
		sys.sync(d)
		d.Close()
	}
	return l, nil
}

// Append writes one frame, fsyncing it when sync is set.
func (l *Log) Append(sync bool, payload []byte) error {
	h := header(payload)
	l.buf = append(append(l.buf[:0], h[:]...), payload...)
	return l.write(sync, l.buf)
}

// write appends b, then fsyncs when sync is set. A failure is sticky.
func (l *Log) write(sync bool, b []byte) error {
	if l.err != nil {
		return l.err
	}
	if len(b) > 0 {
		if _, err := l.sys.write(l.f, b); err != nil {
			l.err = describe(l.path, fmt.Sprintf("writing at offset %d", l.size), err)
			return l.err
		}
		l.size += int64(len(b))
	}
	if sync {
		if err := l.sys.sync(l.f); err != nil {
			l.err = describe(l.path, "syncing", err)
		}
	}
	return l.err
}

// Size reports the journal's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Close fsyncs and closes the journal; later Appends fail and a second
// Close does nothing. After a failed append it reports that failure.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.write(true, nil)
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = describe(l.path, "closing", cerr)
	}
	l.f = nil
	l.err = fmt.Errorf("journal: %s: closed", l.path)
	return err
}

// describe wraps err as a failure of op on the journal at path. Path and
// link errors are unwrapped first: a Log writes through the descriptor
// it opened as <path>.tmp, and its errors should name the journal.
func describe(path, op string, err error) error {
	var pe *fs.PathError
	var le *os.LinkError
	if errors.As(err, &pe) {
		err = pe.Err
	} else if errors.As(err, &le) {
		err = le.Err
	}
	return fmt.Errorf("journal: %s: %s: %w", path, op, err)
}
