package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ehdl/internal/obs"
)

// writeJournal builds a journal at path with the given records and
// returns the file contents.
func writeJournal(t *testing.T, path string, recs ...Record) []byte {
	t.Helper()
	j, got, torn, err := OpenJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || torn != 0 {
		t.Fatalf("fresh journal scanned %d records, %d torn bytes", len(got), torn)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := []Record{
		{Type: 1, Payload: []byte(`{"seed":7}`)},
		{Type: 2, Payload: []byte("epoch-0")},
		{Type: 3, Payload: nil},
	}
	writeJournal(t, path, recs...)

	j, got, torn, err := OpenJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if torn != 0 {
		t.Errorf("clean journal reported %d torn bytes", torn)
	}
	if len(got) != len(recs) {
		t.Fatalf("reopened %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Type != recs[i].Type || !bytes.Equal(r.Payload, recs[i].Payload) {
			t.Errorf("record %d = {%d, %q}, want {%d, %q}", i, r.Type, r.Payload, recs[i].Type, recs[i].Payload)
		}
	}
	// Appends after reopen extend the log.
	if err := j.Append(Record{Type: 2, Payload: []byte("epoch-1")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, _, err = OpenJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got[3].Payload) != "epoch-1" {
		t.Fatalf("after reopen-append: %d records", len(got))
	}
}

// TestJournalTornTail: a partial frame at the end of the file — the
// footprint of an append that crashed mid-write — is truncated away on
// open and the journal keeps accepting appends from the good end.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	clean := writeJournal(t, path, Record{Type: 2, Payload: []byte("a")}, Record{Type: 2, Payload: []byte("bb")})

	// Three torn shapes: a cut-off length field, a full length field with
	// the payload cut off, and a whole frame missing its CRC tail.
	tails := [][]byte{
		{0x05, 0x00},
		append([]byte{0x40, 0x00, 0x00, 0x00, 0x02}, []byte("par")...),
		EncodeRecord(Record{Type: 2, Payload: []byte("torn")})[:recordOverhead+4-2],
	}
	for i, tail := range tails {
		if err := os.WriteFile(path, append(append([]byte(nil), clean...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		j, got, torn, err := OpenJournal(path, Options{Metrics: reg})
		if err != nil {
			t.Fatalf("tail %d: %v", i, err)
		}
		if torn != int64(len(tail)) {
			t.Errorf("tail %d: truncated %d bytes, want %d", i, torn, len(tail))
		}
		if len(got) != 2 {
			t.Errorf("tail %d: %d records survived, want 2", i, len(got))
		}
		if v, _ := reg.CounterValue(metricTornBytes); v != uint64(len(tail)) {
			t.Errorf("tail %d: %s = %d, want %d", i, metricTornBytes, v, len(tail))
		}
		if err := j.Append(Record{Type: 2, Payload: []byte("after")}); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
		j.Close()
		data, _ := os.ReadFile(path)
		want := append(append([]byte(nil), clean...), EncodeRecord(Record{Type: 2, Payload: []byte("after")})...)
		if !bytes.Equal(data, want) {
			t.Errorf("tail %d: file after truncate+append differs from clean append", i)
		}
	}
}

// TestJournalTornHeader: a file cut off inside the header (a torn
// creation) resets to a fresh journal instead of failing.
func TestJournalTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, EncodeHeader()[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, torn, err := OpenJournal(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(got) != 0 || torn != 5 {
		t.Fatalf("torn header: %d records, %d torn bytes", len(got), torn)
	}
	if err := j.Append(Record{Type: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCorruption: damage to fully-present data — a flipped
// payload bit, a damaged header, an impossible length field — must
// surface as a typed *CorruptRecordError, never truncate silently.
func TestJournalCorruption(t *testing.T) {
	base := func(t *testing.T) (string, []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		data := writeJournal(t, path, Record{Type: 2, Payload: []byte("first")}, Record{Type: 2, Payload: []byte("second")})
		return path, data
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		index   int
		wantSub string
	}{
		{"payload bit flip", func(d []byte) []byte { d[headerLen+5] ^= 0x01; return d }, 0, "crc mismatch"},
		{"crc bit flip", func(d []byte) []byte { d[len(d)-1] ^= 0x80; return d }, 1, "crc mismatch"},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, -1, "bad magic"},
		{"bad version", func(d []byte) []byte { d[len(journalMagic)] = 0x7f; return d }, -1, "unsupported version"},
		{"impossible length", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[headerLen:], maxRecordBytes+1)
			return d
		}, 0, "record limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, data := base(t)
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := OpenJournal(path, Options{})
			var ce *CorruptRecordError
			if !errors.As(err, &ce) {
				t.Fatalf("corruption returned %v, want *CorruptRecordError", err)
			}
			if ce.Index != tc.index {
				t.Errorf("Index = %d, want %d", ce.Index, tc.index)
			}
			if ce.Path != path {
				t.Errorf("Path = %q, want %q", ce.Path, path)
			}
			if !bytes.Contains([]byte(ce.Error()), []byte(tc.wantSub)) {
				t.Errorf("error %q does not mention %q", ce, tc.wantSub)
			}
		})
	}
}

// flakyFile injects transient write/sync failures, optionally leaving a
// partial transfer behind, to exercise the retry/backoff path.
type flakyFile struct {
	data      []byte
	pos       int64
	failWrite int // fail this many writes
	partial   int // bytes to land before each failed write
	failSync  int
	writes    int
	syncs     int
}

func (f *flakyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.failWrite > 0 {
		f.failWrite--
		n := f.partial
		if n > len(p) {
			n = len(p)
		}
		f.apply(p[:n])
		return n, fmt.Errorf("transient write error")
	}
	f.apply(p)
	return len(p), nil
}

func (f *flakyFile) apply(p []byte) {
	end := f.pos + int64(len(p))
	if int64(len(f.data)) < end {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	copy(f.data[f.pos:end], p)
	f.pos = end
}

func (f *flakyFile) Seek(off int64, whence int) (int64, error) {
	if whence != io.SeekStart {
		return 0, fmt.Errorf("unsupported whence %d", whence)
	}
	f.pos = off
	return off, nil
}

func (f *flakyFile) Sync() error {
	f.syncs++
	if f.failSync > 0 {
		f.failSync--
		return fmt.Errorf("transient sync error")
	}
	return nil
}

func (f *flakyFile) Close() error { return nil }

func (f *flakyFile) Truncate(size int64) error {
	if int64(len(f.data)) > size {
		f.data = f.data[:size]
	}
	return nil
}

// TestJournalWriteRetryBackoff: transient write errors — including ones
// that land a partial transfer — are retried with exponential backoff
// and the final file is byte-identical to a clean write.
func TestJournalWriteRetryBackoff(t *testing.T) {
	var delays []time.Duration
	reg := obs.NewRegistry()
	f := &flakyFile{failWrite: 3, partial: 2, failSync: 1}
	j := &Journal{f: f, path: "flaky", opt: Options{
		Metrics: reg,
		sleep:   func(d time.Duration) { delays = append(delays, d) },
	}}
	if err := j.reset(); err != nil {
		t.Fatal(err)
	}
	rec := Record{Type: 2, Payload: []byte("persist me")}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append(EncodeHeader(), EncodeRecord(rec)...)
	if !bytes.Equal(f.data, want) {
		t.Errorf("file after flaky writes differs from clean encoding:\n%x\n%x", f.data, want)
	}
	// 3 write failures + 1 sync failure = 4 backoffs: 1ms, 2ms, 4ms,
	// then the sync retry restarts its own schedule at 1ms.
	wantDelays := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, time.Millisecond}
	if len(delays) != len(wantDelays) {
		t.Fatalf("slept %v, want %v", delays, wantDelays)
	}
	for i := range delays {
		if delays[i] != wantDelays[i] {
			t.Errorf("backoff %d = %v, want %v", i, delays[i], wantDelays[i])
		}
	}
	if v, _ := reg.CounterValue(metricRetries); v != 4 {
		t.Errorf("%s = %d, want 4", metricRetries, v)
	}
}

// TestJournalRetryExhausted: a persistent I/O error surfaces after the
// bounded attempts, wrapping the underlying cause.
func TestJournalRetryExhausted(t *testing.T) {
	f := &flakyFile{failWrite: 100}
	slept := 0
	j := &Journal{f: f, opt: Options{sleep: func(time.Duration) { slept++ }}}
	err := j.Append(Record{Type: 1, Payload: []byte("x")})
	if err == nil {
		t.Fatal("append with a dead disk succeeded")
	}
	if slept != retryAttempts-1 {
		t.Errorf("slept %d times before giving up, want %d (attempts-1)", slept, retryAttempts-1)
	}
	if f.writes != retryAttempts {
		t.Errorf("attempted %d writes, want %d", f.writes, retryAttempts)
	}
}

// TestOptionsDefaults: a zero Options, the one every caller passes
// bar the metrics, counts into no registry and backs off on the real
// clock — a transient write error costs the documented first backoff.
func TestOptionsDefaults(t *testing.T) {
	f := &flakyFile{failWrite: 1}
	j := &Journal{f: f}
	start := time.Now()
	if err := j.Append(Record{Type: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < retryBase {
		t.Errorf("retried after %v, want at least the %v backoff", waited, retryBase)
	}
	if f.writes != 2 {
		t.Errorf("%d write attempts, want 2", f.writes)
	}
}

// TestJournalMaxRecord: the writer refuses oversized payloads up front,
// so a scanned length above the limit is always damage.
func TestJournalMaxRecord(t *testing.T) {
	j := &Journal{f: &flakyFile{}, opt: Options{}}
	if err := j.Append(Record{Type: 1, Payload: make([]byte, maxRecordBytes+1)}); err == nil {
		t.Fatal("oversized record accepted")
	}
}
