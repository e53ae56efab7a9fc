// Package durable is the crash-consistency layer of the repository: a
// CRC32C-framed, length-prefixed write-ahead journal, the storage
// substrate the fleet control plane commits its epoch state through so a
// killed controller can be reconstructed byte-for-byte.
//
// The journal is an append-only file: an 8-byte magic + version header
// followed by records framed as
//
//	[u32 payload length][u8 type][payload][u32 CRC32C(type ‖ payload)]
//
// with every integer little-endian. Appends go straight to the file and
// Commit fsyncs, so a record is durable exactly when Commit returns;
// both paths retry transient I/O errors with bounded exponential
// backoff. Opening a journal scans it from the start: a record cut off
// by the end of the file is a torn tail from a crashed append and is
// truncated away silently, while a fully-present record whose CRC does
// not match is damage to committed data and surfaces as a typed
// *CorruptRecordError — the decoder never panics and never silently
// accepts a damaged record.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"ehdl/internal/obs"
)

// Journal file format constants. The golden-fixture test pins all of
// them; changing any is an explicit on-disk format break and must bump
// version.
const (
	// journalMagic opens every journal file.
	journalMagic = "EHDLWAL\x01"
	// version is the current on-disk format version, stored little-
	// endian right after the magic.
	version = 1
	// headerLen is magic + u32 version.
	headerLen = len(journalMagic) + 4
	// recordOverhead is the framing around a payload: u32 length, u8
	// type, u32 CRC32C.
	recordOverhead = 4 + 1 + 4
	// maxRecordBytes bounds a single record's payload. A scanned length
	// field above it can only be damage (the writer refuses such
	// records), never a legitimate torn write.
	maxRecordBytes = 64 << 20
)

// Metric names accumulated into Options.Metrics.
const (
	MetricAppends   = "durable.journal_appends"
	MetricCommits   = "durable.journal_commits"
	metricRetries   = "durable.io_retries"
	metricTornBytes = "durable.torn_bytes_truncated"
)

// castagnoli is the CRC32C polynomial table (iSCSI/ext4 castagnoli, the
// variant with hardware support on both x86 and arm).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journal entry: an application-defined type byte and an
// opaque payload.
type Record struct {
	Type    byte
	Payload []byte
}

// CorruptRecordError reports committed journal data that no longer
// decodes: a CRC mismatch, a damaged header, or an impossible
// length field. It is distinct from a torn tail, which Decode truncates
// silently — corruption means bytes that were durably written have
// changed, and the caller must fail rather than guess.
type CorruptRecordError struct {
	// Path is the file concerned ("" when decoding from memory).
	Path string
	// offset is the byte offset of the damaged frame.
	offset int64
	// Index is the record index of the damaged frame (-1 for the
	// header).
	Index int
	// Reason describes the damage.
	Reason string
}

func (e *CorruptRecordError) Error() string {
	where := e.Path
	if where == "" {
		where = "journal"
	}
	return fmt.Sprintf("durable: %s: corrupt record %d at offset %d: %s", where, e.Index, e.offset, e.Reason)
}

// Options parameterises journal I/O.
type Options struct {
	// Metrics, when non-nil, accumulates the durable.* counters.
	Metrics *obs.Registry
	// sleep replaces time.Sleep between retries (test hook).
	sleep func(time.Duration)
}

// Transient write and fsync errors are retried: retryAttempts attempts
// in all, the first backoff retryBase, doubling per attempt (so the
// longest is 8 ms).
const (
	retryAttempts = 5
	retryBase     = time.Millisecond
)

func (o Options) pause(d time.Duration) {
	if o.sleep != nil {
		o.sleep(d)
		return
	}
	time.Sleep(d)
}

func (o Options) count(name string, n uint64) {
	if o.Metrics != nil && n > 0 {
		o.Metrics.Counter(name).Add(n)
	}
}

// withRetry runs op, retrying transient failures with bounded
// exponential backoff; the returned error is the last attempt's.
func (o Options) withRetry(what string, op func() error) error {
	var err error
	for i := 0; i < retryAttempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		if i < retryAttempts-1 {
			o.count(metricRetries, 1)
			o.pause(retryBase << i)
		}
	}
	return fmt.Errorf("durable: %s failed after %d attempts: %w", what, retryAttempts, err)
}

// EncodeHeader returns the journal file header.
func EncodeHeader() []byte {
	h := make([]byte, headerLen)
	copy(h, journalMagic)
	binary.LittleEndian.PutUint32(h[len(journalMagic):], version)
	return h
}

// EncodeRecord frames one record.
func EncodeRecord(rec Record) []byte {
	out := make([]byte, recordOverhead+len(rec.Payload))
	binary.LittleEndian.PutUint32(out, uint32(len(rec.Payload)))
	out[4] = rec.Type
	copy(out[5:], rec.Payload)
	crc := crc32.Checksum(out[4:5+len(rec.Payload)], castagnoli)
	binary.LittleEndian.PutUint32(out[5+len(rec.Payload):], crc)
	return out
}

// Decode parses a whole journal image (header plus records). It
// returns the decoded records and the number of torn-tail bytes the
// caller should truncate (a record or header cut off by the end of the
// image — the footprint of an append that crashed mid-write). Damage to
// fully-present data returns a *CorruptRecordError; Decode never
// panics.
func Decode(data []byte) (recs []Record, truncated int64, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	header := EncodeHeader()
	if len(data) < headerLen {
		// A file shorter than the header is a torn creation if the bytes
		// written so far agree with the header prefix, damage otherwise.
		if string(data) == string(header[:len(data)]) {
			return nil, int64(len(data)), nil
		}
		return nil, 0, &CorruptRecordError{Index: -1, Reason: "damaged header"}
	}
	if string(data[:len(journalMagic)]) != journalMagic {
		return nil, 0, &CorruptRecordError{Index: -1, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(data[len(journalMagic):headerLen]); v != version {
		return nil, 0, &CorruptRecordError{offset: int64(len(journalMagic)), Index: -1,
			Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	off := int64(headerLen)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < 4 {
			// The length field itself is cut off: torn tail.
			return recs, int64(len(rest)), nil
		}
		plen := binary.LittleEndian.Uint32(rest)
		if plen > maxRecordBytes {
			return recs, 0, &CorruptRecordError{offset: off, Index: len(recs),
				Reason: fmt.Sprintf("payload length %d exceeds the %d-byte record limit", plen, maxRecordBytes)}
		}
		frame := recordOverhead + int(plen)
		if len(rest) < frame {
			// The frame extends past the end of the image: torn tail.
			return recs, int64(len(rest)), nil
		}
		want := binary.LittleEndian.Uint32(rest[5+plen:])
		if got := crc32.Checksum(rest[4:5+plen], castagnoli); got != want {
			return recs, 0, &CorruptRecordError{offset: off, Index: len(recs),
				Reason: fmt.Sprintf("crc mismatch (stored %08x, computed %08x)", want, got)}
		}
		recs = append(recs, Record{Type: rest[4], Payload: append([]byte(nil), rest[5:5+plen]...)})
		off += int64(frame)
	}
	return recs, 0, nil
}

// journalFile is the file surface the journal writes through; *os.File
// satisfies it, and tests substitute fault-injecting stand-ins.
type journalFile interface {
	io.Writer
	io.Seeker
	Sync() error
	Close() error
	Truncate(size int64) error
}

// Journal is an open write-ahead journal positioned for append.
type Journal struct {
	f    journalFile
	path string
	opt  Options
	// off is the end of the last fully-written frame: the position every
	// append (re)starts from, so a failed write retried after a partial
	// transfer overwrites its own debris instead of appending to it.
	off int64
}

// OpenJournal opens (or creates) the journal at path, scans the
// existing records, truncates a torn tail left by a crashed append, and
// positions for append. It returns the journal, the records that
// survived the scan, and the number of torn bytes truncated. Corruption
// of fully-present data returns a *CorruptRecordError and no journal.
func OpenJournal(path string, opt Options) (*Journal, []Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("durable: open %s: %w", path, err)
	}
	recs, torn, derr := Decode(data)
	if derr != nil {
		if ce, ok := derr.(*CorruptRecordError); ok {
			ce.Path = path
		}
		return nil, nil, 0, derr
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("durable: open %s: %w", path, err)
	}
	j := &Journal{f: f, path: path, opt: opt}
	good := int64(len(data)) - torn
	if good < int64(headerLen) {
		// Fresh file, or a creation torn even before the header finished:
		// (re)write the header from scratch.
		torn += good
		good = 0
		if err := j.reset(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	} else if torn > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("durable: truncate torn tail of %s: %w", path, err)
		}
		j.off = good
	} else {
		j.off = good
	}
	opt.count(metricTornBytes, uint64(torn))
	return j, recs, torn, nil
}

// reset truncates the file to empty and writes a fresh header.
func (j *Journal) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: truncate %s: %w", j.path, err)
	}
	header := EncodeHeader()
	err := j.opt.withRetry("header write", func() error {
		if _, err := j.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		_, err := j.f.Write(header)
		return err
	})
	if err != nil {
		return err
	}
	if err := j.opt.withRetry("header fsync", j.f.Sync); err != nil {
		return err
	}
	j.off = int64(headerLen)
	return nil
}

// Append writes one record to the journal. The record is not durable
// until Commit returns; a crash in between leaves at most a torn tail,
// which the next OpenJournal truncates. Transient write errors are
// retried with bounded exponential backoff, each retry re-seeking to
// the frame start so partial transfers never corrupt the framing.
func (j *Journal) Append(rec Record) error {
	if len(rec.Payload) > maxRecordBytes {
		return fmt.Errorf("durable: record payload %d bytes exceeds the %d-byte limit", len(rec.Payload), maxRecordBytes)
	}
	frame := EncodeRecord(rec)
	err := j.opt.withRetry("journal append", func() error {
		if _, err := j.f.Seek(j.off, io.SeekStart); err != nil {
			return err
		}
		_, err := j.f.Write(frame)
		return err
	})
	if err != nil {
		return err
	}
	j.off += int64(len(frame))
	j.opt.count(MetricAppends, 1)
	return nil
}

// Commit fsyncs the journal: every record appended so far is durable
// when it returns.
func (j *Journal) Commit() error {
	if err := j.opt.withRetry("journal fsync", j.f.Sync); err != nil {
		return err
	}
	j.opt.count(MetricCommits, 1)
	return nil
}

// Close closes the journal file without syncing.
func (j *Journal) Close() error { return j.f.Close() }

// Size returns the journal's current end-of-frame offset.
func (j *Journal) Size() int64 { return j.off }
