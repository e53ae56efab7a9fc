package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// goldenRecords is the fixed record sequence committed in
// testdata/golden.wal.
var goldenRecords = []Record{
	{Type: 1, Payload: []byte(`{"schema":1,"seed":42}`)},
	{Type: 2, Payload: []byte("epoch:0")},
	{Type: 3, Payload: nil},
}

// TestGoldenJournalFixture pins the on-disk journal format against the
// committed testdata/golden.wal: magic, version, length/type/CRC byte
// placement, and the exact fixture bytes. A change to any of these is an
// explicit format break — bump Version and regenerate the fixture with
//
//	EHDL_REGEN_GOLDEN=1 go test ./internal/durable/ -run Golden
func TestGoldenJournalFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden.wal")
	want := EncodeHeader()
	for _, r := range goldenRecords {
		want = append(want, EncodeRecord(r)...)
	}
	if os.Getenv("EHDL_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("current encoder no longer reproduces the committed fixture — on-disk format changed without a Version bump:\nfixture %x\nencoder %x", data, want)
	}

	// Pin the absolute byte layout, independent of the encoder.
	if string(data[:8]) != "EHDLWAL\x01" {
		t.Errorf("bytes 0..7 = %q, want magic EHDLWAL\\x01", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != 1 {
		t.Errorf("version at offset 8 = %d, want 1", v)
	}
	off := 12
	for i, r := range goldenRecords {
		plen := binary.LittleEndian.Uint32(data[off:])
		if int(plen) != len(r.Payload) {
			t.Errorf("record %d: length field at offset %d = %d, want %d", i, off, plen, len(r.Payload))
		}
		if data[off+4] != r.Type {
			t.Errorf("record %d: type byte at offset %d = %d, want %d", i, off+4, data[off+4], r.Type)
		}
		if !bytes.Equal(data[off+5:off+5+int(plen)], r.Payload) {
			t.Errorf("record %d: payload at offset %d differs", i, off+5)
		}
		crcOff := off + 5 + int(plen)
		stored := binary.LittleEndian.Uint32(data[crcOff:])
		computed := crc32.Checksum(data[off+4:crcOff], crc32.MakeTable(crc32.Castagnoli))
		if stored != computed {
			t.Errorf("record %d: CRC32C at offset %d = %08x, want %08x (over type‖payload)", i, crcOff, stored, computed)
		}
		off = crcOff + 4
	}
	if off != len(data) {
		t.Errorf("fixture has %d trailing bytes after the last record", len(data)-off)
	}

	// And the decoder agrees with the layout.
	recs, torn, err := Decode(data)
	if err != nil || torn != 0 {
		t.Fatalf("Decode(fixture) = torn %d, err %v", torn, err)
	}
	if len(recs) != len(goldenRecords) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(goldenRecords))
	}
	for i, r := range recs {
		if r.Type != goldenRecords[i].Type || !bytes.Equal(r.Payload, goldenRecords[i].Payload) {
			t.Errorf("decoded record %d = {%d, %q}", i, r.Type, r.Payload)
		}
	}
}
