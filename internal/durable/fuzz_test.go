package durable

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzJournalDecode throws torn tails, truncations and bit-flipped
// records at the journal decoder. The contract under fuzz: never panic,
// never silently accept damage — every failure is a typed
// *CorruptRecordError — and whatever decodes cleanly must re-encode
// byte-identically to the non-torn prefix of the input (no record is
// invented, dropped or altered).
func FuzzJournalDecode(f *testing.F) {
	header := EncodeHeader()
	full := append(append([]byte(nil), header...),
		EncodeRecord(Record{Type: 1, Payload: []byte(`{"seed":7}`)})...)
	full = append(full, EncodeRecord(Record{Type: 2, Payload: []byte("epoch-0")})...)
	full = append(full, EncodeRecord(Record{Type: 3, Payload: nil})...)

	f.Add([]byte(nil))
	f.Add(header)
	f.Add(header[:5])
	f.Add(full)
	f.Add(full[:len(full)-3])                    // torn CRC tail
	f.Add(full[:len(header)+2])                  // torn length field
	f.Add(append(full, 0x09, 0x00))              // torn next record
	f.Add([]byte("EHDLWAL\x02\x01\x00\x00\x00")) // wrong magic byte
	flipped := append([]byte(nil), full...)
	flipped[len(header)+6] ^= 0x20
	f.Add(flipped)
	huge := append([]byte(nil), header...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x01)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn, err := Decode(data)
		if err != nil {
			var ce *CorruptRecordError
			if !errors.As(err, &ce) {
				t.Fatalf("Decode error is %T (%v), want *CorruptRecordError", err, err)
			}
			if torn != 0 {
				t.Fatalf("Decode reported both corruption and %d torn bytes", torn)
			}
			return
		}
		if torn < 0 || torn > int64(len(data)) {
			t.Fatalf("torn = %d outside [0, %d]", torn, len(data))
		}
		good := data[:int64(len(data))-torn]
		if len(good) == 0 {
			if len(recs) != 0 {
				t.Fatalf("empty good prefix decoded %d records", len(recs))
			}
			return
		}
		rebuilt := EncodeHeader()
		for _, r := range recs {
			rebuilt = append(rebuilt, EncodeRecord(r)...)
		}
		if !bytes.Equal(rebuilt, good) {
			t.Fatalf("re-encoding %d records does not reproduce the accepted prefix:\ngot  %x\nwant %x",
				len(recs), rebuilt, good)
		}
	})
}
