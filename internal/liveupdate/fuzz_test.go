package liveupdate_test

import (
	"bytes"
	"errors"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/liveupdate"
	"ehdl/internal/maps"
)

// fuzzSpec derives a map declaration from fuzz bytes.
func fuzzSpec(kind, keySize, valSize, entries uint8) ebpf.MapSpec {
	kinds := []ebpf.MapKind{ebpf.MapArray, ebpf.MapHash, ebpf.MapLRUHash, ebpf.MapLPMTrie, ebpf.MapDevMap}
	return ebpf.MapSpec{
		Name:       "m",
		Kind:       kinds[int(kind)%len(kinds)],
		KeySize:    int(keySize)%32 + 1,
		ValueSize:  int(valSize)%64 + 1,
		MaxEntries: int(entries)%128 + 1,
	}
}

// FuzzMigrate drives the schema checker and the entry-copy path of the
// migration over arbitrary map shapes and contents:
//
//   - CheckCompat must accept exactly the compatible shapes (same kind,
//     exact key/value widths, capacity not shrunk) and refuse the rest
//     with a typed CompatError wrapping ErrIncompatible;
//   - for every accepted shape, state copied entry by entry (the bulk
//     migration) must read back bit-for-bit from the new map.
func FuzzMigrate(f *testing.F) {
	f.Add(uint8(1), uint8(11), uint8(7), uint8(63), uint8(1), uint8(11), uint8(7), uint8(63),
		[]byte("\x01\x02\x03\x04\x05\x06\x07\x08some keys and values"))
	f.Add(uint8(0), uint8(3), uint8(7), uint8(3), uint8(1), uint8(3), uint8(7), uint8(3), []byte{})
	f.Add(uint8(3), uint8(7), uint8(15), uint8(31), uint8(3), uint8(7), uint8(15), uint8(63),
		bytes.Repeat([]byte{0xa5}, 64))
	// An LPM trie with a 1-byte key (no room for the 4-byte prefix length):
	// MapSpec.Validate once accepted it and the trie sliced out of range.
	f.Add(uint8('&'), uint8(0), uint8(0), uint8(0), uint8('S'), uint8(0), uint8(0), uint8(0xac),
		[]byte("0000000000000000"))
	f.Fuzz(func(t *testing.T, k1, ks1, vs1, me1, k2, ks2, vs2, me2 uint8, blob []byte) {
		oldSpec := fuzzSpec(k1, ks1, vs1, me1)
		newSpec := fuzzSpec(k2, ks2, vs2, me2)
		if oldSpec.Validate() != nil || newSpec.Validate() != nil {
			t.Skip()
		}

		err := liveupdate.CheckCompat(oldSpec, newSpec)
		compatible := oldSpec.Kind == newSpec.Kind &&
			oldSpec.KeySize == newSpec.KeySize &&
			oldSpec.ValueSize == newSpec.ValueSize &&
			newSpec.MaxEntries >= oldSpec.MaxEntries
		if compatible != (err == nil) {
			t.Fatalf("CheckCompat(%+v, %+v) = %v, compatibility is %v", oldSpec, newSpec, err, compatible)
		}
		if err != nil {
			if !errors.Is(err, liveupdate.ErrIncompatible) {
				t.Fatalf("incompatibility %v is not ErrIncompatible", err)
			}
			var ce *liveupdate.CompatError
			if !errors.As(err, &ce) || ce.Map != "m" || ce.Field == "" {
				t.Fatalf("incompatibility %v carries no usable CompatError", err)
			}
			return
		}

		src, err := maps.New(oldSpec)
		if err != nil {
			t.Skip() // shape the substrate refuses (e.g. LPM width rules)
		}
		dst, err := maps.New(newSpec)
		if err != nil {
			t.Skip()
		}
		// Populate the source from the fuzz blob; entries the kind
		// refuses (bad LPM prefixes, out-of-range array indices) are
		// simply not part of the state to migrate.
		stride := oldSpec.KeySize + oldSpec.ValueSize
		for off := 0; off+stride <= len(blob); off += stride {
			key := blob[off : off+oldSpec.KeySize]
			val := blob[off+oldSpec.KeySize : off+stride]
			_ = src.Update(key, val, maps.UpdateAny)
		}

		// The bulk-copy path of the migration plan.
		var copyErr error
		src.Iterate(func(k, v []byte) bool {
			if err := dst.Update(k, v, maps.UpdateAny); err != nil {
				copyErr = err
				return false
			}
			return true
		})
		if copyErr != nil {
			t.Fatalf("copy into compatible map failed: %v", copyErr)
		}
		src.Iterate(func(k, v []byte) bool {
			gv, ok := dst.Lookup(k)
			if !ok || !bytes.Equal(gv, v) {
				t.Fatalf("key %x: migrated %x, source %x (found %v)", k, gv, v, ok)
			}
			return true
		})
	})
}
