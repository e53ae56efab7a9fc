// Microbenchmarks for the SECDED hot path: every protected map lookup
// and every scrubbed word pays one CheckWord, every map write pays one
// EncodeWord, so these are the per-packet cost of protection. Future
// PRs compare against these numbers before touching the codecs.
package protect

import (
	"math/rand"
	"testing"
)

func benchWords(n int) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(9))
	value := make([]byte, n*wordBytes)
	rng.Read(value)
	check := make([]byte, n*(SECDED{}).CheckBytesPerWord())
	(SECDED{}).Encode(value, check)
	return value, check
}

func BenchmarkSECDEDEncodeWord(b *testing.B) {
	value, check := benchWords(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		(SECDED{}).EncodeWord(value, check, 0)
	}
}

func BenchmarkSECDEDCheckWordClean(b *testing.B) {
	value, check := benchWords(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if (SECDED{}).CheckWord(value, check, 0) != WordOK {
			b.Fatal("clean word failed")
		}
	}
}

func BenchmarkSECDEDCheckWordCorrecting(b *testing.B) {
	value, check := benchWords(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		value[i%8] ^= 1 << (i % 8)
		if (SECDED{}).CheckWord(value, check, 0) != WordCorrected {
			b.Fatal("flip not corrected")
		}
	}
}

func BenchmarkParityCheckWord(b *testing.B) {
	value, _ := benchWords(1)
	check := make([]byte, 1)
	(parity{}).Encode(value, check)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if (parity{}).CheckWord(value, check, 0) != WordOK {
			b.Fatal("clean word failed")
		}
	}
}

func BenchmarkSECDEDEncodeValue64B(b *testing.B) {
	value, check := benchWords(8)
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		(SECDED{}).Encode(value, check)
	}
}
