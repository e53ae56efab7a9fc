package pktgen

import (
	"encoding/binary"
	"math/rand"
)

// MalformKind selects one class of wire-level damage applied to an
// otherwise well-formed frame. These model what a NIC actually receives
// under link errors, buggy peers and fuzzing traffic: frames cut
// mid-header, length fields that disagree with the frame, runt and
// jumbo frames. The hardware pipeline must resolve every one of them to
// a verdict (XDP_DROP) without assistance.
type MalformKind int

// Malformation classes.
const (
	// MalformTruncateEth cuts the frame inside the Ethernet header.
	MalformTruncateEth MalformKind = iota
	// MalformTruncateIP cuts the frame inside the IPv4 header.
	MalformTruncateIP
	// MalformTruncateL4 cuts the frame inside the transport header.
	MalformTruncateL4
	// MalformBogusIPLen rewrites the IPv4 total-length field to a value
	// that disagrees with the frame length.
	MalformBogusIPLen
	// MalformZeroLength replaces the frame with a zero-length frame.
	MalformZeroLength
	// MalformOversize pads the frame to jumbo size, beyond the MTU the
	// evaluation programs expect.
	MalformOversize
	// NumMalformKinds is the number of malformation classes.
	NumMalformKinds
)

func (k MalformKind) String() string {
	switch k {
	case MalformTruncateEth:
		return "truncate-eth"
	case MalformTruncateIP:
		return "truncate-ip"
	case MalformTruncateL4:
		return "truncate-l4"
	case MalformBogusIPLen:
		return "bogus-ip-len"
	case MalformZeroLength:
		return "zero-length"
	case MalformOversize:
		return "oversize"
	}
	return "malform-?"
}

// MalformKinds returns every malformation class in a stable order.
func MalformKinds() []MalformKind {
	out := make([]MalformKind, NumMalformKinds)
	for i := range out {
		out[i] = MalformKind(i)
	}
	return out
}

// oversizeFrameLen is the jumbo length MalformOversize pads to.
const oversizeFrameLen = 4096

// Malform applies one class of damage to pkt and returns the damaged
// frame (a fresh slice; pkt is not modified). Cut points inside a
// header are drawn from rng so repeated calls with the same seed walk
// the same mid-field offsets.
func Malform(pkt []byte, kind MalformKind, rng *rand.Rand) []byte {
	cut := func(limit int) []byte {
		if limit > len(pkt) {
			limit = len(pkt)
		}
		if limit <= 0 {
			return []byte{}
		}
		return append([]byte(nil), pkt[:rng.Intn(limit)]...)
	}
	switch kind {
	case MalformTruncateEth:
		return cut(EthHeaderLen)
	case MalformTruncateIP:
		return cut(EthHeaderLen + IPv4HeaderLen)
	case MalformTruncateL4:
		return cut(EthHeaderLen + IPv4HeaderLen + udpHeaderLen)
	case MalformBogusIPLen:
		out := append([]byte(nil), pkt...)
		if len(out) >= EthHeaderLen+4 {
			// Claim far more payload than the frame carries (or none).
			bogus := uint16(rng.Intn(2) * 0xffff)
			binary.BigEndian.PutUint16(out[EthHeaderLen+2:EthHeaderLen+4], bogus)
		}
		return out
	case MalformZeroLength:
		return []byte{}
	case MalformOversize:
		out := make([]byte, oversizeFrameLen)
		copy(out, pkt)
		return out
	}
	return append([]byte(nil), pkt...)
}
