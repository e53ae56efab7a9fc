// Package pktgen is the traffic-generation substrate: packet crafting
// for the protocols the evaluation programs parse, flow-set generation
// under uniform and Zipfian distributions, and synthetic replacements
// for the CAIDA and MAWI traces used in Section 5.3 of the paper.
package pktgen

import (
	"encoding/binary"
	"errors"

	"ehdl/internal/ebpf"
)

// Header sizes.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	udpHeaderLen  = 8
	tcpHeaderLen  = 20
)

// Flow identifies a bidirectional 5-tuple.
type Flow struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Reverse returns the flow in the opposite direction.
func (f Flow) Reverse() Flow {
	return Flow{SrcIP: f.DstIP, DstIP: f.SrcIP, SrcPort: f.DstPort, DstPort: f.SrcPort, Proto: f.Proto}
}

// PacketSpec describes one packet to build. Both MAC addresses are
// zero.
type PacketSpec struct {
	EtherType uint16
	// VLAN inserts an 802.1Q tag with this VID when non-zero.
	VLAN uint16
	Flow Flow
	// TotalLen is the frame length including all headers; the payload is
	// zero-filled. Values below the protocol minimum are raised to it.
	TotalLen int
	TTL      uint8
	// tcpFlags applies to TCP packets (e.g. 0x02 for SYN).
	tcpFlags uint8
}

// Build constructs the packet bytes in a slice of their own.
func Build(spec PacketSpec) []byte { return appendBuild(nil, spec) }

// appendBuild constructs the packet bytes at the end of dst and returns
// the extended slice: a caller that owns a reusable arena builds a whole
// batch into it without a heap object per frame.
func appendBuild(dst []byte, spec PacketSpec) []byte {
	ttl := spec.TTL
	if ttl == 0 {
		ttl = 64
	}
	etherType := spec.EtherType
	if etherType == 0 {
		etherType = ebpf.EthPIP
	}

	tagLen := 0
	if spec.VLAN != 0 {
		tagLen = 4
	}
	minLen := EthHeaderLen + tagLen
	if etherType == ebpf.EthPIP {
		minLen += IPv4HeaderLen
		switch spec.Flow.Proto {
		case ebpf.IPProtoUDP:
			minLen += udpHeaderLen
		case ebpf.IPProtoTCP:
			minLen += tcpHeaderLen
		}
	}
	total := spec.TotalLen
	if total < minLen {
		total = minLen
	}

	dst = append(dst, make([]byte, total)...) // zero-extends in place
	pkt := dst[len(dst)-total:]
	ethTypeOff := 12
	if spec.VLAN != 0 {
		binary.BigEndian.PutUint16(pkt[12:14], ebpf.EthPVLAN)
		binary.BigEndian.PutUint16(pkt[14:16], spec.VLAN&0x0fff)
		ethTypeOff = 16
	}
	binary.BigEndian.PutUint16(pkt[ethTypeOff:ethTypeOff+2], etherType)
	if etherType != ebpf.EthPIP {
		return dst
	}

	ip := pkt[EthHeaderLen+tagLen:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(total-EthHeaderLen-tagLen))
	ip[8] = ttl
	ip[9] = spec.Flow.Proto
	binary.BigEndian.PutUint32(ip[12:16], spec.Flow.SrcIP)
	binary.BigEndian.PutUint32(ip[16:20], spec.Flow.DstIP)
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:IPv4HeaderLen]))

	l4 := ip[IPv4HeaderLen:]
	switch spec.Flow.Proto {
	case ebpf.IPProtoUDP:
		binary.BigEndian.PutUint16(l4[0:2], spec.Flow.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], spec.Flow.DstPort)
		binary.BigEndian.PutUint16(l4[4:6], uint16(len(l4)))
	case ebpf.IPProtoTCP:
		binary.BigEndian.PutUint16(l4[0:2], spec.Flow.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], spec.Flow.DstPort)
		l4[12] = 5 << 4 // data offset
		l4[13] = spec.tcpFlags
	}
	return dst
}

// ipChecksum computes the IPv4 header checksum with the checksum field
// treated as zero.
func ipChecksum(hdr []byte) uint16 {
	return ^fold(headerSum(hdr) - uint32(binary.BigEndian.Uint16(hdr[10:12])))
}

// headerSum is the unfolded one's-complement sum of an IPv4 header's
// 16-bit words.
func headerSum(hdr []byte) uint32 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	return sum
}

// fold folds the carries of a one's-complement sum back into 16 bits.
func fold(sum uint32) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// VerifyIPChecksum reports whether the packet's IPv4 header checksum is
// valid.
func VerifyIPChecksum(pkt []byte) bool {
	if len(pkt) < EthHeaderLen+IPv4HeaderLen {
		return false
	}
	return fold(headerSum(pkt[EthHeaderLen:EthHeaderLen+IPv4HeaderLen])) == 0xffff
}

// template is a frame of the reference builder that a generator stamps
// once per packet: the frames of one template differ only in the IPv4
// source address, the transport source port and the header checksum,
// so a packet is one copy and three field writes.
type template struct {
	frame []byte
	// ports is set when the protocol carries ports (UDP, TCP).
	ports bool
	// sum is the unfolded one's-complement sum of the IPv4 header
	// without its checksum and source address.
	sum uint32
}

// newTemplate builds the template of an untagged IPv4 spec.
func newTemplate(spec PacketSpec) template {
	frame := Build(spec)
	ip := frame[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	return template{
		frame: frame,
		ports: spec.Flow.Proto == ebpf.IPProtoUDP || spec.Flow.Proto == ebpf.IPProtoTCP,
		sum:   headerSum(ip) - headerSum(ip[10:16]),
	}
}

// stamp appends the template's frame to dst with the given source
// address and port and the checksum they imply, and returns the
// extended slice.
func (t *template) stamp(dst []byte, srcIP uint32, srcPort uint16) []byte {
	n := len(dst)
	dst = append(dst, t.frame...)
	ip := dst[n+EthHeaderLen : n+EthHeaderLen+IPv4HeaderLen]
	binary.BigEndian.PutUint32(ip[12:16], srcIP)
	binary.BigEndian.PutUint16(ip[10:12], ^fold(t.sum+srcIP>>16+srcIP&0xffff))
	if t.ports {
		binary.BigEndian.PutUint16(dst[n+EthHeaderLen+IPv4HeaderLen:], srcPort)
	}
	return dst
}

// ParseFlow's errors are values of their own: the RSS front end parses
// every frame it steers, and a malformed burst must cost no allocation.
var (
	errShort   = errors.New("pktgen: packet too short for an IPv4 header")
	errNotIPv4 = errors.New("pktgen: not an IPv4 packet")
)

// ParseFlow extracts the 5-tuple of an IPv4 packet, skipping one
// optional 802.1Q tag.
func ParseFlow(pkt []byte) (Flow, error) {
	if len(pkt) < EthHeaderLen+IPv4HeaderLen {
		return Flow{}, errShort
	}
	l3 := EthHeaderLen
	etherType := binary.BigEndian.Uint16(pkt[12:14])
	if etherType == ebpf.EthPVLAN {
		if len(pkt) < EthHeaderLen+4+IPv4HeaderLen {
			return Flow{}, errShort
		}
		etherType = binary.BigEndian.Uint16(pkt[16:18])
		l3 += 4
	}
	if etherType != ebpf.EthPIP {
		return Flow{}, errNotIPv4
	}
	ip := pkt[l3:]
	f := Flow{
		Proto: ip[9],
		SrcIP: binary.BigEndian.Uint32(ip[12:16]),
		DstIP: binary.BigEndian.Uint32(ip[16:20]),
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || ihl > len(ip) {
		// A malformed IHL nibble can point past the frame; the flow is
		// still identified by its addresses, ports stay zero.
		return f, nil
	}
	l4 := ip[ihl:]
	if (f.Proto == ebpf.IPProtoUDP || f.Proto == ebpf.IPProtoTCP) && len(l4) >= 4 {
		f.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		f.DstPort = binary.BigEndian.Uint16(l4[2:4])
	}
	return f, nil
}
