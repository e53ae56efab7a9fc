package apps

import (
	"encoding/binary"
	"fmt"

	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
)

// Router is the Linux kernel's router_ipv4 XDP sample: parse up to IP,
// longest-prefix-match the destination in a routing table, rewrite the
// Ethernet header, decrement the TTL (with an incremental checksum
// update) and redirect to the egress port.
func Router() *App {
	return &App{
		Name:        "router",
		Description: "parse pkt headers up to IP, look up in routing table and forward (redirect)",
		Source:      routerSource,
		SetupHost:   setupRouterRoutes,
		Traffic: pktgen.GeneratorConfig{
			Flows:     10000,
			PacketLen: 64,
			Proto:     ebpf.IPProtoUDP,
		},
		P4Expressible: true,
	}
}

// routerRoute is one forwarding entry installed from the host.
type routerRoute struct {
	PrefixLen int
	Prefix    [4]byte
	Ifindex   uint32
	DstMAC    [6]byte
	SrcMAC    [6]byte
}

// defaultRoutes covers the generator's 10.0.0.0/8 sources and the
// 192.168.0.1 destination plus a default route.
func defaultRoutes() []routerRoute {
	return []routerRoute{
		{PrefixLen: 16, Prefix: [4]byte{192, 168, 0, 0}, Ifindex: 2,
			DstMAC: [6]byte{0x02, 0, 0, 0, 0, 2}, SrcMAC: [6]byte{0x02, 0, 0, 0, 0, 1}},
		{PrefixLen: 8, Prefix: [4]byte{10, 0, 0, 0}, Ifindex: 3,
			DstMAC: [6]byte{0x02, 0, 0, 0, 0, 3}, SrcMAC: [6]byte{0x02, 0, 0, 0, 0, 1}},
		{PrefixLen: 0, Prefix: [4]byte{}, Ifindex: 4,
			DstMAC: [6]byte{0x02, 0, 0, 0, 0, 4}, SrcMAC: [6]byte{0x02, 0, 0, 0, 0, 1}},
	}
}

func setupRouterRoutes(set *maps.Set) error {
	routes, ok := set.ByName("routes")
	if !ok {
		return fmt.Errorf("router: routes map missing")
	}
	for _, r := range defaultRoutes() {
		key := make([]byte, 8)
		binary.LittleEndian.PutUint32(key[:4], uint32(r.PrefixLen))
		copy(key[4:], r.Prefix[:])
		val := make([]byte, 16)
		binary.LittleEndian.PutUint32(val[0:4], r.Ifindex)
		copy(val[4:10], r.DstMAC[:])
		copy(val[10:16], r.SrcMAC[:])
		if err := routes.Update(key, val, maps.UpdateAny); err != nil {
			return err
		}
	}
	return nil
}

const routerSource = `
; router_ipv4: LPM route lookup, MAC rewrite, TTL decrement with
; RFC-1141 incremental checksum update, redirect to the egress port.
map routes lpm_trie key=8 value=16 entries=1024
map rtstats array key=4 value=8 entries=4

r6 = r1                        ; ctx
r2 = *(u32 *)(r1 + 4)          ; data_end
r7 = *(u32 *)(r1 + 0)          ; data
r3 = r7
r3 += 34                       ; eth + ip
if r3 > r2 goto pass

r3 = *(u8 *)(r7 + 12)
r4 = *(u8 *)(r7 + 13)
r3 <<= 8
r3 |= r4
if r3 != 2048 goto pass        ; IPv4 only
r3 = *(u8 *)(r7 + 14)
r3 &= 15
if r3 != 5 goto pass           ; no IP options
r3 = *(u8 *)(r7 + 22)          ; TTL
if r3 < 2 goto pass            ; expired: kernel sends the ICMP

; --- LPM key: {prefixlen=32, daddr} at r10-8 ------------------------
r4 = *(u32 *)(r7 + 30)         ; dst address bytes
*(u32 *)(r10 - 8) = 32
*(u32 *)(r10 - 4) = r4
r1 = map[routes] ll
r2 = r10
r2 += -8
call 1
if r0 == 0 goto pass           ; no route: hand to the kernel stack
r8 = r0                        ; route entry

; --- global statistics ----------------------------------------------
*(u32 *)(r10 - 12) = 0
r2 = r10
r2 += -12
r1 = map[rtstats] ll
call 1
if r0 == 0 goto rewrite
r2 = 1
lock *(u64 *)(r0 + 0) += r2

rewrite:
; destination MAC from the route entry
r3 = *(u32 *)(r8 + 4)
*(u32 *)(r7 + 0) = r3
r3 = *(u16 *)(r8 + 8)
*(u16 *)(r7 + 4) = r3
; source MAC
r3 = *(u32 *)(r8 + 10)
*(u32 *)(r7 + 6) = r3
r3 = *(u16 *)(r8 + 14)
*(u16 *)(r7 + 10) = r3

; TTL decrement
r3 = *(u8 *)(r7 + 22)
r3 -= 1
*(u8 *)(r7 + 22) = r3

; incremental header checksum (RFC 1141): HC' = HC + 0x0100
r3 = *(u16 *)(r7 + 24)
r3 = be16 r3
r3 += 256
r4 = r3
r4 >>= 16
r3 &= 65535
r3 += r4                       ; fold the carry
r3 &= 65535
r3 = be16 r3
*(u16 *)(r7 + 24) = r3

; redirect out of the route's interface
r1 = *(u32 *)(r8 + 0)
r2 = 0
call 23                        ; bpf_redirect
exit

pass:
r0 = 2
exit
`
