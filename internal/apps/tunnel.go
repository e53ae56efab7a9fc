package apps

import (
	"fmt"

	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
)

// Tunnel is the kernel's tx_iptunnel XDP sample: parse up to L4, IPIP-
// encapsulate packets towards configured virtual addresses, and XDP_TX
// them. The outer header is built in place after bpf_xdp_adjust_head,
// with a full checksum computed in the data plane.
func Tunnel() *App {
	return &App{
		Name:        "tunnel",
		Description: "parse pkt up to L4, encapsulate and XDP_TX",
		Source:      tunnelSource,
		SetupHost:   setupTunnelEndpoints,
		Traffic: pktgen.GeneratorConfig{
			Flows:     10000,
			PacketLen: 64,
			Proto:     ebpf.IPProtoUDP,
		},
		P4Expressible: true,
	}
}

// tunnelEndpoint configures encapsulation for one virtual IP.
type tunnelEndpoint struct {
	VIP        [4]byte // packets to this destination are encapsulated
	OuterSrc   [4]byte
	OuterDst   [4]byte
	GatewayMAC [6]byte
}

// defaultEndpoints matches the generator's 192.168.0.1 destination.
func defaultEndpoints() []tunnelEndpoint {
	return []tunnelEndpoint{{
		VIP:        [4]byte{192, 168, 0, 1},
		OuterSrc:   [4]byte{172, 16, 0, 1},
		OuterDst:   [4]byte{172, 16, 0, 2},
		GatewayMAC: [6]byte{0x02, 0xaa, 0, 0, 0, 1},
	}}
}

func setupTunnelEndpoints(set *maps.Set) error {
	cfg, ok := set.ByName("tnlcfg")
	if !ok {
		return fmt.Errorf("tunnel: tnlcfg map missing")
	}
	for _, ep := range defaultEndpoints() {
		val := make([]byte, 16)
		copy(val[0:4], ep.OuterSrc[:])
		copy(val[4:8], ep.OuterDst[:])
		copy(val[8:14], ep.GatewayMAC[:])
		if err := cfg.Update(ep.VIP[:], val, maps.UpdateAny); err != nil {
			return err
		}
	}
	return nil
}

const tunnelSource = `
; tx_iptunnel: IPIP encapsulation towards configured endpoints.
; cfg value layout: [0:4] outer saddr, [4:8] outer daddr, [8:14] gw mac.
map tnlcfg hash key=4 value=16 entries=256
map tnstats array key=4 value=8 entries=4

r6 = r1                        ; ctx
r2 = *(u32 *)(r1 + 4)
r7 = *(u32 *)(r1 + 0)
r3 = r7
r3 += 34
if r3 > r2 goto pass

r3 = *(u8 *)(r7 + 12)
r4 = *(u8 *)(r7 + 13)
r3 <<= 8
r3 |= r4
if r3 != 2048 goto pass        ; IPv4 only
r3 = *(u8 *)(r7 + 14)
r3 &= 15
if r3 != 5 goto pass

; --- endpoint lookup by destination address -------------------------
r4 = *(u32 *)(r7 + 30)
*(u32 *)(r10 - 4) = r4
r1 = map[tnlcfg] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto pass           ; not a tunnelled destination
r8 = r0                        ; endpoint config

; --- statistics ------------------------------------------------------
*(u32 *)(r10 - 8) = 0
r2 = r10
r2 += -8
r1 = map[tnstats] ll
call 1
if r0 == 0 goto encap
r2 = 1
lock *(u64 *)(r0 + 0) += r2

encap:
; inner total length, host order, before the headers move
r9 = *(u16 *)(r7 + 16)
r9 = be16 r9

; --- grow 20 bytes of headroom --------------------------------------
r1 = r6
r2 = -20
call 44                        ; bpf_xdp_adjust_head
if r0 != 0 goto pass
r7 = *(u32 *)(r6 + 0)          ; reload data: everything moved

; --- new Ethernet header --------------------------------------------
; old smac (now at +26) becomes the outer smac; read it before the
; outer saddr overwrites those bytes.
r4 = *(u32 *)(r7 + 26)
r5 = *(u16 *)(r7 + 30)
r3 = *(u32 *)(r8 + 8)          ; gateway mac
*(u32 *)(r7 + 0) = r3
r3 = *(u16 *)(r8 + 12)
*(u16 *)(r7 + 4) = r3
*(u32 *)(r7 + 6) = r4
*(u16 *)(r7 + 10) = r5
*(u16 *)(r7 + 12) = 8          ; EtherType 0x0800, network order

; --- outer IPv4 header ----------------------------------------------
*(u8 *)(r7 + 14) = 69          ; version 4, IHL 5
*(u8 *)(r7 + 15) = 0           ; TOS
r3 = r9
r3 += 20                       ; outer length
r4 = r3                        ; keep host-order copy for the checksum
r3 = be16 r3
*(u16 *)(r7 + 16) = r3
*(u16 *)(r7 + 18) = 0          ; identification
*(u16 *)(r7 + 20) = 64         ; flags DF (0x4000), network order
*(u8 *)(r7 + 22) = 64          ; TTL
*(u8 *)(r7 + 23) = 4           ; protocol IPIP
r3 = *(u32 *)(r8 + 0)          ; outer saddr bytes
*(u32 *)(r7 + 26) = r3
r3 = *(u32 *)(r8 + 4)          ; outer daddr bytes
*(u32 *)(r7 + 30) = r3

; --- outer header checksum ------------------------------------------
; sum of the constant words: 0x4500 + 0x4000 + 0x4004 = 0xC504
r5 = 50436
r5 += r4                       ; + total length
r3 = *(u16 *)(r8 + 0)          ; saddr high half
r3 = be16 r3
r5 += r3
r3 = *(u16 *)(r8 + 2)
r3 = be16 r3
r5 += r3
r3 = *(u16 *)(r8 + 4)          ; daddr high half
r3 = be16 r3
r5 += r3
r3 = *(u16 *)(r8 + 6)
r3 = be16 r3
r5 += r3
r3 = r5
r3 >>= 16
r5 &= 65535
r5 += r3                       ; fold carries
r3 = r5
r3 >>= 16
r5 &= 65535
r5 += r3
r5 ^= 65535                    ; one's complement
r5 &= 65535
r5 = be16 r5
*(u16 *)(r7 + 24) = r5

r0 = 3                         ; XDP_TX
exit

pass:
r0 = 2
exit
`
