package tenant

import (
	"encoding/binary"

	"ehdl/internal/ebpf"
	"ehdl/internal/obs"
	"ehdl/internal/pktgen"
)

// classifyFrame attributes one arrival to a tenant. Tagged frames steer
// by VID with the 802.1Q tag stripped before injection (tenant programs
// parse plain Ethernet/IPv4, exactly what they would see behind a real
// NIC's VLAN demux). Untagged IPv4 frames steer by the tenants'
// source-network rules in admission order. Everything else — and every
// malformed frame no rule claims — falls to the default tenant, or to
// the device quarantine bucket (nil tenant) when none is configured;
// matched is false on that fallback path so the caller can trace the
// steer. The frame is never dropped here: quarantined arrivals are
// counted and traced, not discarded silently.
func (d *Device) classifyFrame(pkt []byte) (t *Tenant, frame []byte, matched bool) {
	if len(pkt) < pktgen.EthHeaderLen {
		return d.def, pkt, false
	}
	etherType := binary.BigEndian.Uint16(pkt[12:14])
	if etherType == ebpf.EthPVLAN {
		if len(pkt) < pktgen.EthHeaderLen+4 {
			// A tag with no room for the inner EtherType: unclassifiable
			// as-is, and stripping would fabricate header bytes.
			return d.def, pkt, false
		}
		vid := binary.BigEndian.Uint16(pkt[14:16]) & 0x0fff
		stripped := d.stripVLAN(pkt)
		if t, ok := d.byVLAN[vid]; ok {
			return t, stripped, true
		}
		// Unknown VID: the default tenant (if any) gets the frame in the
		// untagged form its pipeline can parse.
		return d.def, stripped, false
	}
	if etherType == ebpf.EthPIP && len(pkt) >= pktgen.EthHeaderLen+pktgen.IPv4HeaderLen {
		src := binary.BigEndian.Uint32(pkt[pktgen.EthHeaderLen+12 : pktgen.EthHeaderLen+16])
		for _, t := range d.tenants {
			if t.Spec.SrcMask != 0 && src&t.Spec.SrcMask == t.Spec.SrcNet {
				return t, pkt, true
			}
		}
	}
	return d.def, pkt, false
}

// stripVLAN copies pkt, less the 4-byte 802.1Q tag at offset 12, into
// the device's strip arena: the caller's frame stays as it arrived, and
// the copy lives until the next classify resets the arena.
func (d *Device) stripVLAN(pkt []byte) []byte {
	start := len(d.strip)
	d.strip = append(append(d.strip, pkt[:12]...), pkt[16:]...)
	return d.strip[start:len(d.strip):len(d.strip)]
}

// steerFallback traces one unclassifiable arrival: KindQueueSteer with
// the quarantine bucket (or the default tenant) as the target, so a
// trace shows exactly where every stray frame went.
func (d *Device) steerFallback(seq int, to *Tenant) {
	aux := quarantineBucket
	if to != nil {
		aux = uint64(to.id)
	}
	d.cfg.trace.Emit(obs.Event{
		Cycle: uint64(d.epoch), Kind: obs.KindQueueSteer, Seq: int64(seq),
		Stage: obs.NoStage, Map: obs.NoMap, Aux: aux, Aux2: 1,
	})
}
