package ddg

import (
	"fmt"

	"ehdl/internal/ebpf"
)

var kindNames = [...]string{
	pvScalar:    "scalar",
	pvCtx:       "ctx",
	pvPacket:    "packet",
	pvPacketEnd: "packet_end",
	pvStack:     "stack",
	pvMapPtr:    "map_ptr",
	pvMapValue:  "map_value",
	pvUnknown:   "unknown",
}

// ClassBefore names the provenance class of register r before
// instruction i: the kind, and for a region pointer its constant offset
// ("packet+14") or "+?" when the offset is a run-time value.
func ClassBefore(info *Info, i int, r ebpf.Register) string {
	v := analyzeProvenance(info.Graph, info.order, info.MapIDOfLDDW)[i][r]
	name := kindNames[v.kind]
	switch {
	case v.kind == pvScalar, v.kind == pvUnknown, v.kind == pvPacketEnd:
		return name
	case v.offKnown:
		return fmt.Sprintf("%s+%d", name, v.off)
	}
	return name + "+?"
}
