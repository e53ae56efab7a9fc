package hdl

import "ehdl/internal/core"

// Live-update hardware pricing: what the hitless-update subsystem of
// internal/liveupdate costs on the FPGA. The estimates follow the same
// calibrated-primitive approach as the rest of the package:
//
//   - During the overlap window the old and the new pipeline both hold
//     their map state on-chip, so every map's data words are
//     double-buffered: a second BRAM copy per map, the dominant term of
//     map-heavy designs.
//   - Each map gains a migration DMA channel: a bulk-copy cursor that
//     streams entries old-to-new, one per cycle, once the drain barrier
//     has emptied the old pipeline (no write lands mid-copy).
//   - The canary needs an ingress mirror tap and an outcome comparator
//     diffing the shadow's verdict/bytes against the reference.
//   - The reconfiguration controller sequences the stages: the update
//     FSM, the drain sequencer and the atomic ingress switch mux in
//     front of both pipelines.
const (
	migrateChannelLUTs = 140 // per-map bulk-copy cursor
	migrateChannelFFs  = 120

	canaryLUTs = 480 // mirror tap + verdict/byte comparator
	canaryFFs  = 260

	reconfLUTs = 520 // update FSM + drain sequencer + ingress switch mux
	reconfFFs  = 380
)

// EstimateLiveUpdate returns the incremental resources of making a
// pipeline hot-swappable: double-buffered map storage, per-map
// migration channels, the canary tap and the reconfiguration
// controller. A map-less pipeline still pays for the
// controller and the canary path — swapping it is exactly the ingress
// mux flip — but nothing per map.
func EstimateLiveUpdate(p *core.Pipeline) Resources {
	var r Resources
	for _, m := range elaborateMaps(p) {
		// The shadow pipeline's copy of the data words.
		r.BRAM36 += bram36(m.dataBits)

		r.LUTs += migrateChannelLUTs
		r.FFs += migrateChannelFFs
	}

	r.LUTs += canaryLUTs + reconfLUTs
	r.FFs += canaryFFs + reconfFFs
	return r
}
