package apps

import (
	"ehdl/internal/ebpf"
	"ehdl/internal/pktgen"
)

// LeakyBucket is the Section 5.3 stress application: a per-source rate
// limiter that must read and write per-flow state (arrival time and
// bucket level) for every packet. The read-modify-write cannot be
// expressed with a single atomic operation, so every same-flow packet
// pair inside the hazard window forces a pipeline flush — the worst case
// for the Flush Evaluation Block, measured in Table 2 against the
// CAIDA/MAWI traces.
func LeakyBucket() *App {
	return &App{
		Name:        "leakybucket",
		Description: "per-source leaky-bucket rate limiter (flush stress)",
		Source:      leakyBucketSource,
		Traffic: pktgen.GeneratorConfig{
			Flows:     50000,
			PacketLen: 64,
			Proto:     ebpf.IPProtoUDP,
		},
		P4Expressible: true,
	}
}

// leakyBucketSource polices a burst of 64 cost units per source; each
// packet costs one unit, and the bucket leaks one unit per 2^10 ns
// (~1 us) of elapsed time.
const leakyBucketSource = `
; Leaky bucket per source address: value is {last_ts u64, level u64}.
; Every packet reads and rewrites the state: a per-flow RAW hazard on
; every same-source pair inside the pipeline window.
map bucket hash key=4 value=16 entries=32768
map lbstats array key=4 value=8 entries=4

r6 = r1
r2 = *(u32 *)(r1 + 4)
r7 = *(u32 *)(r1 + 0)
r3 = r7
r3 += 34
if r3 > r2 goto pass

r3 = *(u8 *)(r7 + 12)
r4 = *(u8 *)(r7 + 13)
r3 <<= 8
r3 |= r4
if r3 != 2048 goto pass

r4 = *(u32 *)(r7 + 26)         ; source address is the bucket key
*(u32 *)(r10 - 4) = r4

; total-packet counter: atomic on global state, before the bucket read
; so a later flush never replays it (Appendix A.2 buffer placement).
*(u32 *)(r10 - 12) = 0
r2 = r10
r2 += -12
r1 = map[lbstats] ll
call 1
if r0 == 0 goto clock
r2 = 1
lock *(u64 *)(r0 + 0) += r2
clock:
call 5                         ; bpf_ktime_get_ns
r9 = r0                        ; now

r1 = map[bucket] ll
r2 = r10
r2 += -4
call 1
if r0 == 0 goto newflow

; --- read-modify-write of the bucket ---------------------------------
r3 = *(u64 *)(r0 + 0)          ; last_ts
r4 = *(u64 *)(r0 + 8)          ; level
r5 = r9
r5 -= r3                       ; elapsed
r5 >>= 10                      ; leak units
if r4 > r5 goto leak
r4 = 0
goto fill
leak:
r4 -= r5
fill:
r4 += 1                        ; per-packet cost
*(u64 *)(r0 + 0) = r9          ; write back: the hazardous store
*(u64 *)(r0 + 8) = r4
if r4 > 64 goto police         ; over capacity

r0 = 3                         ; conforming: transmit
exit

police:
r0 = 1                         ; XDP_DROP
exit

newflow:
; first sighting: install {now, cost}
*(u64 *)(r10 - 32) = 0
*(u64 *)(r10 - 24) = 1
*(u64 *)(r10 - 32) = r9
r1 = map[bucket] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -32
r4 = 0
call 2
r0 = 3
exit

pass:
r0 = 2
exit
`
