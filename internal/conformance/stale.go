package conformance

import (
	"strings"

	"ehdl/internal/apps"
	"ehdl/internal/maps"
	"ehdl/internal/pktgen"
)

// StalePointerZoo is the program no application is: it holds a map
// value pointer while younger packets evict the entry behind it. The
// flow table is an LRU map of four entries — far smaller than the
// pipeline is deep — keyed by the last byte of the frame's source
// address; id 0 touches nothing (a spacer that lets the pipeline
// drain). A miss inserts the key, evicting the least recently used
// entry. A hit keeps the pointer through a dependent ALU chain longer
// than the insert path — so the younger packets behind it insert, evict
// the entry, and look up the key that now sits in its slot — and then
// adds through it, once at a static offset (a coded access: the value
// slice the lookup kept) and once at a register-relative one (the
// generic store: the address, resolved). Sequentially the adds land in
// the entry before anything younger runs; pipelined they land late, in
// an entry that is gone. Either way no other key's value may move: the
// store keeps a dead entry's bytes out of its successor's hands
// (maps.hashMap) and the interpreter points the packet's own pointers
// back at its own buffers before it resolves one (hwsim's rebind). Adds
// accumulate, so a stray one stays visible in the final map state.
//
// Eviction order depends on the order of lookups and inserts across
// packets, which a pipeline keeps per key, not across keys: traffic
// for this program must not let that order decide a victim (see
// StalePointerFrames).
func StalePointerZoo() *apps.App {
	return &apps.App{
		Name:   "stale_pointer_zoo",
		Source: stalePointerSource,
		SetupHost: func(set *maps.Set) error {
			m, _ := set.ByName("flows")
			return m.Update([]byte{1, 0, 0, 0}, make([]byte, 16), maps.UpdateAny)
		},
	}
}

// StalePointerFrames builds one well-formed 64-byte frame per id. The
// scenario is {h, a, b, c, d, d} back to back, h resident and least
// recently used bar none, a…d absent: h's packet hits and is still in
// its chain when d's insert takes h's slot and d's next packet looks d
// up. Spacers (id 0), a pipeline's depth of them, separate scenarios.
func StalePointerFrames(ids []byte) [][]byte {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = pktgen.Build(pktgen.PacketSpec{
			Flow:     pktgen.Flow{SrcIP: 0x0a000000 | uint32(id), DstIP: 0x0a000002, SrcPort: 4242, DstPort: 8080, Proto: 17},
			TotalLen: 64,
		})
	}
	return out
}

var stalePointerSource = `
map flows lru_hash key=4 value=16 entries=4

r9 = *(u32 *)(r1 + 0)
r2 = *(u32 *)(r1 + 4)
r3 = r9
r3 += 31
if r3 > r2 goto skip
r6 = *(u8 *)(r9 + 29)
if r6 == 0 goto skip
*(u32 *)(r10 - 4) = r6
r2 = r10
r2 += -4
r1 = map[flows] ll
call 1
if r0 != 0 goto hit
*(u64 *)(r10 - 24) = r6
*(u64 *)(r10 - 16) = 0
r2 = r10
r2 += -4
r3 = r10
r3 += -24
r4 = 0
r1 = map[flows] ll
call 2
r0 = 3
exit
hit:
r7 = r0
r8 = r6
` + strings.Repeat("r8 *= 3\nr8 ^= 5\nr8 += r6\n", 16) + `
r8 &= 0xffff
lock *(u64 *)(r7 + 0) += r8
r5 = r6
r5 &= 1
r5 <<= 2
r7 += r5
lock *(u32 *)(r7 + 8) += r6
*(u8 *)(r9 + 30) = r8
r0 = 2
exit
skip:
r0 = 1
exit
`
