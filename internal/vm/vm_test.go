package vm

import (
	"encoding/binary"
	"testing"

	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
)

const toySource = `
map stats array key=4 value=8 entries=4

r2 = *(u32 *)(r1 + 4)
r1 = *(u32 *)(r1 + 0)
r3 = 0
*(u32 *)(r10 - 4) = r3
r2 = *(u8 *)(r1 + 13)
r1 = *(u8 *)(r1 + 12)
r1 <<= 8
r1 |= r2
if r1 == 34525 goto ipv6
if r1 == 2054 goto arp
if r1 != 2048 goto lookup
r1 = 1
goto store
ipv6:
r1 = 2
goto store
arp:
r1 = 3
store:
*(u32 *)(r10 - 4) = r1
lookup:
r2 = r10
r2 += -4
r1 = map[stats] ll
call 1
r1 = r0
r0 = 3
if r1 == 0 goto out
r2 = 1
lock *(u64 *)(r1 + 0) += r2
out:
exit
`

// ethFrame builds a minimal Ethernet frame with the given EtherType.
func ethFrame(etherType uint16, payload int) []byte {
	pkt := make([]byte, 14+payload)
	binary.BigEndian.PutUint16(pkt[12:14], etherType)
	return pkt
}

func newToyMachine(t *testing.T) (*Machine, *Env) {
	t.Helper()
	prog, err := asm.Assemble("toy", toySource)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	return m, env
}

func TestToyProgramCountsProtocols(t *testing.T) {
	m, env := newToyMachine(t)

	// The toy program reads the EtherType byte-by-byte and assembles it
	// little-endian-swapped: key 1 for IPv4, 2 for IPv6, 3 for ARP,
	// 0 otherwise. Note the byte order: pkt[12]<<0 | pkt[13]<<8 after
	// the shifts in the program give the big-endian value.
	runs := []struct {
		etherType uint16
		times     int
	}{
		{ebpf.EthPIP, 3},
		{ebpf.EthPIPV6, 2},
		{ebpf.EthPARP, 1},
		{0x88cc, 4}, // LLDP falls in the default bucket
	}
	for _, r := range runs {
		for i := 0; i < r.times; i++ {
			res, err := m.Run(NewPacket(ethFrame(r.etherType, 46)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Action != ebpf.XDPTx {
				t.Fatalf("action = %v, want XDP_TX", res.Action)
			}
		}
	}

	stats, _ := env.Maps.ByName("stats")
	want := map[uint32]uint64{0: 4, 1: 3, 2: 2, 3: 1}
	for key, count := range want {
		var k [4]byte
		binary.LittleEndian.PutUint32(k[:], key)
		v, ok := stats.Lookup(k[:])
		if !ok {
			t.Fatalf("stats[%d] missing", key)
		}
		if got := binary.LittleEndian.Uint64(v); got != count {
			t.Errorf("stats[%d] = %d, want %d", key, got, count)
		}
	}
}

func TestALUSemantics(t *testing.T) {
	run := func(t *testing.T, src string) uint64 {
		t.Helper()
		prog, err := asm.Assemble("alu", src+"\nexit")
		if err != nil {
			t.Fatal(err)
		}
		env, _ := NewEnv(prog)
		m, err := New(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(NewPacket(make([]byte, 64)))
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Action)
	}

	cases := []struct {
		name string
		src  string
		want uint32
	}{
		{"add", "r0 = 40\nr0 += 2", 42},
		{"sub wrap", "r0 = 1\nr0 -= 2\nr0 &= 0xff", 0xff},
		{"mul", "r0 = 6\nr0 *= 7", 42},
		{"div", "r0 = 85\nr0 /= 2", 42},
		{"div by zero", "r0 = 85\nr1 = 0\nr0 /= r1", 0},
		{"mod", "r0 = 85\nr0 %= 43", 42},
		{"mod by zero", "r0 = 85\nr1 = 0\nr0 %= r1", 85},
		{"lsh mask", "r0 = 1\nr1 = 65\nr0 <<= r1\nr0 &= 0xff", 2}, // 65 & 63 == 1
		{"arsh", "r0 = -8\nr0 s>>= 1\nr0 &= 0xffff", 0xfffc},
		{"neg", "r0 = 5\nr0 = -r0\nr0 &= 0xff", 0xfb},
		{"mov32 zero extends", "r0 = -1\nw0 = 7", 7},
		{"alu32 wraps", "w0 = -1\nw0 += 1", 0},
		{"be16", "r0 = 0x1234\nr0 = be16 r0", 0x3412},
		{"le16 truncates", "r0 = 0x51234 ll\nr0 = le16 r0", 0x1234},
		{"xor clears", "r0 = 99\nr0 ^= r0", 0},
		{"32bit div", "w0 = 100\nw1 = 3\nw0 /= w1", 33},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(t, c.src); uint32(got) != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestBranchSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want uint32
	}{
		{"taken eq", "r0 = 0\nr1 = 5\nif r1 == 5 goto +1\nr0 = 9\nexit", 0},
		{"not taken", "r0 = 0\nr1 = 4\nif r1 == 5 goto +1\nr0 = 9\nexit", 9},
		{"signed gt", "r0 = 0\nr1 = -1\nif r1 s> 0 goto +1\nr0 = 9\nexit", 9},
		{"unsigned gt", "r0 = 0\nr1 = -1\nif r1 > 0 goto +1\nr0 = 9\nexit", 0},
		{"jset", "r0 = 0\nr1 = 6\nif r1 & 2 goto +1\nr0 = 9\nexit", 0},
		{"jmp32", "r0 = 0\nr1 = 0x100000001 ll\nif w1 == 1 goto +1\nr0 = 9\nexit", 0},
		{"jmp64 differs", "r0 = 0\nr1 = 0x100000001 ll\nif r1 == 1 goto +1\nr0 = 9\nexit", 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := asm.Assemble("b", c.src)
			if err != nil {
				t.Fatal(err)
			}
			env, _ := NewEnv(prog)
			m, _ := New(prog, env)
			res, err := m.Run(NewPacket(make([]byte, 64)))
			if err != nil {
				t.Fatal(err)
			}
			if uint32(res.Action) != c.want {
				t.Errorf("r0 = %d, want %d", res.Action, c.want)
			}
		})
	}
}

func TestPacketBoundsEnforced(t *testing.T) {
	prog, err := asm.Assemble("oob", `
r1 = *(u32 *)(r1 + 0)
r0 = *(u64 *)(r1 + 60)  ; 8 bytes at offset 60 of a 64-byte packet: ok
r0 = *(u64 *)(r1 + 61)  ; crosses the end: must fault
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	if _, err := m.Run(NewPacket(make([]byte, 64))); err == nil {
		t.Fatal("out-of-bounds packet read did not fault")
	}
}

func TestStackBoundsEnforced(t *testing.T) {
	for _, src := range []string{
		"*(u64 *)(r10 - 520) = 0\nexit", // below the frame
		"*(u64 *)(r10 + 0) = 0\nexit",   // at/above the frame pointer
	} {
		prog, err := asm.Assemble("stack", "r0 = 0\n"+src)
		if err != nil {
			t.Fatal(err)
		}
		env, _ := NewEnv(prog)
		m, _ := New(prog, env)
		if _, err := m.Run(NewPacket(make([]byte, 64))); err == nil {
			t.Errorf("stack violation %q did not fault", src)
		}
	}
}

func TestCtxIsReadOnly(t *testing.T) {
	prog, err := asm.Assemble("ctxw", "r0 = 0\n*(u32 *)(r1 + 0) = 1\nexit")
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	if _, err := m.Run(NewPacket(make([]byte, 64))); err == nil {
		t.Fatal("store to xdp_md did not fault")
	}
}

func TestCallScratchesArgumentRegisters(t *testing.T) {
	prog, err := asm.Assemble("scratch", `
r1 = 7
r2 = 8
call bpf_ktime_get_ns
r0 = r1
r0 += r2
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	res, err := m.Run(NewPacket(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 0 {
		t.Errorf("R1/R2 survived a helper call: r0 = %d", res.Action)
	}
}

func TestAdjustHead(t *testing.T) {
	prog, err := asm.Assemble("adj", `
r6 = r1
r2 = -4
call bpf_xdp_adjust_head
if r0 != 0 goto fail
r1 = *(u32 *)(r6 + 0)
r2 = *(u32 *)(r6 + 4)
r0 = r2
r0 -= r1       ; new packet length
exit
fail:
r0 = 0
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	res, err := m.Run(NewPacket(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 68 {
		t.Errorf("adjusted length = %d, want 68", res.Action)
	}
}

func TestRedirect(t *testing.T) {
	prog, err := asm.Assemble("redir", `
r1 = 3
r2 = 0
call bpf_redirect
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	res, err := m.Run(NewPacket(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ebpf.XDPRedirect {
		t.Errorf("action = %v, want XDP_REDIRECT", res.Action)
	}
	if res.RedirectIfindex != 3 {
		t.Errorf("redirect ifindex = %d, want 3", res.RedirectIfindex)
	}
}

func TestMapUpdateDeleteFromProgram(t *testing.T) {
	prog, err := asm.Assemble("upd", `
map conn hash key=4 value=8 entries=16

*(u32 *)(r10 - 4) = 77       ; key
*(u64 *)(r10 - 16) = 123     ; value
r1 = map[conn] ll
r2 = r10
r2 += -4
r3 = r10
r3 += -16
r4 = 0
call 2                        ; update
r6 = r0
r1 = map[conn] ll
r2 = r10
r2 += -4
call 1                        ; lookup
if r0 == 0 goto miss
r0 = *(u64 *)(r0 + 0)
exit
miss:
r0 = 0
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	res, err := m.Run(NewPacket(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 123 {
		t.Errorf("lookup after update = %d, want 123", res.Action)
	}
	if res.HelperCalls != 2 {
		t.Errorf("helper calls = %d, want 2", res.HelperCalls)
	}
}

func TestWriteThroughLookupPointer(t *testing.T) {
	m, env := newToyMachine(t)
	// Two runs with the same EtherType hit the same map entry through
	// the pointer returned by lookup; the atomic add must accumulate.
	for i := 0; i < 2; i++ {
		if _, err := m.Run(NewPacket(ethFrame(ebpf.EthPIP, 46))); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ := env.Maps.ByName("stats")
	var k [4]byte
	binary.LittleEndian.PutUint32(k[:], 1)
	v, _ := stats.Lookup(k[:])
	if got := binary.LittleEndian.Uint64(v); got != 2 {
		t.Errorf("accumulated count = %d, want 2", got)
	}
}

func TestStepLimit(t *testing.T) {
	prog, err := asm.Assemble("loop", "r0 = 0\nback:\ngoto back\nexit")
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	m.stepLimit = 100
	if _, err := m.Run(NewPacket(make([]byte, 64))); err == nil {
		t.Fatal("infinite loop did not hit the step limit")
	}
}

func TestTraceCollection(t *testing.T) {
	m, _ := newToyMachine(t)
	m.CollectTrace = true
	res, err := m.Run(NewPacket(ethFrame(ebpf.EthPARP, 46)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Steps {
		t.Errorf("trace length %d != steps %d", len(res.Trace), res.Steps)
	}
	if res.Trace[0] != 0 {
		t.Errorf("trace starts at %d, want 0", res.Trace[0])
	}
}

func TestAtomicFetchVariants(t *testing.T) {
	prog, err := asm.Assemble("atomics", `
*(u64 *)(r10 - 8) = 10
r2 = 5
r3 = r10
r3 += -8
lock *(u64 *)(r3 + 0) += r2 fetch
r0 = r2                      ; old value: 10
r1 = *(u64 *)(r10 - 8)       ; new value: 15
r0 <<= 8
r0 |= r1
exit
`)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := NewEnv(prog)
	m, _ := New(prog, env)
	res, err := m.Run(NewPacket(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res.Action) != 10<<8|15 {
		t.Errorf("fetch-add result = %#x, want %#x", uint32(res.Action), 10<<8|15)
	}
}
