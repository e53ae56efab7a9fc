package vm

import (
	"encoding/binary"
	"strings"
	"testing"

	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
)

func lruSpace(t *testing.T, entries int) (*ExecContext, maps.Map) {
	t.Helper()
	prog := &ebpf.Program{Maps: []ebpf.MapSpec{
		{Name: "flows", Kind: ebpf.MapLRUHash, KeySize: 4, ValueSize: 8, MaxEntries: entries},
		{Name: "next", Kind: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1},
	}}
	env, err := NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewMemSpace(prog, env.Maps)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := env.Maps.ByID(0)
	return &ExecContext{Env: env, Mem: space}, m
}

// TestValueAddressesStayInTheirWindow churns 100 000 distinct keys
// through an 8-entry LRU map. The address table is bounded by the map's
// geometry — eight handles, not one per key ever seen — and no address
// leaves the map's own window or resolves to anything but the value the
// lookup returned.
func TestValueAddressesStayInTheirWindow(t *testing.T) {
	const entries = 8
	c, m := lruSpace(t, entries)
	st := newState(NewPacket(nil))
	key, val := make([]byte, 4), make([]byte, 8)
	for i := uint32(0); i < 100_000; i++ {
		binary.LittleEndian.PutUint32(key, i)
		binary.LittleEndian.PutUint64(val, uint64(i))
		if err := m.Update(key, val, maps.UpdateAny); err != nil {
			t.Fatal(err)
		}
		addr, v := c.LookupValue(0, key)
		if addr < mapValBase || addr+8 > mapValBase+entries*8 {
			t.Fatalf("key %d: address %#x outside the map's %d slots at %#x", i, addr, entries, uint64(mapValBase))
		}
		got, err := c.Mem.LoadAt(st, addr, 8)
		if err != nil || got != uint64(i) || binary.LittleEndian.Uint64(v) != uint64(i) {
			t.Fatalf("key %d: address %#x reads %d (err %v)", i, addr, got, err)
		}
	}
	if n := len(c.Mem.windows[0].values); n > entries {
		t.Fatalf("%d handles for an %d-entry map: the table grows with the keys seen", n, entries)
	}
}

// TestNewMemSpaceRejects: a map that cannot fit its window, and a set
// holding a host view, fail at construction.
func TestNewMemSpaceRejects(t *testing.T) {
	big := &ebpf.Program{Maps: []ebpf.MapSpec{{Name: "big", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: int(mapStride / 8)}}}
	env, err := NewEnv(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMemSpace(big, env.Maps); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("MaxEntries*stride past the window: err %v", err)
	}
	if _, err := New(big, env); err == nil {
		t.Error("vm.New accepted the oversized map")
	}
	big.Maps[0].MaxEntries = int(mapStride/8) - shadowHandles
	if _, err := NewMemSpace(big, env.Maps); err != nil {
		t.Errorf("a map that exactly fills its window: %v", err)
	}

	prog := &ebpf.Program{Maps: []ebpf.MapSpec{{Name: "m", Kind: ebpf.MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 4}}}
	m, err := maps.New(prog.Maps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMemSpace(prog, maps.SetOf(maps.Synchronize(m))); err == nil || !strings.Contains(err.Error(), "host view") {
		t.Errorf("a Synchronized map under a program: err %v", err)
	}
}

// TestShadowAndRebind: buffers outside the map take handles above its
// slots, from a ring that wraps inside the window, and Rebind points an
// address whose handle changed tenant back at the old buffer.
func TestShadowAndRebind(t *testing.T) {
	c, m := lruSpace(t, 2)
	st := newState(NewPacket(nil))
	a, b := []byte{1, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0, 0, 0, 0}
	addrA, addrB := c.Mem.ShadowAddress(0, a), c.Mem.ShadowAddress(0, b)
	if addrA < mapValBase+2*8 || addrA == addrB {
		t.Fatalf("shadow addresses %#x, %#x", addrA, addrB)
	}
	for i := 0; i < 3*shadowHandles; i++ { // the ring wraps inside the window
		if addr := c.Mem.ShadowAddress(0, make([]byte, 8)); addr >= mapValBase+(2+shadowHandles)*8 {
			t.Fatalf("shadow address %#x past the ring", addr)
		}
	}
	c.Mem.Rebind(addrA, a)
	if v, err := c.Mem.LoadAt(st, addrA, 8); err != nil || v != 1 {
		t.Fatalf("rebound shadow reads %d (err %v)", v, err)
	}

	// Key 1's pointer outlives its entry: keys 2 and 3 evict it and key
	// 3's lookup lands in its slot.
	for k := byte(1); k <= 3; k++ {
		if err := m.Update([]byte{k, 0, 0, 0}, []byte{k, 0, 0, 0, 0, 0, 0, 0}, maps.UpdateAny); err != nil {
			t.Fatal(err)
		}
		if k == 1 {
			addrA, a = c.LookupValue(0, []byte{1, 0, 0, 0})
		}
	}
	addrB, _ = c.LookupValue(0, []byte{3, 0, 0, 0})
	if addrA != addrB {
		t.Fatalf("key 3 at %#x did not reuse key 1's slot at %#x: the test needs a new tenant", addrB, addrA)
	}
	if v, _ := c.Mem.LoadAt(st, addrA, 8); v != 3 {
		t.Fatalf("the slot's address reads %d, want the new tenant's 3", v)
	}
	c.Mem.Rebind(addrA, a)
	if v, _ := c.Mem.LoadAt(st, addrA, 8); v != 1 {
		t.Fatalf("the rebound address reads %d, want the orphaned 1", v)
	}
	if _, _, _, err := c.Mem.resolve(st, mapValBase+mapStride+8, 8); err == nil {
		t.Error("an address no lookup returned resolved")
	}
}

// TestLoadStoreAtWidths holds the address-based accessors every engine's
// generic path uses to their contract: a store of each width to the
// stack, the packet and a map value reads back truncated to that width,
// little-endian, and xdp_md reads its synthesised 32-bit fields and
// refuses anything else.
func TestLoadStoreAtWidths(t *testing.T) {
	c, _ := lruSpace(t, 4)
	st := newState(NewPacket(make([]byte, 64)))
	val := make([]byte, 8)
	bases := map[string]uint64{
		"stack":  StackTopAddr - 16,
		"packet": PacketBase + uint64(st.Pkt.HeadIndex()) + 8,
		"value":  c.Mem.ValueAddress(1, 0, val),
	}
	const v = 0x8877665544332211
	for name, addr := range bases {
		for _, size := range []ebpf.Size{ebpf.SizeB, ebpf.SizeH, ebpf.SizeW, ebpf.SizeDW} {
			st.Regs[ebpf.R3] = v
			if err := c.Mem.StoreAt(st, ebpf.StoreMem(size, ebpf.R1, 0, ebpf.R3), addr); err != nil {
				t.Fatalf("%s: store of %d bytes: %v", name, size.Bytes(), err)
			}
			got, err := c.Mem.LoadAt(st, addr, size.Bytes())
			if want := uint64(v) & (1<<(8*size.Bytes()) - 1); err != nil || got != want {
				t.Fatalf("%s: %d bytes read back %#x, %v", name, size.Bytes(), got, err)
			}
		}
	}
	data := PacketBase + uint64(st.Pkt.HeadIndex())
	for off, want := range map[int]uint64{ebpf.XDPMDData: data, ebpf.XDPMDDataEnd: data + 64, ebpf.XDPMDDataMeta: data,
		ebpf.XDPMDIngressIfindex: 0, ebpf.XDPMDRxQueueIndex: 0, ebpf.XDPMDEgressIfindex: 0} {
		if got, err := c.Mem.LoadAt(st, CtxBase+uint64(off), 4); err != nil || got != want {
			t.Fatalf("xdp_md+%d: %#x, %v; want %#x", off, got, err, want)
		}
	}
	for _, bad := range []struct{ off, size int }{{0, 8}, {2, 4}} {
		if _, err := c.Mem.LoadAt(st, CtxBase+uint64(bad.off), bad.size); err == nil {
			t.Fatalf("xdp_md+%d, %d bytes: read", bad.off, bad.size)
		}
	}
	if err := c.Mem.StoreAt(st, ebpf.StoreImm(ebpf.SizeW, ebpf.R1, 0, 1), CtxBase); err == nil {
		t.Fatal("a store to xdp_md succeeded")
	}
}
