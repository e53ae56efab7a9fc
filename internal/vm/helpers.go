package vm

import (
	"encoding/binary"
	"fmt"

	"ehdl/internal/ebpf"
	"ehdl/internal/maps"
)

// enosys is the negative errno helpers return on failure, as a 64-bit
// register value.
const enosys = ^uint64(0) // -1

// ExecContext bundles the ambient environment a program executes in; it
// is shared between the interpreter and the pipeline simulator.
type ExecContext struct {
	Env *Env
	Mem *MemSpace
}

// CallHelper dispatches a helper function against a state. It returns a
// non-zero ifindex when the helper established a redirect target.
// R1-R5 are scratched after the call, per the eBPF calling convention.
func (c *ExecContext) CallHelper(st *State, id ebpf.HelperID) (redirect uint32, err error) {
	defer func() {
		for r := ebpf.R1; r <= ebpf.R5; r++ {
			st.Regs[r] = 0
		}
	}()

	switch id {
	case ebpf.HelperMapLookupElem:
		mapID, mp, err := c.mapArg(st)
		if err != nil {
			return 0, err
		}
		key, err := c.Mem.readBytes(st, st.Regs[ebpf.R2], mp.Spec().KeySize)
		if err != nil {
			return 0, fmt.Errorf("bpf_map_lookup_elem key: %w", err)
		}
		st.Regs[ebpf.R0], _ = c.LookupValue(mapID, key)
		return 0, nil

	case ebpf.HelperMapUpdateElem:
		mapID, mp, err := c.mapArg(st)
		if err != nil {
			return 0, err
		}
		key, err := c.Mem.readBytes(st, st.Regs[ebpf.R2], mp.Spec().KeySize)
		if err != nil {
			return 0, fmt.Errorf("bpf_map_update_elem key: %w", err)
		}
		val, err := c.Mem.readBytes(st, st.Regs[ebpf.R3], mp.Spec().ValueSize)
		if err != nil {
			return 0, fmt.Errorf("bpf_map_update_elem value: %w", err)
		}
		st.Regs[ebpf.R0] = c.UpdateResult(mapID, key, val, maps.UpdateFlag(st.Regs[ebpf.R4]))
		return 0, nil

	case ebpf.HelperMapDeleteElem:
		mapID, mp, err := c.mapArg(st)
		if err != nil {
			return 0, err
		}
		key, err := c.Mem.readBytes(st, st.Regs[ebpf.R2], mp.Spec().KeySize)
		if err != nil {
			return 0, fmt.Errorf("bpf_map_delete_elem key: %w", err)
		}
		st.Regs[ebpf.R0] = c.DeleteResult(mapID, key)
		return 0, nil

	case ebpf.HelperKtimeGetNs, ebpf.HelperKtimeGetBootNs, ebpf.HelperKtimeGetCoarseNs:
		st.Regs[ebpf.R0] = c.Env.now()
		return 0, nil
	case ebpf.HelperJiffies64:
		st.Regs[ebpf.R0] = c.Env.now() / 4_000_000 // 250 HZ
		return 0, nil
	case ebpf.HelperGetPrandomU32:
		st.Regs[ebpf.R0] = uint64(c.Env.prandom())
		return 0, nil
	case ebpf.HelperGetSMPProcessorID:
		st.Regs[ebpf.R0] = 0
		return 0, nil
	case ebpf.HelperRedirect:
		ifindex := uint32(st.Regs[ebpf.R1])
		st.Regs[ebpf.R0] = uint64(ebpf.XDPRedirect)
		return ifindex, nil
	case ebpf.HelperRedirectMap:
		return c.redirectMap(st)
	case ebpf.HelperXDPAdjustHead:
		delta := int(int32(uint32(st.Regs[ebpf.R2])))
		if err := st.Pkt.AdjustHead(delta); err != nil {
			st.Regs[ebpf.R0] = enosys
			return 0, nil
		}
		st.Regs[ebpf.R0] = 0
		return 0, nil
	case ebpf.HelperXDPAdjustTail:
		delta := int(int32(uint32(st.Regs[ebpf.R2])))
		if err := st.Pkt.AdjustTail(delta); err != nil {
			st.Regs[ebpf.R0] = enosys
			return 0, nil
		}
		st.Regs[ebpf.R0] = 0
		return 0, nil
	}
	return 0, fmt.Errorf("unsupported helper %s", id.Name())
}

// LookupValue performs a map lookup by explicit key, returning the
// stable value address (0 on miss) and the value slice behind it. The
// pipeline engines call this directly with keys taken from static stack
// slots and keep the slice beside the pointer: a statically addressed
// access through it then needs no address resolved.
func (c *ExecContext) LookupValue(mapID int, key []byte) (uint64, []byte) {
	mp, ok := c.Env.Maps.ByID(mapID)
	if !ok {
		return 0, nil
	}
	// NewMemSpace checked the set; only wrappers are swapped in after.
	val, slot, ok := mp.(maps.Slotted).LookupSlot(key)
	if !ok {
		return 0, nil
	}
	return c.Mem.ValueAddress(mapID, slot, val), val
}

// UpdateResult performs a map update by explicit key/value, returning
// the helper's R0 (0 on success, -1 on failure).
func (c *ExecContext) UpdateResult(mapID int, key, val []byte, flag maps.UpdateFlag) uint64 {
	mp, ok := c.Env.Maps.ByID(mapID)
	if !ok {
		return enosys
	}
	if err := mp.Update(key, val, flag); err != nil {
		return enosys
	}
	return 0
}

// DeleteResult performs a map delete by explicit key, returning R0.
func (c *ExecContext) DeleteResult(mapID int, key []byte) uint64 {
	mp, ok := c.Env.Maps.ByID(mapID)
	if !ok {
		return enosys
	}
	if err := mp.Delete(key); err != nil {
		return enosys
	}
	return 0
}

// mapArg resolves the map pointer in a helper's R1.
func (c *ExecContext) mapArg(st *State) (int, maps.Map, error) {
	ptr := st.Regs[ebpf.R1]
	if ptr < mapPtrBase || ptr >= mapPtrBase+uint64(c.Env.Maps.Len()) {
		return 0, nil, fmt.Errorf("helper R1 %#x is not a map pointer", ptr)
	}
	id := int(ptr - mapPtrBase)
	mp, _ := c.Env.Maps.ByID(id)
	return id, mp, nil
}

// redirectMap implements bpf_redirect_map over a DEVMAP: the key in R2
// selects an entry whose value is the target ifindex.
func (c *ExecContext) redirectMap(st *State) (uint32, error) {
	_, mp, err := c.mapArg(st)
	if err != nil {
		return 0, err
	}
	var key [4]byte
	binary.LittleEndian.PutUint32(key[:], uint32(st.Regs[ebpf.R2]))
	val, ok := mp.Lookup(key[:])
	if ok && len(val) >= 4 {
		if ifindex := binary.LittleEndian.Uint32(val); ifindex != 0 {
			st.Regs[ebpf.R0] = uint64(ebpf.XDPRedirect)
			return ifindex, nil
		}
	}
	// Unset slot: return the flags argument, matching the kernel's
	// "return flags on miss" behaviour.
	st.Regs[ebpf.R0] = st.Regs[ebpf.R3]
	return 0, nil
}
