package vm

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ehdl/internal/ebpf"
)

// TestStateCopyFrom: a copy shares nothing with its source, and copying
// into a state that already ran a larger packet leaves no trace of it —
// the recycled buffer's extent, headroom and bounds are the source's.
func TestStateCopyFrom(t *testing.T) {
	st := newState(NewPacket([]byte{1, 2, 3, 4}))
	st.Regs[ebpf.R5] = 99
	st.Stack[0] = 7

	c := newState(NewPacket(bytes.Repeat([]byte{0xee}, 128)))
	if err := c.Pkt.AdjustHead(-16); err != nil {
		t.Fatal(err)
	}
	c.Stack[100] = 0xee
	c.CopyFrom(st, 0, ebpf.StackSize)
	if !reflect.DeepEqual(c, st) {
		t.Fatal("copy into a used state differs from its source")
	}

	c.Regs[ebpf.R5] = 1
	c.Stack[0] = 2
	c.Pkt.Bytes()[0] = 0xff
	if st.Regs[ebpf.R5] != 99 || st.Stack[0] != 7 {
		t.Error("copy aliases registers or stack")
	}
	if st.Pkt.Bytes()[0] != 1 {
		t.Error("copy aliases the packet buffer")
	}
	if c.Regs[ebpf.R1] != CtxBase || c.Regs[ebpf.R10] != StackTopAddr {
		t.Error("copy lost the architectural inputs")
	}

	var fresh State
	fresh.CopyFrom(st, 0, ebpf.StackSize)
	if !reflect.DeepEqual(&fresh, st) {
		t.Error("copy into a zero state differs from its source")
	}
}

// TestPacketCopyFromMovesOnlyWhatDiffers: copyFrom skips the headroom
// both buffers still hold as zeroes, so it is checked against the copy
// that moves every byte — over sources and destinations that ran frames
// of other lengths, grew into their headroom and wrote there.
func TestPacketCopyFromMovesOnlyWhatDiffers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	used := func() *Packet {
		p := &Packet{}
		for n := r.Intn(4); n >= 0; n-- {
			frame := make([]byte, 1+r.Intn(200))
			r.Read(frame)
			p.reset(frame)
			if r.Intn(2) == 0 {
				if err := p.AdjustHead(-r.Intn(defaultHeadroom + 1)); err != nil {
					t.Fatal(err)
				}
				r.Read(p.Bytes())
			}
		}
		return p
	}
	for i := 0; i < 2000; i++ {
		src, dst := used(), used()
		if i%50 == 0 {
			dst = &Packet{}
		}
		dst.copyFrom(src)
		want := &Packet{buf: append([]byte(nil), src.buf...), head: src.head, end: src.end, low: src.low}
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("case %d: copy differs from its source (head %d end %d low %d, want %d %d %d)",
				i, dst.head, dst.end, dst.low, want.head, want.end, want.low)
		}
		for _, b := range dst.buf[:dst.low] {
			if b != 0 {
				t.Fatalf("case %d: a byte below the low-water mark is not zero", i)
			}
		}
	}
}

// TestStateReset: a re-armed state equals a freshly built one, whatever
// the previous run left in the registers, the stack and the headroom.
func TestStateReset(t *testing.T) {
	st := newState(NewPacket(bytes.Repeat([]byte{0xee}, 128)))
	for i := range st.Regs {
		st.Regs[i] = ^uint64(0)
	}
	for i := range st.Stack {
		st.Stack[i] = 0xee
	}
	if err := st.Pkt.AdjustHead(-defaultHeadroom); err != nil {
		t.Fatal(err)
	}
	for i := range st.Pkt.Bytes() {
		st.Pkt.Bytes()[i] = 0xee
	}
	data := []byte{1, 2, 3, 4}
	st.Reset(data, 0, ebpf.StackSize)
	if want := newState(NewPacket(data)); !reflect.DeepEqual(st, want) {
		t.Error("reset state differs from a fresh one")
	}

	var zero State
	zero.Reset(data, 0, ebpf.StackSize)
	if want := newState(NewPacket(data)); !reflect.DeepEqual(&zero, want) {
		t.Error("reset of a zero state differs from a fresh one")
	}
}

func TestStackSlice(t *testing.T) {
	st := newState(NewPacket(make([]byte, 64)))
	b, err := st.StackSlice(-8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0xaa
	if st.Stack[ebpf.StackSize-8] != 0xaa {
		t.Error("StackSlice does not alias the frame")
	}
	if _, err := st.StackSlice(-520, 8); err == nil {
		t.Error("accepted a slice below the frame")
	}
	if _, err := st.StackSlice(-4, 8); err == nil {
		t.Error("accepted a slice crossing the frame top")
	}
}

// TestPropertyEvalALUMatchesInterpreter cross-checks the pure evaluator
// against direct semantics for every operation.
func TestPropertyEvalALUMatchesInterpreter(t *testing.T) {
	ops := []ebpf.ALUOp{ebpf.ALUAdd, ebpf.ALUSub, ebpf.ALUMul, ebpf.ALUDiv, ebpf.ALUMod,
		ebpf.ALUOr, ebpf.ALUAnd, ebpf.ALUXor, ebpf.ALULsh, ebpf.ALURsh, ebpf.ALUArsh, ebpf.ALUMov}
	model := func(op ebpf.ALUOp, is64 bool, dst, src uint64) uint64 {
		if !is64 {
			dst, src = uint64(uint32(dst)), uint64(uint32(src))
		}
		var out uint64
		switch op {
		case ebpf.ALUAdd:
			out = dst + src
		case ebpf.ALUSub:
			out = dst - src
		case ebpf.ALUMul:
			out = dst * src
		case ebpf.ALUDiv:
			if src == 0 {
				out = 0
			} else {
				out = dst / src
			}
		case ebpf.ALUMod:
			if src == 0 {
				out = dst
			} else {
				out = dst % src
			}
		case ebpf.ALUOr:
			out = dst | src
		case ebpf.ALUAnd:
			out = dst & src
		case ebpf.ALUXor:
			out = dst ^ src
		case ebpf.ALULsh:
			if is64 {
				out = dst << (src & 63)
			} else {
				out = dst << (src & 31)
			}
		case ebpf.ALURsh:
			if is64 {
				out = dst >> (src & 63)
			} else {
				out = dst >> (src & 31)
			}
		case ebpf.ALUArsh:
			if is64 {
				out = uint64(int64(dst) >> (src & 63))
			} else {
				out = uint64(uint32(int32(uint32(dst)) >> (src & 31)))
			}
		case ebpf.ALUMov:
			out = src
		}
		if !is64 {
			out = uint64(uint32(out))
		}
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		op := ops[r.Intn(len(ops))]
		is64 := r.Intn(2) == 0
		dst, src := r.Uint64(), r.Uint64()
		var ins ebpf.Instruction
		if is64 {
			ins = ebpf.ALU64Reg(op, ebpf.R1, ebpf.R2)
		} else {
			ins = ebpf.ALU32Reg(op, ebpf.R1, ebpf.R2)
		}
		got, err := EvalALU(ins, dst, src)
		return err == nil && got == model(op, is64, dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyByteSwapInvolution(t *testing.T) {
	f := func(v uint64, pick uint8) bool {
		width := []int32{16, 32, 64}[pick%3]
		ins := ebpf.Swap(ebpf.R1, ebpf.SourceX, width) // to big-endian
		once, err := EvalALU(ins, v, 0)
		if err != nil {
			return false
		}
		twice, err := EvalALU(ins, once, 0)
		if err != nil {
			return false
		}
		// Double swap truncates to the width but is otherwise identity.
		var mask uint64
		switch width {
		case 16:
			mask = 0xffff
		case 32:
			mask = 0xffffffff
		default:
			mask = ^uint64(0)
		}
		return twice == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAdjustHeadBounds(t *testing.T) {
	p := NewPacket(make([]byte, 64))
	if err := p.AdjustHead(-defaultHeadroom - 1); err == nil {
		t.Error("grew past the headroom")
	}
	if err := p.AdjustHead(65); err == nil {
		t.Error("shrank past the data")
	}
	if err := p.AdjustHead(-16); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 80 {
		t.Errorf("len = %d, want 80", p.Len())
	}
	if err := p.AdjustTail(-80); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Errorf("len = %d after trimming everything", p.Len())
	}
	if err := p.AdjustTail(1 << 20); err == nil {
		t.Error("grew the tail past the buffer")
	}
}

func TestMapPointerValues(t *testing.T) {
	if MapPointer(0) == 0 || MapPointer(1) == MapPointer(0) {
		t.Error("map pointers must be distinct non-NULL values")
	}
}
