// Package fastpath executes compiled eHDL pipelines at host speed.
//
// The cycle-accurate simulator (internal/hwsim) advances a design one
// stage per clock and models the map-consistency machinery — WAR write
// shadows, RAW flush evaluation, stalls — in full. That fidelity costs
// about a microsecond per packet on the host (hwsim.exec_ns in ./bench
// against fastpath.exec_ns). This package is the second execution
// mode: Compile specializes a design once into a per-stage closure
// chain (constants folded, map handles captured, predicate bits wired),
// and Machine runs each packet through the chain with no per-packet
// heap allocation on the happy path.
//
// The compiled path is sequential: a packet fully executes at ingress,
// and a lightweight timing skeleton reproduces the interpreter's
// hazard-free injection pacing, pipeline-depth latency and queue
// accounting. The existing differential suite proves the pipelined
// interpreter equivalent to the sequential reference on verdicts, map
// effects and packet bytes, so the fast path is bit-identical to both
// wherever it is eligible to run; the interpreter remains the oracle
// (internal/conformance runs vm, hwsim and fastpath three ways). Fault
// injection, memory protection, stall policy, strict carry checking and
// cycle-level observability keep the interpreter (see Eligible and the
// fallback matrix in DESIGN.md).
package fastpath

import (
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/ddg"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/vm"
)

// compiledOp is one specialized micro-operation: the block-enable bit
// that gates it and the closure that executes it. The kinds vm
// specialises for both engines — ALU chains, constant loads, branch
// predicates, statically addressed memory accesses — carry their closure
// in a dedicated field so the dispatch loop calls them directly: no
// wrapper closure, and no error check on ops that cannot fail.
type compiledOp struct {
	blockID  int
	stage    int32                   // originating pipeline stage (done-ness boundary)
	skip     int                     // index after this op's contiguous block run
	fall     int                     // successor enabled after alu or mem (-1: none)
	alu      func(st *vm.State)      // register-only op; nil → pred, mem or run
	pred     func(st *vm.State) bool // branch predicate; nil → mem or run
	taken    int
	notTaken int
	mem      vm.MemFn               // statically addressed load, store or atomic; nil → run
	val      int                    // lookupVal slot mem reads its value slice from
	run      func(m *Machine) error // everything else that can touch memory or fail
}

// Prog is a design compiled for host-speed execution. It is immutable
// after Compile and safe to share across Machines (each replica of a
// multi-queue engine binds the same Prog to its own map environment).
// The ops of every stage live in one flat slice — the dispatch loop
// detects stage boundaries by the op's stage field, where exit/fault
// done-ness takes effect (ops within a stage run "in parallel").
type Prog struct {
	pl  *core.Pipeline
	ops []compiledOp

	depth      int // full pipeline depth, framing NOPs included
	numBlocks  int // entries in the per-block enable epoch array
	frameBytes int
	numMaps    int

	// [stackLo, stackHi) is the union of stack bytes any packet can
	// write: every other stack byte stays zero forever, so the
	// per-packet reset only clears this span. A store whose target is
	// not statically known widens it to the whole frame.
	stackLo, stackHi int
}

// Pipeline returns the design the program was compiled from.
func (p *Prog) Pipeline() *core.Pipeline { return p.pl }

// Depth returns the pipeline depth the timing skeleton models.
func (p *Prog) Depth() int { return p.depth }

// Compile specializes a design into per-stage closure chains. Every op
// constant — immediates, static addresses, map identifiers, stack slots
// of helper arguments, successor block bits — is folded at compile time
// so the per-packet path only moves data.
func Compile(pl *core.Pipeline) (*Prog, error) {
	if len(pl.Stages) == 0 {
		return nil, fmt.Errorf("fastpath: empty pipeline")
	}
	p := &Prog{
		pl:         pl,
		depth:      len(pl.Stages),
		numBlocks:  len(pl.Blocks) + 1,
		frameBytes: pl.Options.FrameBytes,
		numMaps:    len(pl.Transformed.Maps),
	}
	if p.frameBytes <= 0 {
		p.frameBytes = 64
	}
	p.stackLo, p.stackHi = hwsim.StackWriteExtent(pl)
	for t := range pl.Stages {
		stage := &pl.Stages[t]
		if stage.Kind != core.StageNormal || len(stage.Ops) == 0 {
			continue
		}
		for i := range stage.Ops {
			op := &stage.Ops[i]
			co, err := compileOp(pl, op)
			if err != nil {
				return nil, fmt.Errorf("fastpath: stage %d (%s): %w", t, op.Ins, err)
			}
			co.blockID = op.BlockID
			co.stage = int32(t)
			p.ops = append(p.ops, co)
		}
	}
	// A disabled block is skipped in one hop: each op records the index
	// just past its contiguous same-block run. Nothing executes inside
	// such a run, so a block observed disabled at its head cannot become
	// enabled before the run ends.
	for i := len(p.ops) - 1; i >= 0; i-- {
		if i+1 < len(p.ops) && p.ops[i+1].blockID == p.ops[i].blockID {
			p.ops[i].skip = p.ops[i+1].skip
		} else {
			p.ops[i].skip = i + 1
		}
	}
	return p, nil
}

// compileOp specializes one micro-operation. The semantics replicate
// hwsim's compileOp exactly, minus the hazard, fault and protection
// machinery the fast path is never eligible to run with. What vm
// specialises comes back in the direct alu/pred/mem fields; everything
// else as a run closure.
func compileOp(pl *core.Pipeline, op *core.Op) (compiledOp, error) {
	fall := op.FallThrough()
	// val defaults to the slot past every map, which stays nil.
	co := compiledOp{fall: fall, taken: -1, notTaken: -1, val: len(pl.Transformed.Maps)}
	if co.mem = hwsim.StaticAccess(pl, op); co.mem != nil {
		if op.Access.Area == ddg.AreaMap {
			co.val = op.MapID
		}
		return co, nil
	}
	run, err := compileRun(pl, op, fall, &co)
	if err != nil {
		return compiledOp{}, err
	}
	co.run = run
	return co, nil
}

func compileRun(pl *core.Pipeline, op *core.Op, fall int, co *compiledOp) (func(m *Machine) error, error) {
	switch op.Kind {
	case core.OpALU:
		// The fused tail is specialized too: the whole op chain becomes a
		// straight run of direct closures.
		fn, err := vm.SpecializeALU(op.Ins, op.Fused...)
		if err != nil {
			return nil, err
		}
		co.alu = fn
		return nil, nil

	case core.OpLDDW:
		// The constant (or map pointer) is folded here, at compile time.
		v := uint64(op.Ins.Imm64)
		if op.MapID >= 0 {
			v = vm.MapPointer(op.MapID)
		}
		dst := op.Ins.Dst
		co.alu = func(st *vm.State) { st.Regs[dst] = v }
		return nil, nil

	case core.OpLoad:
		addrFn, err := compileAddr(op)
		if err != nil {
			return nil, err
		}
		ins := op.Ins
		size := ins.MemSize().Bytes()
		dst := ins.Dst
		isPacket := op.Access != nil && op.Access.Area == ddg.AreaPacket
		return func(m *Machine) error {
			addr, err := addrFn(m)
			if err != nil {
				return err
			}
			v, err := m.mem.LoadAt(&m.st, addr, size)
			if err != nil {
				if isPacket {
					m.fault()
					return nil
				}
				return err
			}
			m.st.Regs[dst] = v
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}, nil

	case core.OpStore, core.OpAtomic:
		addrFn, err := compileAddr(op)
		if err != nil {
			return nil, err
		}
		ins := op.Ins
		isPacket := op.Access != nil && op.Access.Area == ddg.AreaPacket
		return func(m *Machine) error {
			addr, err := addrFn(m)
			if err != nil {
				return err
			}
			if err := m.mem.StoreAt(&m.st, ins, addr); err != nil {
				if isPacket {
					m.fault()
					return nil
				}
				return err
			}
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}, nil

	case core.OpBranch:
		pred, err := vm.SpecializeBranch(op.Ins)
		if err != nil {
			return nil, err
		}
		co.pred = pred
		co.taken, co.notTaken = op.TakenBlock, op.FallBlock
		return nil, nil

	case core.OpExit:
		return func(m *Machine) error {
			m.done = true
			m.action = ebpf.XDPAction(uint32(m.st.Regs[ebpf.R0]))
			return nil
		}, nil

	case core.OpMapCall:
		return compileMapCall(pl, op, fall)

	case core.OpHelper:
		if op.Helper.CPUOnly() {
			// Stubbed as a constant block, like the interpreter.
			return func(m *Machine) error {
				for r := ebpf.R0; r <= ebpf.R5; r++ {
					m.st.Regs[r] = 0
				}
				if fall >= 0 {
					m.enable(fall)
				}
				return nil
			}, nil
		}
		h := op.Helper
		return func(m *Machine) error {
			redirect, err := m.exec.CallHelper(&m.st, h)
			if err != nil {
				return err
			}
			if redirect != 0 {
				m.redirect = redirect
			}
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown op kind %v", op.Kind)
}

// compileAddr specializes an op's address computation: statically wired
// for elided bases (folded to a constant where possible), register-
// relative otherwise. Mirrors hwsim's addrOf.
func compileAddr(op *core.Op) (func(m *Machine) (uint64, error), error) {
	ins := op.Ins
	if !op.BaseElided || op.Access == nil {
		base := ins.Src
		if cls := ins.Class(); cls == ebpf.ClassST || cls == ebpf.ClassSTX {
			base = ins.Dst
		}
		off := uint64(int64(ins.Off))
		return func(m *Machine) (uint64, error) {
			return m.st.Regs[base] + off, nil
		}, nil
	}
	acc := op.Access
	off := uint64(acc.Off)
	switch acc.Area {
	case ddg.AreaStack:
		addr := vm.StackTopAddr + off
		return func(*Machine) (uint64, error) { return addr, nil }, nil
	case ddg.AreaPacket:
		return func(m *Machine) (uint64, error) {
			return vm.PacketBase + uint64(m.st.Pkt.HeadIndex()) + off, nil
		}, nil
	case ddg.AreaCtx:
		addr := vm.CtxBase + off
		return func(*Machine) (uint64, error) { return addr, nil }, nil
	case ddg.AreaMap:
		id := op.MapID
		return func(m *Machine) (uint64, error) {
			base := m.lookupAddr[id]
			if base == 0 {
				return 0, vm.ErrNoLookup
			}
			return base + off, nil
		}, nil
	}
	return nil, fmt.Errorf("unresolvable access area %v", acc.Area)
}

// compileMapCall specializes a map helper: the key (and value) come
// from their static stack slots as aliasing slices — no copy — or
// through the argument registers; the handle registration reuses the
// interpreter's address table so R0 is bit-identical to hwsim's.
func compileMapCall(pl *core.Pipeline, op *core.Op, fall int) (func(m *Machine) error, error) {
	if op.MapID < 0 || op.MapID >= len(pl.Transformed.Maps) {
		return nil, fmt.Errorf("map call references undeclared map %d", op.MapID)
	}
	spec := pl.Transformed.Maps[op.MapID]
	id := op.MapID
	name := spec.Name

	keyFn, err := compileHelperArg(op.KeyOffKnown, op.KeyStackOff, ebpf.R2, spec.KeySize)
	if err != nil {
		return nil, fmt.Errorf("map %q key: %w", name, err)
	}

	switch op.Helper {
	case ebpf.HelperMapLookupElem:
		if op.KeyOffKnown {
			// The key sits in a static stack slot: the fetch is an
			// aliasing slice with compile-time bounds, no closure call
			// and no error path on the per-packet lookup.
			lo := int(op.KeyStackOff) + ebpf.StackSize
			ks := spec.KeySize
			if lo < 0 || lo+ks > ebpf.StackSize {
				return nil, fmt.Errorf("map %q key: static stack slot [%d,%d) out of frame",
					name, op.KeyStackOff, op.KeyStackOff+int64(ks))
			}
			return func(m *Machine) error {
				key := m.st.Stack[lo : lo+ks : lo+ks]
				var addr uint64
				var val []byte
				if v, ok := m.mapsByID[id].Lookup(key); ok {
					addr = m.mem.ValueAddressBytes(id, key, v)
					val = v
				}
				m.lookupAddr[id] = addr
				m.lookupVal[id] = val
				m.st.Regs[ebpf.R0] = addr
				m.scratchArgs()
				if fall >= 0 {
					m.enable(fall)
				}
				return nil
			}, nil
		}
		return func(m *Machine) error {
			key, err := keyFn(m)
			if err != nil {
				return fmt.Errorf("map %q key: %w", name, err)
			}
			var addr uint64
			var val []byte
			if v, ok := m.mapsByID[id].Lookup(key); ok {
				addr = m.mem.ValueAddressBytes(id, key, v)
				val = v
			}
			m.lookupAddr[id] = addr
			m.lookupVal[id] = val
			m.st.Regs[ebpf.R0] = addr
			m.scratchArgs()
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}, nil

	case ebpf.HelperMapUpdateElem:
		valFn, err := compileHelperArg(op.ValOffKnown, op.ValStackOff, ebpf.R3, spec.ValueSize)
		if err != nil {
			return nil, fmt.Errorf("map %q value: %w", name, err)
		}
		return func(m *Machine) error {
			key, err := keyFn(m)
			if err != nil {
				return fmt.Errorf("map %q key: %w", name, err)
			}
			val, err := valFn(m)
			if err != nil {
				return fmt.Errorf("map %q value: %w", name, err)
			}
			flags := maps.UpdateFlag(m.st.Regs[ebpf.R4])
			var r0 uint64
			if err := m.mapsByID[id].Update(key, val, flags); err != nil {
				r0 = ^uint64(0)
			}
			m.st.Regs[ebpf.R0] = r0
			m.scratchArgs()
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}, nil

	case ebpf.HelperMapDeleteElem:
		return func(m *Machine) error {
			key, err := keyFn(m)
			if err != nil {
				return fmt.Errorf("map %q key: %w", name, err)
			}
			var r0 uint64
			if err := m.mapsByID[id].Delete(key); err != nil {
				r0 = ^uint64(0)
			}
			m.st.Regs[ebpf.R0] = r0
			m.scratchArgs()
			if fall >= 0 {
				m.enable(fall)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unsupported map helper %s", op.Helper.Name())
}

// compileHelperArg builds the fetch of a helper pointer argument. The
// static-slot case is validated here and becomes a bounds-check-free
// aliasing slice of the stack frame; maps copy what they retain, so the
// alias never escapes a call.
func compileHelperArg(known bool, off int64, reg ebpf.Register, size int) (func(m *Machine) ([]byte, error), error) {
	if known {
		lo := int(off) + ebpf.StackSize
		if lo < 0 || lo+size > ebpf.StackSize {
			return nil, fmt.Errorf("static stack slot [%d,%d) out of frame", off, off+int64(size))
		}
		return func(m *Machine) ([]byte, error) {
			return m.st.Stack[lo : lo+size : lo+size], nil
		}, nil
	}
	return func(m *Machine) ([]byte, error) {
		return m.bytesAt(m.st.Regs[reg], size)
	}, nil
}
