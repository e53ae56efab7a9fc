// Package conformance is the differential test surface across the three
// execution engines: every evaluation application runs the same seeded
// traffic through the reference interpreter (internal/vm), the
// cycle-accurate pipeline simulator (internal/hwsim) and the compiled
// host fast path (internal/fastpath), and all of them must agree bit
// for bit on verdicts, packet bytes and final map state.
//
// The architectural contract that makes this possible: the engines
// share the instruction semantics (internal/vm), the map
// substrate (internal/maps) and the helper surface, and all pin the
// helper-visible clock to zero here, so a divergence is always a
// pipelining or specialization bug (hazard handling, state pruning,
// predication, closure compilation), never an environmental artefact.
package conformance

import (
	"bytes"
	"fmt"

	"ehdl/internal/apps"
	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/fastpath"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/vm"
)

// Config parameterises one differential run.
type Config struct {
	// opts is the compiler configuration for the pipeline side.
	opts core.Options
	// sim is the simulator configuration. The clock is pinned to zero
	// regardless, matching the reference side.
	sim hwsim.Config
	// maxCycles bounds the pipeline drain. 0 means 1<<22.
	maxCycles uint64
}

func (c Config) drainLimit() uint64 {
	if c.maxCycles == 0 {
		return 1 << 22
	}
	return c.maxCycles
}

// Outcome is one packet's result on one engine.
type Outcome struct {
	Action          ebpf.XDPAction
	RedirectIfindex uint32
	Data            []byte
}

// DiffAppThreeWay assembles an application and diffs it on the given
// traffic: reference VM against interpreter and, where cfg is eligible
// for it, against the compiled fast path.
func DiffAppThreeWay(a *apps.App, packets [][]byte, cfg Config) error {
	prog, err := a.Program()
	if err != nil {
		return err
	}
	return diffProgram(prog, a.SetupHost, packets, cfg)
}

// diffProgram runs packets through the reference interpreter and every
// engine that can serve cfg, all engines on one compiled design, and
// returns an error describing the first divergence from the reference:
// verdicts, redirect targets, packet bytes and the final map state must
// all be identical.
func diffProgram(prog *ebpf.Program, setup func(*maps.Set) error, packets [][]byte, cfg Config) error {
	refs, refMaps, err := runReference(prog, setup, packets)
	if err != nil {
		return fmt.Errorf("conformance: reference: %w", err)
	}
	pl, err := core.Compile(prog, cfg.opts)
	if err != nil {
		return fmt.Errorf("conformance: compile: %w", err)
	}
	leg := func(name string, build engine) error {
		outs, got, err := runEngine(pl, build, setup, packets, cfg)
		if err != nil {
			return fmt.Errorf("conformance: %s: %w", name, err)
		}
		for i := range packets {
			if err := CompareOutcome(outs[i], refs[i]); err != nil {
				return fmt.Errorf("conformance: %s vs reference: packet %d (%dB): %w", name, i, len(packets[i]), err)
			}
		}
		if err := CompareMaps(refMaps, got); err != nil {
			return fmt.Errorf("conformance: %s vs reference: %w", name, err)
		}
		return nil
	}
	if err := leg("pipeline", interpreter); err != nil {
		return err
	}
	if ok, _ := fastpath.Eligible(cfg.sim); !ok {
		return nil
	}
	return leg("fastpath", fastPath)
}

// CompareOutcome diffs one packet's result against the reference:
// verdict, redirect target and final packet bytes must all match. The
// live-update canary uses it packet by packet to judge the shadow
// pipeline against a reference interpreter running the new program.
func CompareOutcome(got, ref Outcome) error {
	if got.Action != ref.Action {
		return fmt.Errorf("action %v, reference %v", got.Action, ref.Action)
	}
	if got.RedirectIfindex != ref.RedirectIfindex {
		return fmt.Errorf("redirect ifindex %d, reference %d", got.RedirectIfindex, ref.RedirectIfindex)
	}
	if !bytes.Equal(got.Data, ref.Data) {
		return fmt.Errorf("packet bytes diverge")
	}
	return nil
}

// runReference executes every packet on the interpreter, in order, over
// one shared environment (maps persist across packets, as on the NIC).
func runReference(prog *ebpf.Program, setup func(*maps.Set) error, packets [][]byte) ([]Outcome, *maps.Set, error) {
	env, err := vm.NewEnv(prog)
	if err != nil {
		return nil, nil, err
	}
	env.Now = func() uint64 { return 0 }
	if setup != nil {
		if err := setup(env.Maps); err != nil {
			return nil, nil, err
		}
	}
	machine, err := vm.New(prog, env)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]Outcome, len(packets))
	for i, data := range packets {
		p := vm.NewPacket(data)
		res, err := machine.Run(p)
		if err != nil {
			return nil, nil, fmt.Errorf("packet %d: %w", i, err)
		}
		outs[i] = Outcome{
			Action:          res.Action,
			RedirectIfindex: res.RedirectIfindex,
			Data:            append([]byte(nil), p.Bytes()...),
		}
	}
	return outs, env.Maps, nil
}

// engine builds one execution engine on a compiled design.
type engine func(*core.Pipeline, hwsim.Config) (hwsim.Core, error)

// interpreter is the cycle-accurate simulator; fastPath is the compiled
// host fast path.
func interpreter(pl *core.Pipeline, cfg hwsim.Config) (hwsim.Core, error) { return hwsim.New(pl, cfg) }
func fastPath(pl *core.Pipeline, cfg hwsim.Config) (hwsim.Core, error)    { return fastpath.New(pl, cfg) }

// runEngine executes every packet on the engine build makes of pl, with
// input backpressure like a paced generator, so every engine sees the
// same injection schedule.
func runEngine(pl *core.Pipeline, build engine, setup func(*maps.Set) error, packets [][]byte, cfg Config) ([]Outcome, *maps.Set, error) {
	eng, err := build(pl, cfg.sim)
	if err != nil {
		return nil, nil, err
	}
	eng.SetClock(func() uint64 { return 0 })
	eng.KeepData(true)
	if setup != nil {
		if err := setup(eng.Maps()); err != nil {
			return nil, nil, err
		}
	}
	outs := make([]Outcome, len(packets))
	seen := make([]bool, len(packets))
	completed := 0
	eng.OnComplete(func(res hwsim.Result) {
		if res.Seq < uint64(len(outs)) && !seen[res.Seq] {
			seen[res.Seq] = true
			outs[res.Seq] = Outcome{
				Action:          res.Action,
				RedirectIfindex: res.RedirectIfindex,
				Data:            res.Data,
			}
			completed++
		}
	})
	for i, data := range packets {
		for !eng.InputFree() {
			if err := eng.Step(); err != nil {
				return nil, nil, fmt.Errorf("packet %d: %w", i, err)
			}
		}
		eng.Inject(data)
		if err := eng.Step(); err != nil {
			return nil, nil, fmt.Errorf("packet %d: %w", i, err)
		}
	}
	if err := eng.RunToCompletion(cfg.drainLimit()); err != nil {
		return nil, nil, err
	}
	if completed != len(packets) {
		return nil, nil, fmt.Errorf("%d of %d packets completed", completed, len(packets))
	}
	return outs, eng.Maps(), nil
}

// CompareMaps compares two map sets entry by entry, got against ref.
func CompareMaps(ref, got *maps.Set) error {
	if ref.Len() != got.Len() {
		return fmt.Errorf("conformance: %d maps, reference %d", got.Len(), ref.Len())
	}
	for id := 0; id < ref.Len(); id++ {
		rm, _ := ref.ByID(id)
		gm, _ := got.ByID(id)
		if rm.Len() != gm.Len() {
			return fmt.Errorf("conformance: map %d (%s): %d entries, reference %d",
				id, rm.Spec().Name, gm.Len(), rm.Len())
		}
		var diff error
		rm.Iterate(func(k, v []byte) bool {
			gv, ok := gm.Lookup(k)
			if !ok || !bytes.Equal(gv, v) {
				diff = fmt.Errorf("conformance: map %d (%s) key %x: %x, reference %x",
					id, rm.Spec().Name, k, gv, v)
				return false
			}
			return true
		})
		if diff != nil {
			return diff
		}
	}
	return nil
}
