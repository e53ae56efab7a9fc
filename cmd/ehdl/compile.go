package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hdl"
	"ehdl/internal/pktgen"
	"ehdl/internal/vm"
)

// compileCmd is the compiler front end: a program in, the VHDL design
// and a pipeline report out.
//
//	ehdl compile -app router -o router.vhd
//	ehdl compile -src prog.asm -report
//	ehdl compile -app toy -report -no-pruning
type compileCmd struct {
	prog        loader
	out, tb     string
	report, dis bool
	opts        core.Options
}

func (c *compileCmd) declare(fs *flag.FlagSet) {
	c.prog.declare(fs, "", true)
	fs.StringVar(&c.out, "o", "", "write the generated VHDL here (default: stdout summary only)")
	fs.StringVar(&c.tb, "tb", "", "also write a self-checking VHDL testbench here")
	fs.BoolVar(&c.report, "report", false, "print the pipeline report")
	fs.BoolVar(&c.dis, "disasm", false, "print the transformed program's bytecode")
	fs.IntVar(&c.opts.FrameBytes, "frame", 64, "packet frame size in bytes")
	fs.BoolVar(&c.opts.DisablePruning, "no-pruning", false, "disable state pruning (Section 5.4 ablation)")
	fs.BoolVar(&c.opts.DisableILP, "no-ilp", false, "schedule one instruction per stage")
	fs.BoolVar(&c.opts.DisableFusion, "no-fusion", false, "disable instruction fusion")
	fs.BoolVar(&c.opts.DisableBoundsElision, "no-bounds-elision", false, "keep explicit packet bounds checks")
	fs.BoolVar(&c.opts.DisableAtomics, "no-atomics", false, "lower atomics to flush-protected accesses")
}

func (c *compileCmd) run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		return usage(stderr, fmt.Errorf("unexpected arguments %q", args))
	}
	prog, err := c.prog.load()
	if err != nil {
		return fail(stderr, err)
	}
	pl, err := core.Compile(prog, c.opts)
	if err != nil {
		return fail(stderr, err)
	}

	if c.out != "" {
		if err := os.WriteFile(c.out, []byte(hdl.Generate(pl)), 0o644); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", c.out)
	}
	if c.tb != "" {
		stimuli, err := buildStimuli(prog)
		if err != nil {
			return fail(stderr, err)
		}
		if err := os.WriteFile(c.tb, []byte(hdl.GenerateTestbench(pl, stimuli)), 0o644); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d stimuli from the reference interpreter)\n", c.tb, len(stimuli))
	}
	printSummary(stdout, pl)
	if c.dis {
		fmt.Fprintln(stdout, "\ntransformed bytecode:")
		fmt.Fprint(stdout, ebpf.Disassemble(pl.Transformed.Instructions))
	}
	if c.report {
		printPipeline(stdout, pl)
	}
	return 0
}

// buildStimuli runs a handful of representative packets through the
// reference interpreter so the testbench asserts golden verdicts.
func buildStimuli(prog *ebpf.Program) ([]hdl.Stimulus, error) {
	env, err := vm.NewEnv(prog)
	if err != nil {
		return nil, err
	}
	env.Now = func() uint64 { return 0 }
	m, err := vm.New(prog, env)
	if err != nil {
		return nil, err
	}
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 8, PacketLen: 64, Seed: 1})
	var stimuli []hdl.Stimulus
	for i := 0; i < 8; i++ {
		data := gen.Next()
		res, err := m.Run(vm.NewPacket(data))
		if err != nil {
			return nil, err
		}
		stimuli = append(stimuli, hdl.Stimulus{Packet: data, Verdict: uint8(res.Action)})
	}
	return stimuli, nil
}

func printSummary(w io.Writer, pl *core.Pipeline) {
	maxILP, avgILP := pl.ILP()
	fmt.Fprintf(w, "program %q: %d instructions -> %d pipeline stages\n",
		pl.Prog.Name, len(pl.Prog.Instructions), pl.NumStages())
	fmt.Fprintf(w, "  transformations: %d bounds checks elided, %d instructions removed, %d fused pairs\n",
		pl.ElidedBoundsChecks, pl.RemovedInstructions, pl.FusedPairs)
	fmt.Fprintf(w, "  ILP: max %d, avg %.2f; framing NOPs: %d\n", maxILP, avgILP, pl.FramingNOPs)
	res := hdl.EstimateDesign(pl)
	pct := res.PercentOf(hdl.AlveoU50())
	fmt.Fprintf(w, "  estimated resources (incl. Corundum shell): %d LUT (%.2f%%), %d FF (%.2f%%), %d BRAM36 (%.2f%%)\n",
		res.LUTs, pct.LUT, res.FFs, pct.FF, res.BRAM36, pct.BRAM)
}

func printPipeline(w io.Writer, pl *core.Pipeline) {
	fmt.Fprintln(w, "\npipeline stages:")
	for s := range pl.Stages {
		st := &pl.Stages[s]
		fmt.Fprintf(w, "  stage %3d [%-11s] regs=%d stack=%dB", s, st.Kind, st.CarryRegCount(), st.CarryStackBytes())
		for i := range st.Ops {
			fmt.Fprintf(w, "  | %s", st.Ops[i].Ins)
			for _, f := range st.Ops[i].Fused {
				fmt.Fprintf(w, " + %s", f)
			}
		}
		fmt.Fprintln(w)
	}
	if len(pl.Maps) > 0 {
		fmt.Fprintln(w, "\nmap blocks:")
		for i := range pl.Maps {
			mb := &pl.Maps[i]
			fmt.Fprintf(w, "  %s (%v): reads@%v writes@%v atomics@%v",
				mb.Spec.Name, mb.Spec.Kind, mb.ReadStages, mb.WriteStages, mb.AtomicStages)
			if mb.NeedsFlush {
				fmt.Fprintf(w, "  flush: L=%d K=%d from=%d", mb.L, mb.K, mb.FlushFromStage)
			}
			if mb.UsesAtomics {
				fmt.Fprintf(w, "  atomic primitive")
			}
			if mb.WARDepth > 0 {
				fmt.Fprintf(w, "  WAR depth=%d", mb.WARDepth)
			}
			fmt.Fprintln(w)
		}
	}
}
