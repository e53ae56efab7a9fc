// Command ehdl turns eBPF/XDP programs into hardware designs and runs
// them: one command with five subcommands.
//
// Usage:
//
//	ehdl compile -app router -report -o router.vhd   # VHDL design + pipeline report
//	ehdl dis -obj prog.o                             # disassemble (or assemble with -o)
//	ehdl sim -app firewall -packets 20000            # the simulated NIC under load
//	ehdl fleet -devices 8 -epochs 20                 # a fleet of NICs behind one control plane
//	ehdl tables -exp fig9a                           # the paper's tables and figures
//
// `ehdl <subcommand> -h` lists a subcommand's flags. compile and dis
// take their program from -app, -src or -obj; sim and fleet run a
// bundled -app, whose traffic profile and map setup they need.
//
// Exit status: 0 on success, 1 on a usage or configuration error; sim
// and fleet add their own codes (see their files).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ehdl/internal/apps"
	"ehdl/internal/asm"
	"ehdl/internal/ebpf"
	elfobj "ehdl/internal/elf"
	"ehdl/internal/obs"
)

// subcommand is one verb of the command: it declares its flags on a
// flag set, then runs on the positional arguments left after them.
type subcommand interface {
	declare(fs *flag.FlagSet)
	run(args []string, stdout, stderr io.Writer) int
}

// commands lists the subcommands in the order -h prints them.
var commands = []struct {
	name, about string
	new         func() subcommand
}{
	{"compile", "compile a program to a VHDL pipeline and report its geometry", func() subcommand { return new(compileCmd) }},
	{"dis", "disassemble a program, or write it as bytecode or an ELF object", func() subcommand { return new(disCmd) }},
	{"sim", "run a bundled application in the simulated NIC under generated traffic", func() subcommand { return new(simCmd) }},
	{"fleet", "run a fleet of simulated NICs behind the control plane", func() subcommand { return new(fleetCmd) }},
	{"tables", "regenerate the paper's tables and figures", func() subcommand { return new(tablesCmd) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args[0] to its subcommand.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" {
		fmt.Fprintln(stderr, "usage: ehdl <subcommand> [flags]; ehdl <subcommand> -h lists its flags")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.about)
		}
		if len(args) == 0 {
			return 1
		}
		return 0
	}
	cmd, fs, err := parse(args[0], args[1:], stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 1
	}
	return cmd.run(fs.Args(), stdout, stderr)
}

// parse builds the named subcommand and parses its flags. A parse
// error has already been printed to stderr.
func parse(name string, args []string, stderr io.Writer) (subcommand, *flag.FlagSet, error) {
	for _, c := range commands {
		if c.name != name {
			continue
		}
		cmd := c.new()
		fs := flag.NewFlagSet("ehdl "+name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		cmd.declare(fs)
		return cmd, fs, fs.Parse(args)
	}
	err := fmt.Errorf("unknown subcommand %q (want one of %s)", name, strings.Join(commandNames(), ", "))
	fmt.Fprintln(stderr, err)
	return nil, nil, err
}

func commandNames() []string {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	return names
}

// loader is the one program loader: a bundled application, an
// assembly file or an ELF object.
type loader struct {
	app, src, obj, section string
}

// declare registers -app with its default; files adds -src, -obj and
// -section, which only the subcommands that need no bundled traffic
// profile or map setup take.
func (l *loader) declare(fs *flag.FlagSet, defaultApp string, files bool) {
	fs.StringVar(&l.app, "app", defaultApp, "bundled application (firewall|router|tunnel|dnat|suricata|loadbalancer|toy|leakybucket)")
	if files {
		fs.StringVar(&l.src, "src", "", "assembly source file (alternative to -app)")
		fs.StringVar(&l.obj, "obj", "", "eBPF ELF object file, e.g. clang -target bpf output")
		fs.StringVar(&l.section, "section", "", "program section inside -obj (default: the only one); a section the object lacks is an error")
	}
}

// bundled returns the -app application.
func (l *loader) bundled() (*apps.App, error) {
	app, ok := apps.ByName(l.app)
	if !ok {
		return nil, fmt.Errorf("unknown application %q", l.app)
	}
	return app, nil
}

// load returns the program of exactly one of -app, -src and -obj.
func (l *loader) load() (*ebpf.Program, error) {
	count := 0
	for _, set := range []bool{l.app != "", l.src != "", l.obj != ""} {
		if set {
			count++
		}
	}
	switch {
	case count > 1:
		return nil, fmt.Errorf("use exactly one of -app, -src, -obj")
	case l.section != "" && l.obj == "":
		return nil, fmt.Errorf("-section names a program inside -obj")
	case l.obj != "":
		obj, err := elfobj.LoadFile(l.obj)
		if err != nil {
			return nil, err
		}
		return obj.Program(l.section)
	case l.app != "":
		app, err := l.bundled()
		if err != nil {
			return nil, err
		}
		return app.Program()
	case l.src != "":
		src, err := os.ReadFile(l.src)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(l.src, string(src))
	default:
		return nil, fmt.Errorf("-app, -src or -obj is required (try -app toy)")
	}
}

// profiling is the host-profiling flag set of the long-running
// subcommands.
type profiling struct {
	cfg obs.ProfileConfig
}

func (p *profiling) declare(fs *flag.FlagSet) {
	fs.StringVar(&p.cfg.HTTPAddr, "pprof", "", "serve net/http/pprof on this address for live profiling")
	fs.StringVar(&p.cfg.CPUFile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.cfg.MemFile, "memprofile", "", "write a heap profile to this file when the run stops")
	fs.StringVar(&p.cfg.TraceFile, "runtime-trace", "", "write a runtime/trace execution trace to this file")
}

// start starts the requested profiles; stop ends them, reporting its
// own failure to stderr.
func (p *profiling) start(stderr io.Writer) (stop func(), err error) {
	if !p.cfg.Enabled() {
		return func() {}, nil
	}
	end, addr, err := obs.StartProfiles(p.cfg)
	if err != nil {
		return nil, err
	}
	if addr != "" {
		fmt.Fprintf(stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	return func() {
		if err := end(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}, nil
}

// openTrace creates an event-trace file: compact text when its name
// ends in .txt, JSONL otherwise. done flushes and closes it.
func openTrace(path string) (tr *obs.Tracer, done func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	var sink obs.Sink = obs.NewJSONLSink(f)
	if strings.HasSuffix(path, ".txt") {
		sink = obs.NewTextSink(f)
	}
	tr = obs.NewTracer(0, sink)
	return tr, func() error {
		return errors.Join(tr.Flush(), f.Close())
	}, nil
}

// fail reports a runtime or configuration error: exit status 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}

// usage reports a bad flag combination: exit status 1.
func usage(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "usage error: %v (see -h)\n", err)
	return 1
}
