// The module's surface census: every exported name under internal/ — a
// top-level name, a method or a struct field of an exported type — is
// used by another package's non-test code (cmd/ and bench/ count; the
// examples/ walk-throughs are tests), or it is on the allow-list below
// with a class this test checks, or it is a method every type may have
// (String, Error, Unwrap, a JSON or text marshaller). A new unused export, a stale entry and an
// entry without a known class all fail. The docs test on the same
// type-check holds every backticked `pkg.Name` in the design documents
// to code that exists.
package ehdl

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// surfaceAllow lists the exported names no other package's non-test
// code uses, keyed "pkg.Name" or "pkg.Type.Member" (pkg relative to
// internal/), each with its class:
//   - enum: a member of a const block whose type is on the surface
//     (used outside, or itself on this list);
//   - test-support: used by another package's _test.go;
//   - returned: a type that something on the surface mentions: the
//     signature of a function or of a method of its type, a field of
//     an exported struct, a constant of that type. For a member: its
//     type is reachable from the results of an exported function or
//     method on the surface (directly or through the exported fields of
//     such a result). "pkg.Type.*" covers every member of such a type,
//     except for a *Config, *Options, *Spec or Model type, whose
//     unused fields are knobs and are listed one by one;
//   - implements: a method that an interface of another package, or of
//     the standard library, has and that its type satisfies;
//   - reference: a model or oracle the tests compare against.
var surfaceAllow = map[string]string{
	"analytic.FlushProbUniform": "reference",
	"analytic.FlushProbZipf":    "reference",
	"analytic.Table3Row":        "returned",
	"analytic.Table4Row":        "returned",
	"analytic.Throughput":       "reference",

	"apps.BypassCounters": "test-support",
	"apps.BypassFlow":     "test-support",
	"apps.DNAT":           "test-support",
	"apps.LoadBalancer":   "test-support",
	"apps.Router":         "test-support",
	"apps.Suricata":       "test-support",

	"asm.Builder":            "test-support",
	"asm.Builder.DeclareMap": "test-support",
	"asm.Builder.Emit":       "test-support",
	"asm.Builder.GotoLabel":  "test-support",
	"asm.Builder.JumpRegTo":  "test-support",
	"asm.Builder.JumpTo":     "test-support",
	"asm.Builder.Label":      "test-support",
	"asm.Builder.Program":    "test-support",
	"asm.NewBuilder":         "test-support",

	"baseline/bluefield.Model":    "returned",
	"baseline/bluefield.Report":   "returned",
	"baseline/bluefield.Report.*": "returned",

	"baseline/hxdp.Model":    "returned",
	"baseline/hxdp.Report":   "returned",
	"baseline/hxdp.Report.*": "returned",

	"baseline/sdnet.Design":              "returned",
	"baseline/sdnet.Design.*":            "returned",
	"baseline/sdnet.ErrNotExpressible":   "test-support",
	"baseline/sdnet.TableSpec":           "returned",
	"baseline/sdnet.TableSpec.Entries":   "returned",
	"baseline/sdnet.TableSpec.KeyBits":   "returned",
	"baseline/sdnet.TableSpec.Name":      "returned",
	"baseline/sdnet.TableSpec.ValueBits": "returned",

	"cfg.Block":   "returned",
	"cfg.Block.*": "returned",

	"conformance.StalePointerFrames": "test-support",
	"conformance.StalePointerZoo":    "test-support",

	"core.BlockInfo":            "returned",
	"core.BlockInfo.FirstStage": "test-support",
	"core.Op.FusedIdx":          "test-support",
	"core.Op.Index":             "test-support",
	"core.Op.InstructionCount":  "test-support",
	"core.OpKind":               "test-support",
	"core.SharingFlow":          "enum",
	"core.Stage":                "returned",
	"core.StageNormal":          "enum",

	"ddg.Access.*": "returned",
	"ddg.AreaNone": "test-support",
	"ddg.ArgLoc":   "returned",
	"ddg.MemArea":  "returned",

	"durable.Decode":        "test-support",
	"durable.EncodeHeader":  "test-support",
	"durable.EncodeRecord":  "test-support",
	"durable.MetricAppends": "test-support",
	"durable.MetricCommits": "test-support",

	"ebpf.ALU32Imm":                "test-support",
	"ebpf.ALU32Reg":                "test-support",
	"ebpf.ALU64Imm":                "test-support",
	"ebpf.ALU64Reg":                "test-support",
	"ebpf.EthPARP":                 "test-support",
	"ebpf.EthPIPV6":                "test-support",
	"ebpf.HelperFibLookup":         "enum",
	"ebpf.HelperGetSocketCookie":   "enum",
	"ebpf.HelperLoopHelper":        "enum",
	"ebpf.HelperMapLookupPercpuEl": "enum",
	"ebpf.HelperSpinLock":          "enum",
	"ebpf.HelperSpinUnlock":        "enum",
	"ebpf.HelperUnspec":            "enum",
	"ebpf.IPProtoIPIP":             "test-support",
	"ebpf.Jump32ImmOp":             "test-support",
	"ebpf.Mode":                    "returned",
	"ebpf.ModeABS":                 "enum",
	"ebpf.ModeIMM":                 "enum",
	"ebpf.ModeIND":                 "enum",
	"ebpf.ModeMEM":                 "enum",
	"ebpf.Mov32Imm":                "test-support",
	"ebpf.Mov32Reg":                "test-support",
	"ebpf.Mov64Imm":                "test-support",
	"ebpf.Mov64Reg":                "test-support",
	"ebpf.Neg64":                   "test-support",
	"ebpf.PseudoMapValue":          "enum",
	"ebpf.PseudoReg":               "enum",
	"ebpf.R6":                      "enum",
	"ebpf.R7":                      "enum",
	"ebpf.R8":                      "enum",
	"ebpf.R9":                      "enum",
	"ebpf.XDPPass":                 "enum",
	"ebpf.XDPTx":                   "enum",

	"elf.Object":   "returned",
	"elf.Object.*": "returned",

	"experiments.Runner":  "returned",
	"experiments.Table":   "returned",
	"experiments.Table.*": "returned",

	"fastpath.Machine":                 "test-support",
	"fastpath.Machine.Busy":            "implements",
	"fastpath.Machine.Cycle":           "implements",
	"fastpath.Machine.Inject":          "implements",
	"fastpath.Machine.InputFree":       "implements",
	"fastpath.Machine.KeepData":        "implements",
	"fastpath.Machine.Maps":            "implements",
	"fastpath.Machine.OnComplete":      "implements",
	"fastpath.Machine.RunToCompletion": "implements",
	"fastpath.Machine.SetClock":        "implements",
	"fastpath.Machine.Stats":           "implements",
	"fastpath.Machine.Step":            "implements",
	"fastpath.Machine.Window":          "implements",

	"faults.Classes":                 "test-support",
	"faults.Config.BurstLen":         "returned",
	"faults.Config.FlushStormRate":   "returned",
	"faults.Config.MalformRate":      "returned",
	"faults.Config.OverflowBurstLen": "returned",
	"faults.Config.OverflowRate":     "returned",
	"faults.Config.Rate":             "returned",
	"faults.Config.SEUMapEntryRate":  "returned",
	"faults.Config.SEUPacketRate":    "returned",
	"faults.Config.SEURegisterRate":  "returned",
	"faults.Config.SEUStackRate":     "returned",
	"faults.Config.Seed":             "returned",
	"faults.Counters.Total":          "test-support",
	"faults.NumClasses":              "enum",

	"fleet.DeviceStatus":   "returned",
	"fleet.RecoveryInfo":   "returned",
	"fleet.RecoveryInfo.*": "returned",
	"fleet.Report.*":       "returned",

	"hdl.Device":      "returned",
	"hdl.Device.*":    "returned",
	"hdl.Percent":     "returned",
	"hdl.Resources.*": "returned",

	"hwsim.FrameRun":       "returned",
	"hwsim.Result.*":       "returned",
	"hwsim.Sim.Busy":       "implements",
	"hwsim.Sim.Cycle":      "implements",
	"hwsim.Sim.KeepData":   "implements",
	"hwsim.Sim.OnComplete": "implements",
	"hwsim.Sim.SetClock":   "implements",
	"hwsim.Sim.Window":     "implements",
	"hwsim.Stats.*":        "returned",

	"liveupdate.CheckCompat":       "test-support",
	"liveupdate.CheckPrograms":     "test-support",
	"liveupdate.CompatError":       "test-support",
	"liveupdate.CompatError.Field": "test-support",
	"liveupdate.CompatError.Map":   "test-support",
	"liveupdate.ErrCanaryDiverged": "test-support",
	"liveupdate.ErrIncompatible":   "test-support",
	"liveupdate.Loop":              "returned",
	"liveupdate.MetricCanaried":    "test-support",
	"liveupdate.MetricHeld":        "test-support",
	"liveupdate.MetricMigrated":    "test-support",
	"liveupdate.Stage":             "returned",
	"liveupdate.StageCanary":       "enum",
	"liveupdate.StageCutover":      "enum",
	"liveupdate.StageGate":         "enum",
	"liveupdate.StageMigrate":      "enum",
	"liveupdate.StageShadow":       "enum",
	"liveupdate.Stats":             "returned",
	"liveupdate.UpdateError":       "returned",
	"liveupdate.UpdateError.*":     "returned",

	"maps.MapEntries":           "returned",
	"maps.Observed":             "returned",
	"maps.Observed.Delete":      "implements",
	"maps.Observed.Iterate":     "implements",
	"maps.Observed.Len":         "implements",
	"maps.Observed.Lookup":      "implements",
	"maps.Observed.LookupSlot":  "implements",
	"maps.Observed.Spec":        "implements",
	"maps.Observed.Update":      "implements",
	"maps.Protected.Delete":     "implements",
	"maps.Protected.Iterate":    "implements",
	"maps.Protected.Len":        "implements",
	"maps.Protected.Lookup":     "implements",
	"maps.Protected.LookupSlot": "implements",
	"maps.Protected.ScrubWord":  "implements",
	"maps.Protected.Spec":       "implements",
	"maps.Protected.Update":     "implements",
	"maps.SetSnapshot.Equal":    "test-support",
	"maps.Synchronized":         "returned",
	"maps.Synchronized.Delete":  "implements",
	"maps.Synchronized.Iterate": "implements",
	"maps.Synchronized.Len":     "implements",
	"maps.Synchronized.Lookup":  "implements",
	"maps.Synchronized.Spec":    "implements",
	"maps.Synchronized.Update":  "implements",
	"maps.UpdateExist":          "enum",
	"maps.UpdateNoExist":        "enum",

	"nic.QueueReport":           "returned",
	"nic.QueueReport.*":         "returned",
	"nic.Report.*":              "returned",
	"nic.Shell.Stats":           "test-support",
	"nic.TenantSlice.Accounted": "test-support",

	"obs.Counter.Value":            "test-support",
	"obs.Histogram.Count":          "test-support",
	"obs.JSONLSink":                "returned",
	"obs.JSONLSink.Flush":          "implements",
	"obs.JSONLSink.Record":         "implements",
	"obs.Kinds":                    "test-support",
	"obs.MemSink":                  "test-support",
	"obs.MemSink.Events":           "test-support",
	"obs.MemSink.Flush":            "implements",
	"obs.MemSink.Record":           "implements",
	"obs.NewMemSink":               "test-support",
	"obs.ParseJSONL":               "test-support",
	"obs.Registry.CounterValue":    "test-support",
	"obs.Registry.HistogramByName": "test-support",
	"obs.TextSink":                 "returned",
	"obs.TextSink.Flush":           "implements",
	"obs.TextSink.Record":          "implements",
	"obs.Tracer.Recent":            "test-support",

	"pktgen.Flow.Reverse":         "test-support",
	"pktgen.Generator.FlowAt":     "test-support",
	"pktgen.Generator.FlowCount":  "test-support",
	"pktgen.MalformBogusIPLen":    "enum",
	"pktgen.MalformKinds":         "test-support",
	"pktgen.MalformOversize":      "enum",
	"pktgen.MalformTruncateEth":   "enum",
	"pktgen.MalformTruncateIP":    "enum",
	"pktgen.MalformTruncateL4":    "enum",
	"pktgen.MalformZeroLength":    "enum",
	"pktgen.PacketSpec.EtherType": "test-support",
	"pktgen.PacketSpec.TTL":       "test-support",
	"pktgen.PacketSpec.VLAN":      "test-support",
	"pktgen.Trace":                "returned",
	"pktgen.TraceProfile.*":       "returned",
	"pktgen.VerifyIPChecksum":     "test-support",

	"protect.SECDED":                   "test-support",
	"protect.SECDED.CheckBytesPerWord": "implements",
	"protect.SECDED.CheckWord":         "implements",
	"protect.SECDED.Encode":            "implements",
	"protect.SECDED.EncodeWord":        "implements",
	"protect.SECDED.Level":             "implements",
	"protect.ScrubStats":               "returned",
	"protect.ScrubStats.*":             "returned",
	"protect.WordCorrected":            "enum",

	"rss.Completion":       "test-support",
	"rss.Completion.Queue": "test-support",
	"rss.Completion.Res":   "test-support",
	"rss.Dispatcher":       "returned",
	"rss.Engine.KeepData":  "test-support",
	"rss.Engine.Steer":     "implements",
	"rss.Indirection":      "returned",
	"rss.Item.*":           "returned",
	"rss.MetricCompleted":  "test-support",

	"tenant.Tenant":            "returned",
	"tenant.Tenant.DeathCause": "returned",
	"tenant.Tenant.Est":        "returned",
	"tenant.Tenant.Spec":       "returned",
	"tenant.TrafficMux":        "returned",

	"vm.MemSpace":          "returned",
	"vm.Packet.AdjustHead": "test-support",
	"vm.Packet.AdjustTail": "test-support",
	"vm.Result":            "returned",
}

// anyType marks the methods every type may have without a caller in
// the module: fmt, errors and the encoders call them.
var anyType = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// knob reports whether a type's exported fields are settings: its name
// ends in Config, Options or Spec, or it is a Model.
func knob(typ string) bool {
	return typ == "Model" || strings.HasSuffix(typ, "Config") || strings.HasSuffix(typ, "Options") || strings.HasSuffix(typ, "Spec")
}

// srcPkg is one directory's Go files, parsed. Its package is
// type-checked as other packages import it (pkg) and, as `go test`
// builds it, with its in-package test files (test); the external test
// package, if any, is checked on its own.
type srcPkg struct {
	files, tests, xtests []*ast.File
	pkg, test            *types.Package
}

// decl is an exported name of an internal package declared outside its
// test files: a top-level object or a member of an exported type.
type decl struct {
	key   string // "pkg.Name" or "pkg.Type.Member"
	dir   string // declaring directory
	obj   types.Object
	owner *types.TypeName // for a member
}

// module is the census's one view of the module: every package
// type-checked, every exported name under internal/, and who uses it.
type module struct {
	fset        *token.FileSet
	pkgs        map[string]*srcPkg         // by directory
	decls       map[string]*decl           // by key
	code, tests map[string]map[string]bool // key -> directories whose code / tests use it (an external test package is dir+"_test")
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// loadModule parses and type-checks the whole module once per test
// binary; the standard library is type-checked from source, offline.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = load() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func load() (*module, error) {
	build.Default.CgoEnabled = false // the pure-Go standard library is enough to type-check against
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*srcPkg{}, decls: map[string]*decl{},
		code: map[string]map[string]bool{}, tests: map[string]map[string]bool{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := m.pkgs[dir]
		if p == nil {
			p = &srcPkg{}
			m.pkgs[dir] = p
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		case strings.HasSuffix(path, "_test.go"):
			p.tests = append(p.tests, f)
		default:
			p.files = append(p.files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(m.fset, "source", nil)
	type checked struct {
		info *types.Info
		user string // the checked directory, dir+"_test" for an external test package
	}
	var all []checked
	var imp importerFunc
	// check type-checks files as path; self, when not nil, is what an
	// import of its own path resolves to.
	check := func(user, path string, files []*ast.File, self *types.Package) (*types.Package, error) {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		all = append(all, checked{info, user})
		with := imp
		if self != nil {
			with = func(path string) (*types.Package, error) {
				if path == self.Path() {
					return self, nil
				}
				return imp(path)
			}
		}
		return (&types.Config{Importer: with}).Check(path, m.fset, files, info)
	}
	imp = func(path string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(path, "ehdl/")
		if !ok {
			return std.Import(path)
		}
		p := m.pkgs[dir]
		if p.pkg == nil {
			var err error
			if p.pkg, err = check(dir, path, p.files, nil); err != nil {
				return nil, err
			}
		}
		return p.pkg, nil
	}
	for dir, p := range m.pkgs {
		if len(p.files) > 0 {
			if _, err := imp("ehdl/" + dir); err != nil {
				return nil, err
			}
		}
		if len(p.tests) > 0 {
			if p.test, err = check(dir, "ehdl/"+dir, append(p.files[:len(p.files):len(p.files)], p.tests...), nil); err != nil {
				return nil, err
			}
		}
		if len(p.xtests) > 0 {
			// An external test package that uses a name only the
			// internal tests declare (the export-for-test idiom) is
			// checked, as go test builds it, against its package with
			// those tests compiled in.
			n := len(all)
			if _, err := check(dir+"_test", "ehdl/"+dir+"_test", p.xtests, nil); err != nil {
				all = all[:n]
				if _, err := check(dir+"_test", "ehdl/"+dir+"_test", p.xtests, p.test); err != nil {
					return nil, err
				}
			}
		}
	}
	m.declare()
	at := map[token.Pos]*decl{}
	for _, d := range m.decls {
		at[d.obj.Pos()] = d
	}
	for _, c := range all {
		use := func(id ast.Node, obj types.Object) {
			d := at[obj.Pos()]
			if d == nil || d.dir == c.user {
				return
			}
			uses := m.code
			if m.isTest(id.Pos()) {
				uses = m.tests
			}
			if uses[d.key] == nil {
				uses[d.key] = map[string]bool{}
			}
			uses[d.key][c.user] = true
		}
		for id, obj := range c.info.Uses {
			use(id, obj)
		}
		// A promoted field or method also uses the embedded fields it is
		// reached through.
		for x, sel := range c.info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem()
				}
				f := typ.Underlying().(*types.Struct).Field(i)
				use(x, f)
				typ = f.Type()
			}
		}
	}
	return m, nil
}

func (m *module) isTest(pos token.Pos) bool {
	return strings.HasSuffix(m.fset.Position(pos).Filename, "_test.go")
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare lists the exported names of internal/: top-level objects,
// and the methods and struct fields of exported types.
func (m *module) declare() {
	for dir, p := range m.pkgs {
		pkg, ok := strings.CutPrefix(dir, "internal/")
		if !ok || p.pkg == nil {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			m.decls[pkg+"."+name] = &decl{key: pkg + "." + name, dir: dir, obj: obj}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			member := func(o types.Object) {
				if o.Exported() {
					key := pkg + "." + name + "." + o.Name()
					m.decls[key] = &decl{key: key, dir: dir, obj: o, owner: tn}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				member(named.Method(i))
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					member(st.Field(i))
				}
			}
		}
	}
}

// named calls f on every named type a type is built from, without
// looking inside the named types themselves.
func named(t types.Type, f func(*types.TypeName)) {
	switch t := t.(type) {
	case *types.Named:
		f(t.Obj())
	case *types.Pointer:
		named(t.Elem(), f)
	case *types.Slice:
		named(t.Elem(), f)
	case *types.Array:
		named(t.Elem(), f)
	case *types.Chan:
		named(t.Elem(), f)
	case *types.Map:
		named(t.Key(), f)
		named(t.Elem(), f)
	case *types.Signature:
		named(t.Params(), f)
		named(t.Results(), f)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			named(t.At(i).Type(), f)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			named(t.Field(i).Type(), f)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			named(t.Method(i).Type(), f)
		}
	}
}

// TestExportedSurface is the census: an exported name that no other
// package's non-test code uses must be unexported, deleted or
// classified on surfaceAllow, and every entry there must still hold.
func TestExportedSurface(t *testing.T) {
	m := loadModule(t)
	external := func(key string) bool { return len(m.code[key]) > 0 }
	wildcard := func(d *decl) string {
		if d.owner == nil {
			return ""
		}
		return d.key[:strings.LastIndex(d.key, ".")] + ".*"
	}
	surface := func(key string) bool {
		d := m.decls[key]
		return external(key) || surfaceAllow[key] != "" ||
			d != nil && d.owner != nil && (surfaceAllow[wildcard(d)] != "" || anyType[d.obj.Name()] && isMethod(d.obj))
	}

	// mentions: for each named type, the top-level names on the surface
	// whose declaration mentions it. results: the types reachable from
	// what the exported functions and methods on the surface hand back
	// (their results, and the arguments of the callbacks they take),
	// through the exported fields of a struct and the results of a
	// function type.
	mentions := map[*types.TypeName][]string{}
	results := map[*types.TypeName]bool{}
	var reach func(*types.TypeName)
	handBack := func(sig *types.Signature) {
		named(sig.Results(), reach)
		for i := 0; i < sig.Params().Len(); i++ {
			if cb, ok := sig.Params().At(i).Type().(*types.Signature); ok {
				named(cb.Params(), reach)
			}
		}
	}
	reach = func(tn *types.TypeName) {
		if results[tn] {
			return
		}
		results[tn] = true
		switch u := tn.Type().Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() {
					named(u.Field(i).Type(), reach)
				}
			}
		case *types.Signature:
			handBack(u)
		}
	}
	for key, d := range m.decls {
		top := key
		if d.owner != nil {
			top = key[:strings.LastIndex(key, ".")]
		}
		mention := func(typ types.Type) {
			named(typ, func(tn *types.TypeName) { mentions[tn] = append(mentions[tn], top) })
		}
		switch o := d.obj.(type) {
		case *types.Func:
			mention(o.Type())
			if surface(key) {
				handBack(o.Type().(*types.Signature))
			}
		case *types.TypeName:
			if _, ok := o.Type().Underlying().(*types.Struct); !ok {
				mention(o.Type().Underlying())
			}
		default:
			mention(o.Type())
		}
	}

	var unused []string
	counts := map[string]int{}
	for key, d := range m.decls {
		switch {
		case d.owner == nil:
			counts["top-level names"]++
		case isMethod(d.obj):
			counts["methods"]++
		default:
			counts["fields"]++
			if knob(d.owner.Name()) {
				counts["settable fields on *Config/*Options/*Spec/Model"]++
			}
		}
		if !surface(key) {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no other package's code uses it: unexport it, delete it or classify it in surfaceAllow", key)
	}

	ifaces := m.interfaces()
	for key, class := range surfaceAllow {
		counts["allow "+class]++
		if typ, ok := strings.CutSuffix(key, ".*"); ok {
			var tn *types.TypeName
			if d := m.decls[typ]; d != nil {
				tn, _ = d.obj.(*types.TypeName)
			}
			switch {
			case tn == nil:
				t.Errorf("surfaceAllow: %s names no exported type", key)
			case class != "returned":
				t.Errorf("surfaceAllow: %s has class %q, but a wildcard can only be returned", key, class)
			case knob(tn.Name()):
				t.Errorf("surfaceAllow: %s is a wildcard over a settings type: list its unused fields one by one", key)
			case !results[tn]:
				t.Errorf("surfaceAllow: %s is no longer returned", key)
			case !m.needsWildcard(key, external):
				t.Errorf("surfaceAllow: every member of %s is used outside: drop the entry", key)
			}
			continue
		}
		d := m.decls[key]
		switch {
		case d == nil:
			t.Errorf("surfaceAllow: %s is not an exported name", key)
			continue
		case external(key):
			t.Errorf("surfaceAllow: %s is used by %v: drop the entry", key, keys(m.code[key]))
			continue
		case d.owner != nil && surfaceAllow[wildcard(d)] != "":
			t.Errorf("surfaceAllow: %s is covered by %s: drop the entry", key, wildcard(d))
			continue
		}
		ok := false
		switch class {
		case "enum":
			if c, isConst := d.obj.(*types.Const); isConst {
				if n, isNamed := c.Type().(*types.Named); isNamed && n.Obj().Pkg() == c.Pkg() {
					ok = surface(key[:strings.LastIndex(key, ".")+1] + n.Obj().Name())
				}
			}
		case "test-support":
			ok = len(m.tests[key]) > 0
		case "returned":
			if d.owner != nil {
				ok = results[d.owner]
				break
			}
			if tn, isType := d.obj.(*types.TypeName); isType {
				for _, owner := range mentions[tn] {
					ok = ok || owner != key && surface(owner)
				}
			}
		case "implements":
			ok = d.owner != nil && isMethod(d.obj) && m.implements(d, ifaces, surface)
		case "reference":
			pkg := key[:strings.LastIndex(key, ".")]
			ok = d.owner == nil && (len(m.tests[key]) > 0 || m.testedInPackage("internal/"+pkg, d.obj.Name()))
		default:
			t.Errorf("surfaceAllow: %s has class %q, want enum, test-support, returned, implements or reference", key, class)
			continue
		}
		if !ok {
			t.Errorf("surfaceAllow: %s is no longer %s", key, class)
		}
	}

	var lines []string
	for what, n := range counts {
		lines = append(lines, what+": "+strconv.Itoa(n))
	}
	sort.Strings(lines)
	t.Logf("exported under internal/:\n\t%s", strings.Join(lines, "\n\t"))
}

func isMethod(obj types.Object) bool {
	_, ok := obj.(*types.Func)
	return ok
}

// needsWildcard reports whether some member of the type behind a
// "pkg.Type.*" entry is used by no other package's code.
func (m *module) needsWildcard(entry string, external func(string) bool) bool {
	prefix := strings.TrimSuffix(entry, "*")
	for key, d := range m.decls {
		if strings.HasPrefix(key, prefix) && !external(key) && !(anyType[d.obj.Name()] && isMethod(d.obj)) {
			return true
		}
	}
	return false
}

// interfaces lists the named interface types of the module's code and
// the exported ones of the standard library packages it imports.
func (m *module) interfaces() []*types.TypeName {
	var out []*types.TypeName
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if ok && types.IsInterface(tn.Type()) && (tn.Exported() || strings.HasPrefix(p.Path(), "ehdl/")) {
				out = append(out, tn)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range m.pkgs {
		if p.pkg != nil {
			visit(p.pkg)
		}
	}
	return out
}

// implements reports whether the method behind d belongs to an
// interface that its type, a type embedding it, or a pointer to either
// satisfies: an interface of another package, or one of its own
// package on the surface.
func (m *module) implements(d *decl, ifaces []*types.TypeName, surface func(string) bool) bool {
	holders := append([]types.Type{d.owner.Type()}, m.embedders(d.owner)...)
	for _, tn := range ifaces {
		if tn.Pkg() == d.owner.Pkg() && !surface(d.key[:strings.Index(d.key, ".")+1]+tn.Name()) {
			continue
		}
		it := tn.Type().Underlying().(*types.Interface)
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == d.obj.Name()
		}
		for _, typ := range holders {
			if has && (types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it)) {
				return true
			}
		}
	}
	return false
}

// embedders lists the named struct types of the module's code that
// embed tn, by value or by pointer.
func (m *module) embedders(tn *types.TypeName) []types.Type {
	var out []types.Type
	for _, p := range m.pkgs {
		if p.pkg == nil {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			holder, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := holder.Type().Underlying().(*types.Struct)
			for i := 0; ok && i < st.NumFields(); i++ {
				f := st.Field(i).Type()
				if ptr, isPtr := f.(*types.Pointer); isPtr {
					f = ptr.Elem()
				}
				if n, isNamed := f.(*types.Named); isNamed && st.Field(i).Embedded() && n.Obj() == tn {
					out = append(out, holder.Type())
				}
			}
		}
	}
	return out
}

// testedInPackage reports whether a test file of dir names name.
func (m *module) testedInPackage(dir, name string) bool {
	found := false
	p := m.pkgs[dir]
	for _, f := range append(p.tests[:len(p.tests):len(p.tests)], p.xtests...) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}

func keys(s map[string]bool) []string {
	var out []string
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// docRef is a backticked Go reference: `pkg.Name`, `pkg.Type.Member`,
// either with an optional "()". Spans with an underscore are metric
// names (`hwsim.exec_ns`), not code.
var docRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:\\(\\))?`")

// TestDocsNameExistingCode holds every backticked reference to an
// internal package in the design documents to a top-level name, a
// method or field, or a Test function of that package.
func TestDocsNameExistingCode(t *testing.T) {
	m := loadModule(t)
	byName := map[string]*srcPkg{}
	for dir, p := range m.pkgs {
		if strings.HasPrefix(dir, "internal/") && p.pkg != nil {
			byName[p.pkg.Name()] = p
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range docRef.FindAllStringSubmatch(string(text), -1) {
			p := byName[ref[1]]
			if p == nil {
				continue
			}
			scope := p.pkg.Scope()
			if p.test != nil {
				scope = p.test.Scope()
			}
			member := func(typ, name string) bool {
				tn, ok := scope.Lookup(typ).(*types.TypeName)
				if !ok {
					return false
				}
				obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
				return obj != nil
			}
			ok := scope.Lookup(ref[2]) != nil || ref[3] == "" && p.xtestDeclares(ref[2])
			if ref[3] != "" {
				ok = member(ref[2], ref[3])
			} else if !ok {
				for _, typ := range scope.Names() {
					ok = ok || member(typ, ref[2])
				}
			}
			if !ok {
				t.Errorf("%s names %s, which internal/%s does not declare", doc, ref[0], ref[1])
			}
		}
	}
}

// xtestDeclares reports whether the external test package declares a
// top-level name.
func (p *srcPkg) xtestDeclares(name string) bool {
	for _, f := range p.xtests {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}
