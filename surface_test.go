// The module's surface census: every exported top-level name under
// internal/ is named by another package's non-test code (cmd/, bench/
// and examples/ count), or it is on the allow-list below with a class
// this test checks. A new unused export, a stale entry and an entry
// without a known class all fail. The docs test on the same parse holds
// every backticked `pkg.Name` in the design documents to code that
// exists.
package ehdl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the exported names no other package's non-test
// code names, keyed "pkg.Name" (pkg relative to internal/), each with
// its class:
//   - enum: a member of a const block whose type is on the surface
//     (named outside, or itself on this list);
//   - test-support: named by another package's _test.go;
//   - returned: a type that something on the surface mentions: the
//     signature of a function or of a method of its type, a field of
//     an exported struct, a constant of that type;
//   - reference: a model or oracle the tests compare against.
var surfaceAllow = map[string]string{
	"analytic.FlushProbUniform": "reference",
	"analytic.FlushProbZipf":    "reference",
	"analytic.Table3Row":        "returned",
	"analytic.Table4Row":        "returned",
	"analytic.Throughput":       "reference",

	"apps.Router": "test-support",

	"asm.Builder":    "test-support",
	"asm.NewBuilder": "test-support",

	"baseline/bluefield.Model":  "returned",
	"baseline/bluefield.Report": "returned",

	"baseline/hxdp.Model":  "test-support",
	"baseline/hxdp.Report": "returned",

	"baseline/sdnet.Design":            "returned",
	"baseline/sdnet.ErrNotExpressible": "test-support",
	"baseline/sdnet.TableSpec":         "returned",

	"cfg.BackEdge": "returned",
	"cfg.Block":    "returned",

	"conformance.StalePointerFrames": "test-support",
	"conformance.StalePointerZoo":    "test-support",

	"core.BlockInfo":   "returned",
	"core.OpKind":      "test-support",
	"core.SharingFlow": "enum",
	"core.StageNormal": "enum",

	"ddg.AreaNone": "test-support",
	"ddg.ArgLoc":   "returned",
	"ddg.MemArea":  "returned",

	"durable.Decode":                 "test-support",
	"durable.EncodeHeader":           "test-support",
	"durable.EncodeRecord":           "test-support",
	"durable.MetricAppends":          "test-support",
	"durable.MetricCommits":          "test-support",
	"durable.MetricSnapshotsWritten": "test-support",
	"durable.SnapshotName":           "test-support",

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
	"ebpf.Source":                  "returned",

	"experiments.Runner": "returned",
	"experiments.Table":  "returned",

	"fastpath.Machine": "test-support",

	"faults.Classes":    "test-support",
	"faults.NumClasses": "enum",

	"fleet.DeviceStatus": "returned",
	"fleet.RecoveryInfo": "returned",

	"hdl.Device":  "returned",
	"hdl.Percent": "returned",

	"hwsim.FrameRun": "returned",

	"liveupdate.CheckCompat":       "test-support",
	"liveupdate.CheckPrograms":     "test-support",
	"liveupdate.CompatError":       "test-support",
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

	"maps.MapEntries":    "returned",
	"maps.Observed":      "returned",
	"maps.Synchronized":  "returned",
	"maps.UpdateExist":   "enum",
	"maps.UpdateNoExist": "enum",

	"nic.QueueReport": "returned",

	"obs.JSONLSink":  "returned",
	"obs.Kinds":      "test-support",
	"obs.MemSink":    "test-support",
	"obs.NewMemSink": "test-support",
	"obs.ParseJSONL": "test-support",
	"obs.TextSink":   "returned",

	"pktgen.MAC":                "returned",
	"pktgen.MalformBogusIPLen":  "enum",
	"pktgen.MalformKinds":       "test-support",
	"pktgen.MalformOversize":    "enum",
	"pktgen.MalformTruncateEth": "enum",
	"pktgen.MalformTruncateIP":  "enum",
	"pktgen.MalformTruncateL4":  "enum",
	"pktgen.MalformZeroLength":  "enum",
	"pktgen.Trace":              "returned",
	"pktgen.VerifyIPChecksum":   "test-support",

	"power.Profile": "returned",

	"protect.SECDED":        "test-support",
	"protect.ScrubStats":    "returned",
	"protect.WordCorrected": "enum",

	"rss.Completion":      "test-support",
	"rss.Dispatcher":      "returned",
	"rss.Indirection":     "returned",
	"rss.MetricCompleted": "test-support",

	"tenant.Tenant":     "returned",
	"tenant.TrafficMux": "returned",

	"vm.MemSpace": "returned",
	"vm.Packet":   "test-support",
	"vm.Result":   "returned",
}

// goFile is one parsed source file and the package directory it is in.
type goFile struct {
	pkg  string // directory relative to the module root, e.g. "internal/maps"
	test bool
	f    *ast.File
}

// goPkg is what the census and the docs test know about one package.
type goPkg struct {
	name    string                     // package clause
	decls   map[string]bool            // every top-level name, test files included
	members map[string]map[string]bool // type -> its methods and struct fields
}

// module is one parse of every Go file, shared by both tests.
type module struct {
	files []goFile
	pkgs  map[string]*goPkg // by directory
}

// parseModule parses every Go file of the module (testdata excluded).
func parseModule(t *testing.T) *module {
	t.Helper()
	m := &module{pkgs: map[string]*goPkg{}}
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		gf := goFile{pkg: filepath.ToSlash(filepath.Dir(path)), test: strings.HasSuffix(path, "_test.go"), f: f}
		m.files = append(m.files, gf)
		p := m.pkgs[gf.pkg]
		if p == nil {
			p = &goPkg{decls: map[string]bool{}, members: map[string]map[string]bool{}}
			m.pkgs[gf.pkg] = p
		}
		if !strings.HasSuffix(f.Name.Name, "_test") {
			p.name = f.Name.Name
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					p.decls[d.Name.Name] = true
				} else {
					p.member(recvName(d), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						p.decls[s.Name.Name] = true
						var fields []*ast.Field
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields.List
						case *ast.InterfaceType:
							fields = t.Methods.List
						}
						for _, fl := range fields {
							for _, n := range fl.Names {
								p.member(s.Name.Name, n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.decls[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (p *goPkg) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

func recvName(d *ast.FuncDecl) string {
	x := d.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch e := x.(type) {
	case *ast.IndexExpr:
		x = e.X
	case *ast.IndexListExpr:
		x = e.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// uses is, per "pkg.Name", the other packages whose non-test and whose
// test code name it through an import.
type uses struct{ code, tests map[string]bool }

func (m *module) uses() map[string]uses {
	out := map[string]uses{}
	for _, gf := range m.files {
		alias := map[string]string{} // local name -> directory
		for _, im := range gf.f.Imports {
			// An external test package (package x_test) is another
			// package, though it shares its directory with x.
			dir, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), "ehdl/")
			if !ok || m.pkgs[dir] == nil || dir == gf.pkg && !strings.HasSuffix(gf.f.Name.Name, "_test") {
				continue
			}
			local := m.pkgs[dir].name
			if im.Name != nil {
				local = im.Name.Name
			}
			alias[local] = dir
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || alias[id.Name] == "" {
				return true
			}
			key := strings.TrimPrefix(alias[id.Name], "internal/") + "." + sel.Sel.Name
			u := out[key]
			if u.code == nil {
				u = uses{map[string]bool{}, map[string]bool{}}
			}
			if gf.test {
				u.tests[gf.pkg] = true
			} else {
				u.code[gf.pkg] = true
			}
			out[key] = u
			return true
		})
	}
	return out
}

// export is an exported top-level name of an internal package.
type export struct {
	typ  bool   // a type declaration
	enum string // for a constant: the named type of its block, if any
}

// exports lists the exported top-level names of internal/ by
// "pkg.Name", and for each name the "pkg.Owner"s on the exported
// surface that mention it: a function (or the receiver of a method)
// whose signature does, a type built from it (an exported field of a
// struct), a constant or variable of that type.
func (m *module) exports() (map[string]*export, map[string][]string) {
	out, refs := map[string]*export{}, map[string][]string{}
	for _, gf := range m.files {
		if gf.test || !strings.HasPrefix(gf.pkg, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(gf.pkg, "internal/")
		add := func(name string, e *export) {
			if ast.IsExported(name) {
				out[pkg+"."+name] = e
			}
		}
		mention := func(owner string, n ast.Node) {
			if !ast.IsExported(owner) {
				return
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					refs[pkg+"."+id.Name] = append(refs[pkg+"."+id.Name], pkg+"."+owner)
				}
				return true
			})
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				owner := d.Name.Name
				if d.Recv != nil {
					owner = recvName(d)
				} else {
					add(owner, &export{})
				}
				if ast.IsExported(d.Name.Name) {
					mention(owner, d.Type)
				}
			case *ast.GenDecl:
				block := "" // a const spec with neither type nor value repeats the one before
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, &export{typ: true})
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							mention(s.Name.Name, s.Type)
							continue
						}
						for _, f := range st.Fields.List {
							if len(f.Names) == 0 || ast.IsExported(f.Names[0].Name) {
								mention(s.Name.Name, f.Type)
							}
						}
					case *ast.ValueSpec:
						if id, ok := s.Type.(*ast.Ident); ok {
							block = id.Name
						} else if s.Type != nil || len(s.Values) > 0 {
							block = ""
						}
						for _, n := range s.Names {
							e := &export{}
							if d.Tok == token.CONST {
								e.enum = block
							}
							add(n.Name, e)
							if block != "" {
								mention(n.Name, ast.NewIdent(block))
							}
						}
					}
				}
			}
		}
	}
	return out, refs
}

// TestExportedSurface is the census: an exported name that no other
// package's non-test code names must be unexported, deleted or
// classified on surfaceAllow, and every entry there must still hold.
func TestExportedSurface(t *testing.T) {
	m := parseModule(t)
	used := m.uses()
	all, refs := m.exports()
	external := func(key string) bool { return len(used[key].code) > 0 }
	surface := func(key string) bool { return external(key) || surfaceAllow[key] != "" }
	var unused []string
	for key := range all {
		if !surface(key) {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no other package's code names it: unexport it, delete it or classify it in surfaceAllow", key)
	}
	for key, class := range surfaceAllow {
		e := all[key]
		pkg := key[:strings.LastIndex(key, ".")]
		switch {
		case e == nil:
			t.Errorf("surfaceAllow: %s is not an exported top-level name", key)
			continue
		case external(key):
			t.Errorf("surfaceAllow: %s is named by %v: drop the entry", key, keys(used[key].code))
			continue
		}
		ok := false
		switch class {
		case "enum":
			ok = e.enum != "" && surface(pkg+"."+e.enum)
		case "test-support":
			ok = len(used[key].tests) > 0
		case "returned":
			for _, owner := range refs[key] {
				ok = ok || e.typ && owner != key && surface(owner)
			}
		case "reference":
			ok = len(used[key].tests) > 0 || m.testedInPackage(pkg, key[len(pkg)+1:])
		default:
			t.Errorf("surfaceAllow: %s has class %q, want enum, test-support, returned or reference", key, class)
			continue
		}
		if !ok {
			t.Errorf("surfaceAllow: %s is no longer %s", key, class)
		}
	}
}

// testedInPackage reports whether a test file of internal/pkg names name.
func (m *module) testedInPackage(pkg, name string) bool {
	found := false
	for _, gf := range m.files {
		if gf.test && gf.pkg == "internal/"+pkg {
			ast.Inspect(gf.f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
		}
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
	m := parseModule(t)
	byName := map[string]*goPkg{}
	for dir, p := range m.pkgs {
		if strings.HasPrefix(dir, "internal/") {
			byName[p.name] = p
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
			ok := p.decls[ref[2]] || ref[3] == "" && methodOfAny(p, ref[2])
			if ref[3] != "" {
				ok = p.members[ref[2]][ref[3]]
			}
			if !ok {
				t.Errorf("%s names %s, which internal/%s does not declare", doc, ref[0], ref[1])
			}
		}
	}
}

func methodOfAny(p *goPkg, name string) bool {
	for _, ms := range p.members {
		if ms[name] {
			return true
		}
	}
	return false
}
