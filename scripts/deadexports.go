//go:build ignore

// Command deadexports fails when a package-level declaration in non-test code
// is referenced only from _test.go files, or not at all. For an exported
// identifier that is an entry point no command, example or benchmark reaches:
// it should be deleted with the tests that check only it, or, when a test needs
// it as a reference or hook, named on the keep-list below with a one-line
// reason. For an unexported func, type, var or const it is a stranded helper
// (the compiler does not flag unused package-level functions): delete it.
//
// It parses every package of the module and of the perfbench/ module (whose
// files count as callers; its own declarations are not audited), type-checks
// them once with their tests, and records for each package-level func, type,
// var and const, and each exported method, whether any non-test file outside
// the declaration itself refers to it. main, init, Fuzz* and _ are exempt.
// Methods that implement an interface seen anywhere in the checked code or its
// imports are exempt: they are reached by dynamic dispatch. Unexported methods
// and struct fields are not audited.
//
// Run from the repository root with: go run scripts/deadexports.go
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// keep names the test-only identifiers that stay, keyed by
// "<import path>.<Name>" or "<import path>.<Type>.<Method>", with the reason.
// An entry whose identifier gains a non-test caller or disappears fails the
// audit too, so the list only ever shrinks to what is still needed. Every
// entry is exported: an unexported helper only tests use belongs in a
// _test.go file.
var keep = map[string]string{
	// References that tests compare production paths against.
	"nmdetect/internal/appliance.Appliance.CheckSchedule": "feasibility oracle for DP appliance schedules",
	"nmdetect/internal/battery.Battery.CheckTrajectory":   "feasibility oracle for projected battery trajectories",
	"nmdetect/internal/battery.FlatTrajectory":            "idle-battery baseline the game tests start from",
	"nmdetect/internal/battery.ImpliedTrading":            "Eqn 1 oracle the game's trading is tested against",
	"nmdetect/internal/ceopt.Minimize":                    "reference CE minimiser the workspace solver is tested against",
	"nmdetect/internal/dpsched.Schedule":                  "reference DP the workspace scheduler is tested against",
	"nmdetect/internal/dpsched.ScheduleAll":               "reference DP the workspace scheduler is tested against",
	"nmdetect/internal/mat.Matrix.MulVec":                 "forms b = A·x for the LU solve round-trip test",
	"nmdetect/internal/meterstate.Columns.SumCol":         "pins the bitwise slot-sum order of the column layout",
	"nmdetect/internal/pomdp.Simulate":                    "rollout the PBVI-versus-naive policy test scores with",
	"nmdetect/internal/pomdp.SolveFiniteHorizon":          "exact finite-horizon solver the PBVI/QMDP bounds are tested against",

	// Inputs fuzzed or pinned in CI.
	"nmdetect/internal/pomdp.QMDPPolicy.Save": "writes the qmdp kind LoadPolicy accepts; pinned by the round-trip test",
	"nmdetect/internal/scenario.Corpus":       "corpus gate: every preset under scenarios/ loads, validates and keeps its ID",
	"nmdetect/internal/scenario.PresetNames":  "corpus gate: the embedded preset list",
	"nmdetect/internal/traceio.ReadHistory":   "history loader fuzzed in CI (FuzzReadHistory)",
	"nmdetect/internal/traceio.ReadTrace":     "trace loader fuzzed in CI (FuzzReadTrace)",

	// Test hooks and shared fixtures.
	"nmdetect/internal/cli/clitest.Cancelled":     "helper the cmd/* tests share (a non-test file so several packages import it)",
	"nmdetect/internal/cli/clitest.Flags":         "helper the cmd/* tests share (a non-test file so several packages import it)",
	"nmdetect/internal/faultinject.DefaultConfig": "the fault mix the fault, checkpoint and sweep tests run under",
	"nmdetect/internal/mat.FromRows":              "literal matrices for the LU singular and pivoting tests",
	"nmdetect/internal/meterstate.Columns.At":     "element access the layout tests check the transpose with",
	"nmdetect/internal/meterstate.Columns.H":      "shape access the layout tests check",
	"nmdetect/internal/meterstate.Columns.N":      "shape access the layout tests check",
	"nmdetect/internal/meterstate.Columns.Set":    "element access the layout tests check the transpose with",
	"nmdetect/internal/parallel.Limit":            "test hook: reads the shared pool size",
	"nmdetect/internal/parallel.SetLimit":         "test hook: resizes the shared pool",
	"nmdetect/internal/rng.Source.Shuffle":        "shuffles the DP property test's appliance pool",
	"nmdetect/internal/rng.Source.Uint64":         "raw stream the determinism tests compare",
	"nmdetect/internal/tariff.History.Tail":       "trims history fixtures in the forecast and tariff tests",
	"nmdetect/internal/timeseries.Series.ScaleBy": "scales price and PV fixtures in the forecast and loadpred tests",

	// Future callers named in ROADMAP item 1.
	"nmdetect/internal/experiments.FaultSweep": "fault sweep planned for the paper-claims gate",
	"nmdetect/internal/experiments.Robustness": "robustness sweep planned for the paper-claims gate",
	"nmdetect/internal/game.EquilibriumGap":    "solver-quality measure planned as a sampled obs stat",
}

// module is the repository's import path. The benchmark module in benchDir
// is nmdetect/perfbench, so its packages map onto the same paths.
const (
	module   = "nmdetect"
	benchDir = "perfbench"
)

func main() {
	a, err := load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	dead := a.testOnly()
	var bad []string
	found := make(map[string]bool, len(dead))
	for _, d := range dead {
		found[d.key] = true
		if _, kept := keep[d.key]; !kept {
			bad = append(bad, fmt.Sprintf("%s: %s has no non-test reference", d.pos, d.key))
		}
	}
	for k := range keep {
		if !found[k] {
			bad = append(bad, fmt.Sprintf("keep-list entry %s is not a test-only identifier; remove it", k))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, b)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "deadexports: %d test-only identifiers, all on the keep-list\n", len(dead))
}

// pkg is one directory's sources: the package with its in-package tests, and
// the external _test package if there is one.
type pkg struct {
	path            string
	audited         bool
	files, xfiles   []*ast.File
	types           *types.Package
	checking, built bool
}

type audit struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*pkg
	order  []*pkg
	info   *types.Info
	ifaces []*types.Interface
}

// load parses every Go package under the current directory (the module
// root), the benchmark module's packages included as callers, and
// type-checks them.
func load() (*audit, error) {
	a := &audit{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*pkg{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel := filepath.ToSlash(dir)
		path := module
		if rel != "." {
			path += "/" + rel
		}
		audited := rel != benchDir && !strings.HasPrefix(rel, benchDir+"/")
		return a.parseDir(dir, path, audited)
	})
	if err != nil {
		return nil, err
	}
	for _, p := range a.order {
		if _, err := a.check(p); err != nil {
			return nil, err
		}
	}
	for _, p := range a.order {
		if len(p.xfiles) == 0 {
			continue
		}
		conf := types.Config{Importer: a}
		if _, err := conf.Check(p.path+"_test", a.fset, p.xfiles, a.info); err != nil {
			return nil, err
		}
	}
	a.collectInterfaces()
	return a, nil
}

func (a *audit) parseDir(dir, path string, audited bool) error {
	bp, err := build.Default.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil
	}
	if err != nil {
		return err
	}
	p := &pkg{path: path, audited: audited}
	parse := func(names []string) ([]*ast.File, error) {
		var out []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(a.fset, filepath.Join(dir, n), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	if p.files, err = parse(append(bp.GoFiles, bp.TestGoFiles...)); err != nil {
		return err
	}
	if p.xfiles, err = parse(bp.XTestGoFiles); err != nil {
		return err
	}
	a.pkgs[path] = p
	a.order = append(a.order, p)
	return nil
}

// Import resolves module packages to their checked form and everything else
// through the standard importer.
func (a *audit) Import(path string) (*types.Package, error) {
	if p, ok := a.pkgs[path]; ok {
		return a.check(p)
	}
	return a.std.Import(path)
}

func (a *audit) check(p *pkg) (*types.Package, error) {
	if p.built {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	conf := types.Config{Importer: a}
	tp, err := conf.Check(p.path, a.fset, p.files, a.info)
	if err != nil {
		return nil, err
	}
	p.types, p.built = tp, true
	return tp, nil
}

// collectInterfaces gathers every interface type the checked code spells out
// or can name through its imports, for the interface-implementation exemption.
func (a *audit) collectInterfaces() {
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					a.ifaces = append(a.ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range a.order {
		visit(p.types)
	}
	a.ifaces = append(a.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range a.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			a.ifaces = append(a.ifaces, it)
		}
	}
}

// implementsInterface reports whether method m of a named type satisfies a
// method of some collected interface the type (or its pointer) implements.
func (a *audit) implementsInterface(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range a.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

type finding struct{ key, pos string }

// decl is an audited declaration with the source extents (its own
// declaration, and for a type its methods) whose references do not count.
type decl struct {
	key   string
	spans [][2]token.Pos
}

func (a *audit) testOnly() []finding {
	decls := map[types.Object]*decl{}
	methodsOf := map[*types.TypeName][][2]token.Pos{}
	for _, p := range a.order {
		if !p.audited {
			continue
		}
		for _, f := range p.files {
			if a.isTest(f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				span := [2]token.Pos{d.Pos(), d.End()}
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := a.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil {
						if audited(d.Name.Name) {
							decls[fn] = &decl{key: p.path + "." + fn.Name(), spans: [][2]token.Pos{span}}
						}
						continue
					}
					tn := recvTypeName(recv.Type())
					if tn == nil {
						continue
					}
					methodsOf[tn] = append(methodsOf[tn], span)
					if d.Name.IsExported() && tn.Exported() && !a.implementsInterface(fn) {
						decls[fn] = &decl{key: p.path + "." + tn.Name() + "." + fn.Name(), spans: [][2]token.Pos{span}}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						// A spec, not its whole group, is the extent: a
						// constant that only a sibling in the same const
						// block uses is still used.
						spec := [2]token.Pos{s.Pos(), s.End()}
						for _, id := range names {
							obj := a.info.Defs[id]
							if obj == nil || !audited(id.Name) {
								continue
							}
							decls[obj] = &decl{key: p.path + "." + id.Name, spans: [][2]token.Pos{spec}}
						}
					}
				}
			}
		}
	}
	for tn, spans := range methodsOf {
		if d := decls[tn]; d != nil {
			d.spans = append(d.spans, spans...)
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range a.info.Uses {
		d := decls[obj]
		if d == nil || used[obj] || a.isTest(id.Pos()) || d.within(id.Pos()) {
			continue
		}
		used[obj] = true
	}
	var out []finding
	for obj, d := range decls {
		if !used[obj] {
			out = append(out, finding{key: d.key, pos: a.shortPos(obj.Pos())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// audited reports whether a package-level func, type, var or const is
// audited: all are, exported or not, except the blank identifier and the
// names the toolchain calls (main, init and fuzz targets).
func audited(name string) bool {
	return name != "_" && name != "main" && name != "init" && !strings.HasPrefix(name, "Fuzz")
}

func (d *decl) within(pos token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

func recvTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func (a *audit) isTest(pos token.Pos) bool {
	return strings.HasSuffix(a.fset.Position(pos).Filename, "_test.go")
}

func (a *audit) shortPos(pos token.Pos) string {
	p := a.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
}
