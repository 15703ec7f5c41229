package partsvc

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The three guards in this file read the repository's non-test Go — the
// module, cmd/, examples/ and the benchmark/ module — type-checked once
// and shared. Code that only tests use belongs in a _test.go file, a
// setting nothing sets is a constant, and a flag nobody can find in the
// docs is a flag nobody runs; each guard fails on the first kind of
// thing it finds. Each allowlist holds at most 10 entries, each with the
// reason it stays.

// productionCallerAllowlist names the exported functions that may lack a
// production caller, each with the tests that need it and why. Keys are
// "package.Name" or "package.Type.Name".
var productionCallerAllowlist = map[string]string{
	// The trust-change trigger: adapt, fleet, netmon and planner tests
	// lower a node's TrustLevel through it to drive evictions and waves.
	"netmon.Monitor.ReportNodeProps": "trust-change trigger of the adapt, fleet, netmon and planner tests",
	// The client side of KindInstall orders (the install path that
	// node agents in their own processes will use); smock's wrapper
	// tests and FuzzInstallOrder drive its order codec over a transport.
	"smock.RemoteInstall": "install client of the smock wrapper tests and FuzzInstallOrder",
}

// unsetKnobAllowlist names the exported fields of *Config and *Options
// structs that no non-test code may write, keyed "package.Type.Field".
var unsetKnobAllowlist = map[string]string{}

// uncitedFlagAllowlist names the cmd/ flags the docs may leave uncited,
// keyed "program -name", or "program subcommand -name" for a flag of a
// subcommand's FlagSet.
var uncitedFlagAllowlist = map[string]string{}

// modulePkg is one package of the repository's non-test Go.
type modulePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// typedModule is every modulePkg type-checked, in dependency order, and
// the packages outside the repository that they import.
type typedModule struct {
	fset     *token.FileSet
	pkgs     []*modulePkg
	imported []*types.Package
}

var (
	moduleOnce sync.Once
	module     *typedModule
	moduleErr  error
)

// loadModule returns the shared type-check, doing it on first use.
func loadModule(t *testing.T) *typedModule {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// moduleImporter checks module packages from source, each once, and
// hands every other import path to the standard library's importer.
type moduleImporter struct {
	m        *typedModule
	byPath   map[string]*modulePkg
	checking map[string]bool
	std      types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := im.byPath[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	if im.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	im.checking[path] = true
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	im.m.pkgs = append(im.m.pkgs, p)
	return pkg, nil
}

// typeCheckModule parses every non-test .go file under the repository
// root, skipping testdata and dot-directories, and type-checks each
// package. The benchmark/ module's path is partsvc/benchmark and it
// replaces partsvc with this directory, so a directory's import path is
// its path below the root.
func typeCheckModule() (*typedModule, error) {
	m := &typedModule{fset: token.NewFileSet()}
	byPath := map[string]*modulePkg{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := "partsvc"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ipath += "/" + dir
		}
		p := byPath[ipath]
		if p == nil {
			p = &modulePkg{path: ipath}
			byPath[ipath] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	std, err := exportData(byPath)
	if err != nil {
		return nil, err
	}
	im := &moduleImporter{m: m, byPath: byPath, checking: map[string]bool{}, std: importer.ForCompiler(m.fset, "gc", std)}
	for _, path := range paths {
		if _, err := im.Import(path); err != nil {
			return nil, err
		}
	}
	seen := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		for _, imp := range p.types.Imports() {
			if _, mod := byPath[imp.Path()]; !mod && !seen[imp] {
				seen[imp] = true
				m.imported = append(m.imported, imp)
			}
		}
	}
	return m, nil
}

// exportData locates the compiler's export data for every package
// outside the repository that a module package imports, with one
// `go list -export` (the gc importer would otherwise run it once per
// import path), and returns it as an importer lookup.
func exportData(byPath map[string]*modulePkg) (func(string) (io.ReadCloser, error), error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	seen := map[string]bool{}
	for _, p := range byPath {
		for _, f := range p.files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if _, mod := byPath[path]; !mod && path != "unsafe" && !seen[path] {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	var stderr strings.Builder
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v: %s", err, stderr.String())
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			files[path] = file
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}, nil
}

// funcKey names a function "package.Name" or a method
// "package.Type.Name".
func funcKey(f *types.Func) string {
	key := f.Pkg().Name() + "."
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			key += n.Obj().Name() + "."
		}
	}
	return key + f.Name()
}

// namedOf returns the named type behind t or *t, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// TestExportedFuncsHaveProductionCallers fails on an exported function
// or method declared in non-test Go that no non-test file uses. A use is
// an identifier the type-checker resolves to the function (a call, a
// method value or expression, a reference; a selector's Sel included),
// so a name shared with another identifier does not count. A method also counts as used when its type
// T or *T implements an interface declared in a module package or a
// package the module imports, and the method is one of that interface's:
// String for fmt.Stringer, Close for io.Closer, CallContext for
// transport.Endpoint.
func TestExportedFuncsHaveProductionCallers(t *testing.T) {
	if len(productionCallerAllowlist) > 10 {
		t.Fatalf("the allowlist has %d entries; keep it to 10", len(productionCallerAllowlist))
	}
	m := loadModule(t)
	used := map[*types.Func]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
	}
	for _, f := range interfaceMethods(m) {
		used[f] = true
	}
	var unused []string
	allowed := map[string]bool{}
	for _, p := range m.pkgs {
		for _, file := range p.files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				f := p.info.Defs[fd.Name].(*types.Func)
				key := funcKey(f)
				if _, ok := productionCallerAllowlist[key]; ok {
					allowed[key] = true
					continue
				}
				if !used[f] {
					unused = append(unused, m.fset.Position(fd.Pos()).String()+": "+key)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no production caller: call it, move it into a _test.go file, or delete it", u)
	}
	for key := range productionCallerAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no exported function", key)
		}
	}
}

// interfaceMethods returns the methods of module types that implement a
// method of an interface declared in a module package, a package the
// module imports, or the universe (error).
func interfaceMethods(m *typedModule) []*types.Func {
	var ifaces []*types.Interface
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	addIfaces(types.Universe)
	for _, p := range m.pkgs {
		addIfaces(p.types.Scope())
	}
	for _, p := range m.imported {
		addIfaces(p.Scope())
	}
	var out []*types.Func
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			if mset.Len() == 0 {
				continue
			}
		next:
			for _, it := range ifaces {
				for i := 0; i < it.NumMethods(); i++ {
					if im := it.Method(i); mset.Lookup(im.Pkg(), im.Name()) == nil {
						continue next
					}
				}
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					im := it.Method(i)
					out = append(out, mset.Lookup(im.Pkg(), im.Name()).Obj().(*types.Func).Origin())
				}
			}
		}
	}
	return out
}

// TestConfigFieldsAreSet fails on an exported field of a struct type
// named *Config or *Options that no non-test file writes: a knob nothing
// turns is a constant. A write is a keyed or positional composite
// literal, an assignment or ++/-- through a selector, or taking the
// field's address (flag.IntVar(&cfg.Workers, …)). Writes inside a method
// of the config type itself do not count, or its withDefaults would
// hide every default nothing overrides.
func TestConfigFieldsAreSet(t *testing.T) {
	if len(unsetKnobAllowlist) > 10 {
		t.Fatalf("the allowlist has %d entries; keep it to 10", len(unsetKnobAllowlist))
	}
	m := loadModule(t)
	type knob struct {
		key, pos string
		owner    *types.TypeName
	}
	knobs := map[*types.Var]knob{}
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[f] = knob{p.types.Name() + "." + name + "." + f.Name(), m.fset.Position(f.Pos()).String(), tn}
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		for _, file := range p.files {
			for _, d := range file.Decls {
				var self *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if n := namedOf(p.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()); n != nil {
						self = n.Obj()
					}
				}
				write := func(v *types.Var) {
					if k, ok := knobs[v]; ok && k.owner != self {
						set[v] = true
					}
				}
				writeSel := func(e ast.Expr) {
					if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if sel := p.info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
							write(sel.Obj().(*types.Var))
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CompositeLit:
						st, ok := p.info.Types[x].Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range x.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									write(v)
								}
							} else {
								write(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							writeSel(lhs)
						}
					case *ast.IncDecStmt:
						writeSel(x.X)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							writeSel(x.X)
						}
					}
					return true
				})
			}
		}
	}
	var unset []string
	allowed := map[string]bool{}
	for v, k := range knobs {
		if _, ok := unsetKnobAllowlist[k.key]; ok {
			allowed[k.key] = true
			continue
		}
		if !set[v] {
			unset = append(unset, k.pos+": "+k.key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no non-test code: make it a constant, or delete it", u)
	}
	for key := range unsetKnobAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no config field", key)
		}
	}
}

// flagDefiners are the flag package's functions and *FlagSet methods
// that define a flag; the flag's name is their first constant string
// argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "String": true, "StringVar": true,
	"Float64": true, "Float64Var": true, "Duration": true, "DurationVar": true,
	"Var": true, "Func": true, "BoolFunc": true, "TextVar": true,
}

// TestFlagsAreCited fails on a flag a cmd/ program defines that no
// citation doc cites as -name (or --name). A flag of a subcommand's
// FlagSet (`flag.NewFlagSet("plan", …)`) is keyed by program and
// subcommand, "psfctl plan"; any other flag by the program alone. A
// citation counts only on a line, or in a fenced markdown block, that
// names the key (`psfctl plan`, `mailbench`), so a one-letter flag
// cannot pass on another program's or subcommand's line. The reverse
// holds too: every -flag that follows a program's name, and the
// subcommand right after it if there is one, in a doc's command (`go
// run ./cmd/psfctl plan -case-study`, `./psfctl serve -addr …`) must be
// one that key defines.
func TestFlagsAreCited(t *testing.T) {
	if len(uncitedFlagAllowlist) > 10 {
		t.Fatalf("the allowlist has %d entries; keep it to 10", len(uncitedFlagAllowlist))
	}
	m := loadModule(t)
	units, err := citationUnits()
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	defined := map[string]map[string]bool{} // key -> flag names
	subs := map[string]map[string]bool{}    // program -> subcommand names
	// cited returns the text of the units that name key, memoized.
	citedText := map[string]string{}
	cited := func(key string) string {
		if text, ok := citedText[key]; ok {
			return text
		}
		names := regexp.MustCompile(`\b` + strings.Join(strings.Fields(regexp.QuoteMeta(key)), `\s+`) + `\b`)
		var text []string
		for _, u := range units {
			if names.MatchString(u.text) {
				text = append(text, u.text)
			}
		}
		citedText[key] = strings.Join(text, "\n")
		return citedText[key]
	}
	for _, p := range m.pkgs {
		prog, ok := strings.CutPrefix(p.path, "partsvc/cmd/")
		if !ok {
			continue
		}
		subs[prog] = map[string]bool{}
		// sets maps each variable assigned a flag.NewFlagSet to the
		// set's constant name.
		sets := map[types.Object]string{}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, rhs := range as.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						continue
					}
					if f := flagFunc(p, call); f == nil || f.Name() != "NewFlagSet" {
						continue
					}
					id, ok := as.Lhs[i].(*ast.Ident)
					v := p.info.Types[call.Args[0]].Value
					if !ok || v == nil || v.Kind() != constant.String {
						t.Errorf("%s: a FlagSet must be assigned to a variable and named by a constant", m.fset.Position(call.Pos()))
						continue
					}
					obj := p.info.Defs[id]
					if obj == nil {
						obj = p.info.Uses[id]
					}
					sets[obj] = constant.StringVal(v)
					subs[prog][constant.StringVal(v)] = true
				}
				return true
			})
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := flagFunc(p, call)
				if f == nil || !flagDefiners[f.Name()] {
					return true
				}
				pos := m.fset.Position(call.Pos()).String()
				key := prog
				if f.Type().(*types.Signature).Recv() != nil {
					id, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.Ident)
					if !ok || sets[p.info.Uses[id]] == "" {
						t.Errorf("%s: flag of a FlagSet no flag.NewFlagSet assignment names", pos)
						return true
					}
					key += " " + sets[p.info.Uses[id]]
				}
				name := ""
				for _, arg := range call.Args {
					if v := p.info.Types[arg].Value; v != nil && v.Kind() == constant.String {
						name = constant.StringVal(v)
						break
					}
				}
				if name == "" {
					t.Errorf("%s: flag name is not a constant", pos)
					return true
				}
				if defined[key] == nil {
					defined[key] = map[string]bool{}
				}
				defined[key][name] = true
				if _, ok := uncitedFlagAllowlist[key+" -"+name]; ok {
					allowed[key+" -"+name] = true
					return true
				}
				if !regexp.MustCompile(`(^|[^\w-])--?` + regexp.QuoteMeta(name) + `($|[^\w-])`).MatchString(cited(key)) {
					t.Errorf("%s: %s -%s is cited in no doc line that names %s: cite it, or fold it into its default", pos, key, name, key)
				}
				return true
			})
		}
	}
	counts := map[string]int{}
	for key, flags := range defined {
		counts[key] = len(flags)
	}
	t.Logf("flags defined per program and subcommand: %v", counts)
	for _, u := range units {
		for _, c := range u.commands() {
			for _, words := range shellCommands(c.text) {
				key, prog := "", ""
				for _, w := range words {
					if p := programNamed(w, subs); p != "" {
						key, prog = p, p
						continue
					}
					if key == prog && subs[prog][w] {
						key = prog + " " + w
						continue
					}
					prog = "" // a subcommand only follows the program's name
					name, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
					if key == "" || !strings.HasPrefix(w, "-") || name == "" || name == "h" || name == "help" {
						continue
					}
					if !defined[key][name] {
						t.Errorf("%s: %s cites %s, which %s does not define", c.pos, c.text, w, key)
					}
				}
			}
		}
	}
	for key := range uncitedFlagAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no flag", key)
		}
	}
}

// flagFunc returns the flag package function, or *FlagSet method, that
// call calls, or nil.
func flagFunc(p *modulePkg, call *ast.CallExpr) *types.Func {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if f, ok := p.info.Uses[se.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "flag" {
		return f
	}
	return nil
}

// programNamed returns the program a command word names — psfctl,
// ./psfctl, ./cmd/psfctl — or "".
func programNamed(word string, programs map[string]map[string]bool) string {
	for prog := range programs {
		if word == prog || strings.HasSuffix(word, "/"+prog) {
			return prog
		}
	}
	return ""
}
