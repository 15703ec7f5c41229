package partsvc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

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

// TestExportedFuncsHaveProductionCallers fails on an exported function
// or method declared in a non-test file of the module (benchmark/
// included) whose name no non-test file mentions anywhere outside its
// own declaration. The check is by name, so it is conservative: a name
// shared with any other identifier passes. Code that only tests call
// belongs in a _test.go file, or goes.
func TestExportedFuncsHaveProductionCallers(t *testing.T) {
	if len(productionCallerAllowlist) > 10 {
		t.Fatalf("the allowlist has %d entries; keep it to 10", len(productionCallerAllowlist))
	}
	type decl struct{ key, pos string }
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, n := range f.Decls {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if _, ok := productionCallerAllowlist[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		if uses[name] == 0 {
			unused = append(unused, d.pos+": "+d.key)
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

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
