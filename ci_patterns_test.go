package partsvc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameExistingTests fails when a test the CI workflow
// selects by name no longer exists. `go test -run 'A|B' pkg` says only
// "[no tests to run]" when the whole pattern misses and nothing at all
// when one alternative of several does, so a renamed or deleted test
// drops out of CI silently. Every -run, -bench and -fuzz pattern of a
// `go test` line in .github/workflows/ci.yml is split into its
// top-level alternatives, and each must match a Test, Benchmark or Fuzz
// function declared in the _test.go files of the packages the line
// names.
func TestCIPatternsNameExistingTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		for _, sel := range ciSelections(line) {
			var names []string
			for _, pkg := range sel.pkgs {
				names = append(names, testFuncs(t, pkg)...)
			}
			for _, alt := range alternatives(sel.pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s pattern %q: %v", i+1, sel.flag, alt, err)
					continue
				}
				if !matchesAny(re, names) {
					t.Errorf("ci.yml:%d: %s alternative %q matches no test in %s", i+1, sel.flag, alt, strings.Join(sel.pkgs, " "))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no named test in ci.yml; has the go test line format changed?")
	}
}

// ciSelection is one name pattern of a go test command line and the
// packages it runs against.
type ciSelection struct {
	flag, pattern string
	pkgs          []string
}

var goTestLine = regexp.MustCompile(`(^|\s)go test\s`)

// ciSelections parses the go test command on a workflow line, if any.
// A pattern of ^$ selects nothing on purpose.
func ciSelections(line string) []ciSelection {
	loc := goTestLine.FindStringIndex(line)
	if loc == nil {
		return nil
	}
	var flags [][2]string
	var pkgs []string
	words := shellWords(line[loc[1]:])
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			if strings.HasPrefix(w, ".") {
				pkgs = append(pkgs, filepath.Clean(w))
			}
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
		if name != "run" && name != "bench" && name != "fuzz" {
			continue
		}
		if !hasValue && i+1 < len(words) {
			i++
			value = words[i]
		}
		flags = append(flags, [2]string{"-" + name, value})
	}
	var out []ciSelection
	for _, f := range flags {
		if f[1] != "^$" {
			out = append(out, ciSelection{flag: f[0], pattern: f[1], pkgs: pkgs})
		}
	}
	return out
}

// shellWords splits a command on blanks up to its first unquoted pipe,
// honouring single and double quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
scan:
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '|':
			break scan
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// alternatives splits a go test name pattern into the alternatives of
// its top level: the part before the first unbracketed slash (the
// subtest levels are not checked), cut at every '|' outside
// parentheses and brackets.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i <= len(pattern); i++ {
		if i == len(pattern) || (depth == 0 && (pattern[i] == '|' || pattern[i] == '/')) {
			alts = append(alts, pattern[start:i])
			if i < len(pattern) && pattern[i] == '/' {
				break
			}
			start = i + 1
			continue
		}
		switch pattern[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		}
	}
	return alts
}

// testFuncs returns the Test, Benchmark and Fuzz functions declared in
// the _test.go files of one package directory.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Errorf("ci.yml names package %s, which has no test files", dir)
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
