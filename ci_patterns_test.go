package partsvc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citationDocs are the files, and the directories whose files, that
// cite commands, tests and flags: the CI workflow, the scripts, and the
// docs a newcomer reads. TestCIPatternsNameExistingTests checks their
// test names and TestFlagsAreCited their flags.
var citationDocs = []string{
	filepath.Join(".github", "workflows", "ci.yml"),
	"scripts",
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	filepath.Join(".claude", "skills", "verify", "SKILL.md"),
}

// TestCIPatternsNameExistingTests fails when a test the CI workflow or
// a doc selects or names no longer exists. `go test -run 'A|B' pkg`
// says only "[no tests to run]" when the whole pattern misses and
// nothing at all when one alternative of several does, so a renamed or
// deleted test drops out of CI, and out of a doc's command, silently.
// Every -run, -bench and -fuzz pattern of a `go test` command in the
// citation docs is split into its top-level alternatives, and each must
// match a Test, Benchmark or Fuzz function declared in the _test.go
// files of the packages the command names (the root package when it
// names none; ./... is every package of the module). Outside those
// patterns, every Test, Benchmark or Fuzz name a doc mentions must be
// declared in some _test.go file of the module.
func TestCIPatternsNameExistingTests(t *testing.T) {
	units, err := citationUnits()
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{}
	declared := map[string]bool{}
	for _, dir := range packageDirs(".") {
		funcs[dir] = testFuncs(t, dir)
		for _, name := range funcs[dir] {
			declared[name] = true
		}
	}
	checked := 0
	for _, u := range units {
		for _, c := range u.commands() {
			for _, sel := range ciSelections(c.text) {
				var names []string
				for _, pkg := range sel.pkgs {
					if _, ok := funcs[pkg]; !ok {
						t.Errorf("%s: go test names package %s, which has no test files in the module", c.pos, pkg)
					}
					names = append(names, funcs[pkg]...)
				}
				for _, alt := range alternatives(sel.pattern) {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: %s pattern %q: %v", c.pos, sel.flag, alt, err)
						continue
					}
					if !matchesAny(re, names) {
						t.Errorf("%s: %s alternative %q matches no test in %s", c.pos, sel.flag, alt, strings.Join(sel.pkgs, " "))
					}
					checked++
				}
			}
		}
		for _, name := range testName.FindAllString(namePattern.ReplaceAllString(u.text, ""), -1) {
			if !declared[name] {
				t.Errorf("%s: %s is declared in no _test.go file of the module", u.pos(), name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no named test in the citation docs; has the go test line format changed?")
	}
}

var (
	// testName is a Test, Benchmark or Fuzz function's name.
	testName = regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// namePattern is a go test name pattern, which a doc may cite by
	// a prefix of the names it selects.
	namePattern = regexp.MustCompile(`-(run|bench|fuzz)[= ]('[^']*'|"[^"]*"|\S+)`)
)

// ciSelection is one name pattern of a go test command and the
// packages it runs against.
type ciSelection struct {
	flag, pattern string
	pkgs          []string
}

// ciSelections parses the go test commands of one command line. A
// pattern of ^$ selects nothing on purpose; the words after -args go to
// the test binary.
func ciSelections(line string) []ciSelection {
	var out []ciSelection
	for _, words := range shellCommands(line) {
		start := -1
		for i := 0; i+1 < len(words); i++ {
			if words[i] == "go" && words[i+1] == "test" {
				start = i + 2
				break
			}
		}
		if start < 0 {
			continue
		}
		var flags [][2]string
		var pkgs []string
		for i := start; i < len(words); i++ {
			w := words[i]
			if w == "-args" {
				break
			}
			if !strings.HasPrefix(w, "-") {
				if strings.HasPrefix(w, ".") {
					pkgs = append(pkgs, packageArg(w)...)
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
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		for _, f := range flags {
			if f[1] != "^$" {
				out = append(out, ciSelection{flag: f[0], pattern: f[1], pkgs: pkgs})
			}
		}
	}
	return out
}

// packageArg turns a relative package argument into directories:
// itself, or every package below it for a /... pattern (the pattern's
// root when nothing is below it, so that the miss is reported).
func packageArg(arg string) []string {
	if root, ok := strings.CutSuffix(arg, "..."); ok {
		if dirs := packageDirs(filepath.Clean(root)); len(dirs) > 0 {
			return dirs
		}
		arg = root
	}
	return []string{filepath.Clean(arg)}
}

// packageDirs walks root, skipping testdata, dot-directories and
// nested modules (benchmark/), and returns the directories that hold a
// _test.go file.
func packageDirs(root string) []string {
	var dirs []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
			return filepath.SkipDir
		}
		if tests, _ := filepath.Glob(filepath.Join(path, "*_test.go")); len(tests) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs
}

// shellCommands splits a command line into the words of each command,
// cutting at unquoted pipes, semicolons and ampersands, honouring single
// and double quotes, and dropping a # comment.
func shellCommands(s string) [][]string {
	var cmds [][]string
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	endWord := func() {
		if inWord {
			words = append(words, cur.String())
			cur.Reset()
			inWord = false
		}
	}
scan:
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '#' && !inWord:
			break scan
		case r == '|' || r == ';' || r == '&':
			endWord()
			if len(words) > 0 {
				cmds = append(cmds, words)
				words = nil
			}
		case r == ' ' || r == '\t':
			endWord()
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	endWord()
	if len(words) > 0 {
		cmds = append(cmds, words)
	}
	return cmds
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

// citationUnit is what a citation is judged by: a fenced block of a
// markdown file, or any other line.
type citationUnit struct {
	file     string
	line     int // the unit's first line
	text     string
	markdown bool
	fenced   bool
}

func (u citationUnit) pos() string { return fmt.Sprintf("%s:%d", u.file, u.line) }

// command is one command line of a unit.
type command struct {
	pos, text string
}

// commands returns a unit's command lines: every line of a fenced
// block, the inline code spans of a markdown line (in a table row, \|
// is a pipe), and any other line whole.
func (u citationUnit) commands() []command {
	if !u.markdown {
		return []command{{u.pos(), u.text}}
	}
	var out []command
	for i, line := range strings.Split(u.text, "\n") {
		if u.fenced {
			out = append(out, command{fmt.Sprintf("%s:%d", u.file, u.line+i), line})
			continue
		}
		row := strings.HasPrefix(strings.TrimSpace(line), "|")
		for j, span := range strings.Split(line, "`") {
			if j%2 == 1 {
				if row {
					span = strings.ReplaceAll(span, `\|`, "|")
				}
				out = append(out, command{u.pos(), span})
			}
		}
	}
	return out
}

// citationUnits splits the citation docs into units.
func citationUnits() ([]citationUnit, error) {
	var units []citationUnit
	for _, doc := range citationDocs {
		err := filepath.WalkDir(doc, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			markdown := strings.HasSuffix(path, ".md")
			var block []string
			fenced := false
			for i, line := range strings.Split(string(data), "\n") {
				if markdown && strings.HasPrefix(strings.TrimSpace(line), "```") {
					if fenced {
						units = append(units, citationUnit{path, i + 1 - len(block), strings.Join(block, "\n"), true, true})
						block = block[:0]
					}
					fenced = !fenced
					continue
				}
				if fenced {
					block = append(block, line)
				} else {
					units = append(units, citationUnit{path, i + 1, line, markdown, false})
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return units, nil
}
