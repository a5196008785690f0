package sprite

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// A census is a go/ast view of every Go file in the tree: this module, the
// bench/ module, cmd/ and examples/. The guards below read it rather than
// grep, so a name in a comment or a string literal is never taken for a use.
type census struct {
	files []censusFile
	fset  *token.FileSet
}

type censusFile struct {
	path  string // slash-separated, relative to the tree's root
	test  bool   // a _test.go file
	lines int
	ast   *ast.File
}

// takeCensus parses every .go file under fsys, skipping hidden directories
// (.git, build output) and testdata.
func takeCensus(fsys fs.FS) (*census, error) {
	c := &census{fset: token.NewFileSet()}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(c.fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		c.files = append(c.files, censusFile{
			path:  p,
			test:  strings.HasSuffix(p, "_test.go"),
			lines: bytes.Count(src, []byte("\n")),
			ast:   f,
		})
		return nil
	})
	return c, err
}

var treeCensus = sync.OnceValues(func() (*census, error) { return takeCensus(os.DirFS(".")) })

func mustTreeCensus(t *testing.T) *census {
	t.Helper()
	c, err := treeCensus()
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	return c
}

// An apiFunc is an exported top-level function or method declared in a
// non-test file under internal/.
type apiFunc struct {
	name   string // pkg.Func or pkg.Type.Method
	pos    string // file:line of the declaration
	lines  int    // with its doc comment
	called bool   // its bare name is used in some non-test file
}

func (c *census) internalAPI() []apiFunc {
	used := c.nonTestUses()
	var api []apiFunc
	for _, f := range c.files {
		if f.test || !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := f.ast.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				name = f.ast.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			from, to := c.fset.Position(start), c.fset.Position(fn.End())
			api = append(api, apiFunc{
				name:   name,
				pos:    fmt.Sprintf("%s:%d", f.path, c.fset.Position(fn.Pos()).Line),
				lines:  to.Line - from.Line + 1,
				called: used[fn.Name.Name],
			})
		}
	}
	return api
}

func recvTypeName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// nonTestUses is every name that a non-test file uses as an identifier or a
// selector, function and method declarations' own names aside. It matches
// on names alone, so a call through an interface, or to any method of the
// same name, counts as a use: the guard may miss dead code but never calls
// used code dead.
func (c *census) nonTestUses() map[string]bool {
	used := map[string]bool{}
	for _, f := range c.files {
		if f.test {
			continue
		}
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}
	return used
}

// uncalledAPI reports each exported internal/ function or method with no
// use outside _test.go files, unless allow names it, and each allow entry
// that is no longer declared or has gained a caller, so the list cannot rot.
func uncalledAPI(c *census, allow map[string]string) []string {
	var problems []string
	declared := map[string]bool{}
	for _, fn := range c.internalAPI() {
		declared[fn.name] = true
		_, allowed := allow[fn.name]
		switch {
		case !fn.called && !allowed:
			problems = append(problems, fmt.Sprintf("%s: %s (%d lines) has no caller outside _test.go files", fn.pos, fn.name, fn.lines))
		case fn.called && allowed:
			problems = append(problems, fmt.Sprintf("allowlist: %s has a caller outside _test.go files; drop its line", fn.name))
		}
	}
	for _, name := range sortedKeys(allow) {
		if !declared[name] {
			problems = append(problems, fmt.Sprintf("allowlist: %s is no longer declared; drop its line", name))
		}
	}
	return problems
}

// testOnlyAPI lists the exported internal/ functions and methods that only
// tests call, each with its reason: a hook another package's tests need, or
// a method an interface calls. Keep it to 15 lines at most; what only the
// declaring package's tests need moves into its _test.go files instead.
var testOnlyAPI = map[string]string{
	"core.Network.RelocatePrimaryEntry": "chaos: TestChaosMutationCatchesStrandedEntry plants a misplaced primary",
	"core.Network.DropReplicaEntry":     "chaos: TestChaosMutationCatchesReplicaBug drops a replica behind the repair path",
	"telemetry.Snapshot.Deterministic":  "eval: TestVirtualDeterminismAcrossRuns compares snapshots without wall-clock fields",
	"chordid.FromUint64":                "chord, index and chordid tests place nodes and keys at legible ring positions",
	"transport.WithDialTimeout":         "internal/nettransport's test-only package (left as it is) bounds its dials",
	"wire.RegisterBinary":               "internal/nettransport's test-only package (left as it is) registers its payload's codec",
	"core.PartialError.Unwrap":          "errors.Is and errors.As call it through the error chain",
	"eval.Report.MarshalJSON":           "encoding/json calls it through json.Marshaler",
}

func TestExportedNamesHaveCallers(t *testing.T) {
	if n := len(testOnlyAPI); n > 15 {
		t.Errorf("testOnlyAPI has %d entries; the limit is 15", n)
	}
	for _, p := range uncalledAPI(mustTreeCensus(t), testOnlyAPI) {
		t.Error(p)
	}
}

// deployBuilders are the constructors that wire a transport, a ring and a
// core network together. Only internal/deploy, and the benchmark module,
// may name them: every other site builds its deployment with deploy.New.
var deployBuilders = map[string]bool{
	"simnet.New": true, "transport.New": true, "vtime.NewSim": true,
	"chord.NewRing": true, "core.NewNetwork": true,
}

// handBuiltDeployments reports, as file:line, each use of a deployBuilders
// constructor in a non-test file outside internal/deploy and bench/.
func handBuiltDeployments(c *census) []string {
	var problems []string
	for _, f := range c.files {
		if f.test || strings.HasPrefix(f.path, "internal/deploy/") || strings.HasPrefix(f.path, "bench/") {
			continue
		}
		internal := map[string]string{} // import name → internal/ package
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if _, pkg, ok := strings.Cut(p, "/internal/"); ok {
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				internal[name] = pkg
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && deployBuilders[internal[x.Name]+"."+sel.Sel.Name] {
					problems = append(problems, fmt.Sprintf("%s:%d: %s.%s builds a deployment by hand; call deploy.New",
						f.path, c.fset.Position(sel.Pos()).Line, internal[x.Name], sel.Sel.Name))
				}
			}
			return true
		})
	}
	return problems
}

func TestDeploymentsBuiltOneWay(t *testing.T) {
	for _, p := range handBuiltDeployments(mustTreeCensus(t)) {
		t.Error(p)
	}
}

var (
	docBackticked = regexp.MustCompile("`([^`\n]+)`")
	docCallArgs   = regexp.MustCompile(`\([\w., *]*\)$`)
	docReceiver   = regexp.MustCompile(`\(\*([A-Za-z_]\w*)\)`)
	docIdentifier = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	docCommit     = regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	docFile       = regexp.MustCompile(`\.(go|json|mod|md|sh|yml)$`)
)

// docName returns a backticked token as a name, with call parentheses and a
// receiver's (*T) stripped, if it is one or more dotted Go identifiers that
// are not a file name or a commit hash.
func docName(tok string) (string, bool) {
	tok = docReceiver.ReplaceAllString(docCallArgs.ReplaceAllString(tok, ""), "$1")
	return tok, docIdentifier.MatchString(tok) && !docFile.MatchString(tok) && !docCommit.MatchString(tok)
}

// docVocabulary returns the names a document may put in backticks: each
// name declared in the tree (packages, functions, methods, types, fields,
// constants, variables, parameters, JSON field tags), each string literal
// the tree uses as a name (message types, metrics, commands) and its last
// dotted component, and each cmd/ and examples/ directory. stdlib holds the
// standard-library packages the tree imports: a token they qualify is not
// checked.
func (c *census) docVocabulary() (names, stdlib map[string]bool) {
	names, stdlib = map[string]bool{}, map[string]bool{}
	for _, f := range c.files {
		names[f.ast.Name.Name] = true
		if dir := path.Dir(f.path); strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") {
			names[path.Base(dir)] = true
		}
		for _, imp := range f.ast.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && !strings.Contains(strings.Split(p, "/")[0], ".") {
				stdlib[path.Base(p)] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var ids []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				ids = []*ast.Ident{n.Name}
			case *ast.TypeSpec:
				ids = []*ast.Ident{n.Name}
			case *ast.Field:
				ids = n.Names
				if n.Tag != nil {
					if tag, err := strconv.Unquote(n.Tag.Value); err == nil {
						json, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
						names[json] = true
					}
				}
			case *ast.ValueSpec:
				ids = n.Names
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, x := range n.Lhs {
						if id, ok := x.(*ast.Ident); ok {
							ids = append(ids, id)
						}
					}
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && docIdentifier.MatchString(s) {
					names[s] = true
					names[s[strings.LastIndex(s, ".")+1:]] = true
				}
			}
			for _, id := range ids {
				names[id.Name] = true
			}
			return true
		})
	}
	return names, stdlib
}

// undeclaredDocNames reports each identifier-shaped backticked token in a
// document that names nothing in the tree, each dotted part checked apart
// and Go's predeclared names and keywords accepted, unless allow names the
// token; and each allow entry no document uses or that now names something.
func undeclaredDocNames(c *census, docs map[string]string, allow map[string]string) []string {
	names, stdlib := c.docVocabulary()
	known := func(tok string) bool {
		if names[tok] {
			return true
		}
		parts := strings.Split(tok, ".")
		if stdlib[parts[0]] {
			return true
		}
		for _, p := range parts {
			if !names[p] && !token.IsKeyword(p) && types.Universe.Lookup(p) == nil {
				return false
			}
		}
		return true
	}
	var problems []string
	seen := map[string]bool{}
	for _, doc := range sortedKeys(docs) {
		for i, line := range strings.Split(docs[doc], "\n") {
			for _, m := range docBackticked.FindAllStringSubmatch(line, -1) {
				tok, ok := docName(m[1])
				if !ok {
					continue
				}
				if _, ok := allow[tok]; ok {
					seen[tok] = true
					continue
				}
				if !known(tok) {
					problems = append(problems, fmt.Sprintf("%s:%d: `%s` names nothing declared in the tree", doc, i+1, m[1]))
				}
			}
		}
	}
	for _, tok := range sortedKeys(allow) {
		switch {
		case !seen[tok]:
			problems = append(problems, fmt.Sprintf("allowlist: `%s` is in no document; drop its line", tok))
		case known(tok):
			problems = append(problems, fmt.Sprintf("allowlist: `%s` now names something in the tree; drop its line", tok))
		}
	}
	return problems
}

// docOnlyNames lists the backticked, identifier-shaped tokens in DESIGN.md
// and README.md that name nothing in the tree on purpose, each with its
// reason. Keep it to 15 lines at most.
var docOnlyNames = map[string]string{}

func TestDocsNameOnlyDeclaredIdentifiers(t *testing.T) {
	if n := len(docOnlyNames); n > 15 {
		t.Errorf("docOnlyNames has %d entries; the limit is 15", n)
	}
	docs := map[string]string{}
	for _, name := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	for _, p := range undeclaredDocNames(mustTreeCensus(t), docs, docOnlyNames) {
		t.Error(p)
	}
}

// TestCensusGuardsOnFixture runs the guards on a small tree parsed from
// strings, so each rule is seen to hold without depending on the real one.
func TestCensusGuardsOnFixture(t *testing.T) {
	file := func(src string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(src)} }
	c, err := takeCensus(fstest.MapFS{
		"internal/a/a.go": file(`package a

type T struct{}

func (T) Greet() string { return "hi" }

func OnlyTests()   {}
func UsedByBench() {}
func UsedByCmd()   {}
func Hook()        {}
func Gained()      {}
`),
		"internal/a/a_test.go": file(`package a

type Greeter interface{ Greet() string }

func TestA() { OnlyTests(); Hook(); Gained() }
`),
		"bench/main.go": file(`package main

import "example.com/internal/a"

func main() { a.UsedByBench() }
`),
		"cmd/tool/main.go": file(`package main

import (
	"strings"

	"example.com/internal/a"
	sim "example.com/internal/simnet"
)

const msgPing = "demo.ping"

func main() {
	var g a.Greeter = a.T{}
	_ = strings.ToUpper(g.Greet())
	a.UsedByCmd()
	a.Gained()
	_ = sim.New(1)
}
`),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := uncalledAPI(c, map[string]string{
		"a.Hook":   "only tests call it",
		"a.Gained": "cmd/tool now calls it",
		"a.Gone":   "no longer declared",
	})
	want := []string{
		"internal/a/a.go:7: a.OnlyTests (1 lines) has no caller outside _test.go files",
		"allowlist: a.Gained has a caller outside _test.go files; drop its line",
		"allowlist: a.Gone is no longer declared; drop its line",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("uncalledAPI on the fixture:\n got %q\nwant %q", got, want)
	}

	got = handBuiltDeployments(c)
	want = []string{"cmd/tool/main.go:17: simnet.New builds a deployment by hand; call deploy.New"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("handBuiltDeployments on the fixture:\n got %q\nwant %q", got, want)
	}

	doc := "`a.T.Greet`, `(*T).Greet()`, `demo.ping`, `ping`, `tool`, `strings.Gone`, `main.go`, `abc1234`, " +
		"`a.Gone`, `UsedByCmd(x)`, `Lost`\n`Kept` `Greet` `x + y`"
	got = undeclaredDocNames(c, map[string]string{"D.md": doc}, map[string]string{
		"Kept":  "named on purpose",
		"Greet": "declared, so the line has gone stale",
		"Never": "in no document",
	})
	want = []string{
		"D.md:1: `a.Gone` names nothing declared in the tree",
		"D.md:1: `Lost` names nothing declared in the tree",
		"allowlist: `Greet` now names something in the tree; drop its line",
		"allowlist: `Never` is in no document; drop its line",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("undeclaredDocNames on the fixture:\n got %q\nwant %q", got, want)
	}
}

// TestCensus prints the tree's Go line counts per package directory, test
// files apart, with bench/ and examples/ on lines of their own:
//
//	go test -run TestCensus -v .
func TestCensus(t *testing.T) {
	type count struct{ code, test int }
	pkgs := map[string]*count{}
	var internal, rest count // internal/; everything but bench/ and examples/
	for _, f := range mustTreeCensus(t).files {
		add := func(c *count) {
			if f.test {
				c.test += f.lines
			} else {
				c.code += f.lines
			}
		}
		dir := path.Dir(f.path)
		top, _, _ := strings.Cut(dir, "/")
		if top == "bench" || top == "examples" {
			dir = top + "/"
		} else {
			add(&rest)
		}
		if top == "internal" {
			add(&internal)
		}
		if pkgs[dir] == nil {
			pkgs[dir] = &count{}
		}
		add(pkgs[dir])
	}
	t.Logf("%-32s %8s %8s", "package", "non-test", "test")
	for _, dir := range sortedKeys(pkgs) {
		t.Logf("%-32s %8d %8d", dir, pkgs[dir].code, pkgs[dir].test)
	}
	t.Logf("%-32s %8d %8d", "internal/ total", internal.code, internal.test)
	t.Logf("%-32s %8d %8d", "total without bench/ examples/", rest.code, rest.test)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
