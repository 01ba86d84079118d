package dqs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Why an identifier in internal/ stays exported although no production
// file of another package names it.
const (
	benchOnly = "only bench/ uses it (goes with ROADMAP item 1c)"
	named     = "an exported field or signature names it"
	testOnly  = "only tests use it"
)

// exportAllowList may only shrink: TestInternalExportsAreUsed fails for an
// entry that gains a production use elsewhere or no longer exists.
var exportAllowList = map[string]string{
	"core.Attacher":                 benchOnly,
	"core.Canceller":                benchOnly,
	"core.FavorSetter":              benchOnly,
	"core.PendingDescriber":         benchOnly,
	"core.StarvationHandler":        benchOnly,
	"mem.Governor":                  benchOnly,
	"mem.NewGovernor":               benchOnly,
	"operator.NewPartitioned":       benchOnly,
	"operator.PartitionedHashTable": benchOnly,
	"relation.Buckets":              benchOnly,
	"comm.Producer":                 named, // Queue.SetProducer
	"core.EventKind":                named, // Event.Kind
	"exec.TerminalKind":             named, // Fragment.Term
	"exec.TermJoinNet":              named, // a value of Fragment.Term
	"exec.TermTemp":                 named, // a value of Fragment.Term
	"exec.TupleSource":              named, // Fragment.In
	"fault.Kind":                    named, // Clause.Kind
	"mem.IntRecycler":               named, // TempStore.SetPool
	"operator.Matches":              named, // HashTable.Probe
	"plan.NodeKind":                 named, // Node.Kind
	"relation.Generator":            named, // NewGenerator
	"source.Recycler":               named, // WithRecycler
	"workload.RandomSpec":           named, // Random
	"workload.StarSpec":             named, // Star
	"plan.Scans":                    testOnly,
	"reftest.Count":                 testOnly,
	"reftest.Eval":                  testOnly,
	"relation.NewSchema":            testOnly,
}

// TestInternalExportsAreUsed keeps every package in internal/ exporting
// only what another package's production code uses (bench/ and test files
// do not count as uses). Methods are out of its scope. It also logs the
// tree's exported-symbol count: exported package-level declarations and
// methods in non-test files outside bench/, examples/ and package main.
func TestInternalExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "core.State" → declaration
	used := map[string]bool{}
	exported := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		inBench := dir == "bench" || strings.HasPrefix(dir, "bench/")
		if !inBench && !strings.HasPrefix(dir, "examples/") && f.Name.Name != "main" {
			exported += countExported(f)
		}
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			for _, name := range packageLevelExports(f) {
				declared[pkg+"."+name.Name] = fset.Position(name.Pos())
			}
		}
		if inBench {
			return nil
		}
		imports := map[string]string{} // local name → package under internal/
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			pkg, ok := strings.CutPrefix(p, "dqs/internal/")
			if !ok {
				continue
			}
			local := pkg[strings.LastIndex(pkg, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				// A package name resolves to no object in its file; a local
				// variable of the same name does.
				if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && imports[id.Name] != "" {
					used[imports[id.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exported symbols: %d", exported)

	var unused []string
	for key, pos := range declared {
		if !used[key] && exportAllowList[key] == "" {
			unused = append(unused, pos.String()+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is used by no other package: unexport or delete it", u)
	}
	for key := range exportAllowList {
		if _, ok := declared[key]; !ok {
			t.Errorf("allow-list names %s, which no longer exists: drop the entry", key)
		} else if used[key] {
			t.Errorf("allow-list names %s, which another package now uses: drop the entry", key)
		}
	}
}

// packageLevelExports returns the exported package-level names a file
// declares: functions, types, variables and constants, not methods.
func packageLevelExports(f *ast.File) []*ast.Ident {
	var names []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n)
						}
					}
				}
			}
		}
	}
	return names
}

// countExported counts a file's exported package-level names and methods.
func countExported(f *ast.File) int {
	n := len(packageLevelExports(f))
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil && d.Name.IsExported() {
			n++
		}
	}
	return n
}
