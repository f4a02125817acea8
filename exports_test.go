package georoute_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported functions and methods under
// internal/ and addrtab/ that may have no reference in non-test code,
// each with the reason it stays.
var unreferencedAllowed = map[string]string{
	"MarshalJSON":   "encoding/json calls it",
	"UnmarshalJSON": "encoding/json calls it",

	"Cluster":                 "test hook: LocT and addrtab tests show their removals take the backward shift",
	"Attached":                "test hook: radio and vanet tests check that a departed node left the medium",
	"DespawnBulk":             "test hook: the churn tests remove vehicles in batches to exercise the world's detach path",
	"NewForgedBeaconAttacker": "the forged-beacon negative control of EXPERIMENTS.md, which its attack tests run",
}

// TestExportedFunctionsHaveCallers fails when an exported function or
// method declared under internal/ or addrtab/ is named nowhere in the
// tree's non-test Go files (bench/, cmd/ and examples/ count), so code
// only tests execute does not grow back. The match is by name, not by
// type: a method counts as referenced when any selector or identifier
// anywhere carries its name.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	refs := make(map[string]bool)
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "addrtab/")
		declared := make(map[*ast.Ident]bool) // a declaring name is no reference
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
				if checked && fd.Name.IsExported() {
					decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Pos())})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		if !refs[d.name] && unreferencedAllowed[d.name] == "" {
			t.Errorf("%s: %s has no reference outside tests; delete it or call it", d.pos, d.name)
		}
	}
}
