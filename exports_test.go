package georoute_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/vanetsec/georoute"

// unreachedAllowed lists, by qualified name, the functions and methods
// under internal/ and addrtab/ that no non-test code reaches, each with
// the test that needs it and why no non-test path serves that test.
var unreachedAllowed = map[string]string{
	"addrtab.Table.Cluster":          "LocT and addrtab tests show a removal takes the backward shift; lookups hide where an entry sits",
	"attack.NewForgedBeaconAttacker": "attack tests run EXPERIMENTS.md's forged-beacon negative control, which no figure runs",
	"geonet.Unmarshal":               "wire, router, attack, forward and fuzz tests decode bare bytes; runs decode only through DecodeFrame, which needs a radio frame",
	"geonet.Packet.Clone":            "wire and router tests tamper with a captured packet's signed bytes; no run does, and Fork shares those bytes",
	"radio.Medium.Attached":          "radio and vanet tests check that a departed node left the medium; runs never ask",
	"telemetry.Counter.Value":        "telemetry and experiment tests read one handle, nil ones too; runs read every series through Registry.Snapshot",
	"telemetry.Gauge.Value":          "telemetry and experiment tests read one handle, nil ones too; runs read every series through Registry.Snapshot",
	"traffic.Lane.Vehicles":          "vanet's TestVehiclesMatchesSortedLanes rebuilds World.AppendVehicles from lane storage; runs read lanes only inside traffic",
	"traffic.Network.Road":           "vanet's TestVehiclesMatchesSortedLanes walks each segment's lanes; vanet builds each road and keeps no reference to it",
}

// dynamicInterfaces are the interfaces the standard library finds by a
// type assertion on a value handed to it as an any (fmt's %v, json's
// Marshal), so a method implementing one is reached without a call.
var dynamicInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// TestExportedFunctionsHaveCallers fails when a function or method
// declared under internal/ or addrtab/, exported or not, is not reached
// from the module's roots, so code only tests execute does not grow
// back. The roots are every main and init, each function of the public
// root package, every function of bench/ and the allowlisted hooks, plus
// the package-level variable initializers. Every package is type-checked,
// so a use resolves to its object, not to its name. A function is
// reached when the body of a reached function, or a root initializer,
// uses it; a method also when it implements an interface method used
// there (dispatch, as radio.Receiver's Deliver reaches
// geonet.Router.Deliver) or one of dynamicInterfaces. A whole dead
// cascade therefore fails in one run, and a use in a function's own body
// does not reach it.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	l := &moduleLoader{
		fset: token.NewFileSet(),
		pkgs: make(map[string]*types.Package),
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
	}
	// The source importer reads build.Default. Without cgo it type-checks
	// the standard library's pure-Go files, which declare the same API,
	// and needs no C compiler.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := l.load(path); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses lists the functions each declared function's body uses; the
	// nil key holds those the package-level initializers use.
	decls := make(map[*types.Func]*ast.FuncDecl)
	uses := make(map[*types.Func][]*types.Func)
	var roots []*types.Func
	collect := func(fn *types.Func, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used, ok := l.info.Uses[id].(*types.Func); ok {
					uses[fn] = append(uses[fn], used.Origin())
				}
			}
			return true
		})
	}
	for _, f := range l.files {
		file := l.fset.Position(f.Pos()).Filename
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				collect(nil, d)
				continue
			}
			fn := l.info.Defs[fd.Name].(*types.Func)
			decls[fn] = fd
			collect(fn, fd)
			entry := fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && fn.Pkg().Name() == "main")
			if entry || !strings.Contains(file, "/") || strings.HasPrefix(file, "bench/") {
				roots = append(roots, fn)
			}
		}
	}

	reached := make(map[*types.Func]bool)
	ifaceMethods := make(map[*types.Func]bool)
	var queue []*types.Func
	var mark func(fn *types.Func)
	// dispatch marks the methods that implement interface method m.
	dispatch := func(m *types.Func) {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for fn := range decls {
			recv := fn.Type().(*types.Signature).Recv()
			if reached[fn] || recv == nil || fn.Name() != m.Name() || isInterfaceMethod(fn) {
				continue
			}
			named := receiverNamed(recv.Type())
			if named.TypeParams().Len() == 0 && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				mark(fn)
			}
		}
	}
	// mark reaches fn and queues its body, or dispatches an interface
	// method the first time a reached body uses it.
	mark = func(fn *types.Func) {
		switch {
		case isInterfaceMethod(fn):
			if !ifaceMethods[fn] {
				ifaceMethods[fn] = true
				dispatch(fn)
			}
		case !reached[fn]:
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	walk := func(seed []*types.Func) {
		for _, fn := range seed {
			mark(fn)
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			for _, used := range uses[fn] {
				mark(used)
			}
		}
	}
	for _, di := range dynamicInterfaces {
		pkg, err := l.std.ImportFrom(di[0], ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		iface := pkg.Scope().Lookup(di[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			mark(iface.Method(i))
		}
	}
	walk(append(roots, uses[nil]...))

	// An allowlisted hook must be unreached from the other roots; then it
	// joins them, and what only it calls is reached too.
	var inScope []*types.Func
	byName := make(map[string]*types.Func)
	for fn, fd := range decls {
		pos := l.fset.Position(fd.Pos())
		if strings.HasPrefix(pos.Filename, "internal/") || strings.HasPrefix(pos.Filename, "addrtab/") {
			inScope = append(inScope, fn)
			byName[qualifiedName(fn)] = fn
		}
	}
	var hooks []*types.Func
	for name := range unreachedAllowed {
		fn := byName[name]
		switch {
		case fn == nil:
			t.Errorf("allowlist entry %s names no function under internal/ or addrtab/", name)
		case reached[fn]:
			t.Errorf("%s: %s is reached by non-test code; drop its allowlist entry", l.fset.Position(decls[fn].Pos()), name)
		default:
			hooks = append(hooks, fn)
		}
	}
	walk(hooks)

	var unreached []string
	for _, fn := range inScope {
		if !reached[fn] {
			unreached = append(unreached, l.fset.Position(decls[fn].Pos()).String()+": "+qualifiedName(fn))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached by no non-test code; delete it or call it", u)
	}
}

// moduleLoader type-checks the non-test files of each package of the
// module, bench/ included, into one types.Info, so every object has one
// identity however many packages import it. The standard library comes
// from source.
type moduleLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package // by directory
	files []*ast.File
	info  *types.Info
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, modulePath); ok && (rel == "" || rel[0] == '/') {
		return l.load("." + rel)
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *moduleLoader) load(dir string) (*types.Package, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	path := modulePath
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// receiverNamed returns the named type of a method's receiver, T for
// both T and *T.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// qualifiedName names a function as package.Func or package.Type.Method.
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		name += receiverNamed(recv.Type()).Obj().Name() + "."
	}
	return name + fn.Name()
}
