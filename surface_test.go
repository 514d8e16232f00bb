package dynmds

// The surface gate: code stays only if non-test code uses it. The
// module's package graph comes from `go list -deps -export -json`, every
// non-test file of the module is type-checked (the standard library from
// its export data), and six kinds of entry fail the test:
//
//  1. a package-level func, method, type, var or const in internal/ or
//     cmd/, exported or not, that no non-test code references outside
//     its own declaration;
//  2. a method of an interface declared in internal/ that no non-test
//     code calls;
//  3. an exported field of an internal/ struct that non-test code reads
//     but never writes — a knob only tests turn;
//  4. an exported field of an internal/ …Config or …Options struct, or
//     of a struct one holds, that non-test code sets to one constant and
//     only inside a defaulting function (Default…, …defaults/…Defaults,
//     Normalize) — a knob no two runs set differently, which belongs in
//     a constant;
//  5. an exported field of an internal/ struct that non-test code writes
//     but never reads — state no run looks at. Taking the field's address,
//     as a checkpoint walk does, is neither a read nor a write;
//  6. outside internal/sim and bench/, a declaration that posts pending
//     work as a closure: it converts a func literal, a method value or
//     any other func that is not a package-level func to sim.EventFunc,
//     passes a func value where an interface is expected, or calls
//     (*sim.Engine).At. Every pending event is then a named EventFunc
//     and its two operands, which a checkpoint can name.
//
// A method is used when its type implements an interface that has it and
// that interface is either declared in a package the module imports
// (fmt.Stringer, flag.Value, error, and the errors package's Unwrap, Is
// and As protocols) or declared in the module with that method called. A
// test-support package — one that only _test.go files import — counts
// uses from tests. Every internal/ package other than those must be
// reached by one of the module's main packages.
//
// testdata/surface_allow.txt exempts an entry, one per line: import
// path, identifier, and a one-line reason. An entry that no longer names
// a finding fails the test, so the list cannot rot.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Deps         []string
	Module       *struct{ Path string }
}

// modulePackage is one package of the module, type-checked from its
// non-test files.
type modulePackage struct {
	*listedPackage
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// surface is a type-checked module and what its non-test code uses.
type surface struct {
	fset    *token.FileSet
	root    string
	modPath string
	pkgs    []*modulePackage // dependency order
	byPath  map[string]*modulePackage
	std     types.Importer
	// testSupport holds the packages only _test.go files import.
	testSupport map[string]bool
	// considered holds the key of every entry findings checked.
	considered map[string]bool
}

type finding struct {
	pos  token.Position
	key  string // import path, space, identifier
	what string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.pos.Filename, f.pos.Line, f.key, f.what)
}

// loadSurface lists and type-checks the module rooted at dir.
func loadSurface(dir string) (*surface, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	s := &surface{
		fset:        token.NewFileSet(),
		root:        root,
		byPath:      map[string]*modulePackage{},
		testSupport: map[string]bool{},
	}
	exports := map[string]string{}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if s.modPath == "" && lp.Module != nil {
			s.modPath = lp.Module.Path
		}
		mp := &modulePackage{listedPackage: lp}
		s.pkgs = append(s.pkgs, mp)
		s.byPath[lp.ImportPath] = mp
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})

	importedByCode := map[string]bool{}
	for _, p := range s.pkgs {
		for _, imp := range p.Imports {
			importedByCode[imp] = true
		}
		files, err := s.parse(p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		p.files = files
		p.info = newInfo()
		conf := types.Config{Importer: s.importer()}
		if p.types, err = conf.Check(p.ImportPath, s.fset, files, p.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
	}
	for _, p := range s.pkgs {
		for _, imp := range append(p.TestImports, p.XTestImports...) {
			if q := s.byPath[imp]; q != nil && q.Name != "main" && !importedByCode[imp] {
				s.testSupport[imp] = true
			}
		}
	}
	return s, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func (s *surface) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importer resolves module packages to their type-checked form and the
// rest from export data.
func (s *surface) importer() types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if p := s.byPath[path]; p != nil {
			if p.types == nil {
				return nil, fmt.Errorf("%s imported before it was checked", path)
			}
			return p.types, nil
		}
		return s.std.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// testUses type-checks the test files of every package whose tests
// import a test-support package, and returns their uses of objects that
// test-support packages declare. Errors are ignored: imports only tests
// need have no export data here, and the uses that matter resolve anyway.
func (s *surface) testUses() map[types.Object]bool {
	uses := map[types.Object]bool{}
	check := func(path string, dir string, names []string) {
		files, err := s.parse(dir, names)
		if err != nil {
			return
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: s.importer(), Error: func(error) {}}
		conf.Check(path, s.fset, files, info)
		for _, obj := range info.Uses {
			if obj.Pkg() != nil && s.testSupport[obj.Pkg().Path()] {
				uses[origin(obj)] = true
			}
		}
	}
	importsSupport := func(paths []string) bool {
		for _, p := range paths {
			if s.testSupport[p] {
				return true
			}
		}
		return false
	}
	for _, p := range s.pkgs {
		if len(p.TestGoFiles) > 0 && (s.testSupport[p.ImportPath] || importsSupport(p.TestImports)) {
			check(p.ImportPath, p.Dir, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
		}
		if len(p.XTestGoFiles) > 0 && (s.testSupport[p.ImportPath] || importsSupport(p.XTestImports)) {
			check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
		}
	}
	return uses
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// checked reports whether rule 1 applies to the package; rules 2 and 3
// take internal/ alone.
func (s *surface) checked(path string) bool {
	return s.internal(path) || strings.HasPrefix(path, s.modPath+"/cmd/")
}

func (s *surface) internal(path string) bool {
	return strings.HasPrefix(path, s.modPath+"/internal/")
}

// decl is a rule-1 candidate's key and the spans of source where a
// reference to it does not count (its own declaration, and for a type
// the receivers of its methods).
type decl struct {
	key   string
	spans [][2]token.Pos
}

func (d *decl) inside(pos token.Pos) bool {
	for _, sp := range d.spans {
		if sp[0] <= pos && pos < sp[1] {
			return true
		}
	}
	return false
}

// name is the identifier a finding and the allow-list use: Name, or
// Type.Name for a method or field.
func name(recv types.Type, obj types.Object) string {
	if recv == nil {
		return obj.Name()
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		return n.Obj().Name() + "." + obj.Name()
	}
	return obj.Name()
}

func (s *surface) key(obj types.Object, recv types.Type) string {
	return obj.Pkg().Path() + " " + name(recv, obj)
}

// position is pos with its file name relative to the module root.
func (s *surface) position(pos token.Pos) token.Position {
	p := s.fset.Position(pos)
	if rel, err := filepath.Rel(s.root, p.Filename); err == nil {
		p.Filename = rel
	}
	return p
}

// findings applies the reachability rule and the five identifier rules.
func (s *surface) findings() []finding {
	s.considered = map[string]bool{}
	var out []finding
	add := func(pos token.Pos, key, what string) {
		out = append(out, finding{pos: s.position(pos), key: key, what: what})
	}

	reached := map[string]bool{}
	for _, p := range s.pkgs {
		if p.Name == "main" {
			reached[p.ImportPath] = true
			for _, d := range p.Deps {
				reached[d] = true
			}
		}
	}
	for _, p := range s.pkgs {
		if !s.internal(p.ImportPath) || s.testSupport[p.ImportPath] {
			continue
		}
		key := p.ImportPath + " package"
		s.considered[key] = true
		if !reached[p.ImportPath] {
			add(p.files[0].Package, key, "no main package of the module reaches it: wire it into one or delete it")
		}
	}

	// Rule-1 candidates, and the receiver spans that do not count as
	// uses of a type.
	cands := map[types.Object]*decl{}
	for _, p := range s.pkgs {
		if !s.checked(p.ImportPath) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (d.Name.Name == "init" || (p.Name == "main" && d.Name.Name == "main")) {
						continue
					}
					cands[obj] = &decl{key: s.key(obj, recvType(obj)), spans: [][2]token.Pos{{d.Pos(), d.End()}}}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[spec.Name]
							cands[obj] = &decl{key: s.key(obj, nil), spans: [][2]token.Pos{{spec.Pos(), spec.End()}}}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.Name == "_" {
									continue
								}
								obj := p.info.Defs[id]
								cands[obj] = &decl{key: s.key(obj, nil), spans: [][2]token.Pos{{spec.Pos(), spec.End()}}}
							}
						}
					}
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if c := cands[p.info.Uses[recvIdent(fd.Recv.List[0].Type)]]; c != nil {
						c.spans = append(c.spans, [2]token.Pos{fd.Recv.Pos(), fd.Recv.End()})
					}
				}
			}
		}
	}

	// Rule-2 candidates: the methods internal/ interfaces declare.
	ifaceMethods := map[types.Object]string{}
	var moduleIfaces []*types.Named
	var concrete []*types.Named
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					n, ok := p.info.Defs[spec.(*ast.TypeSpec).Name].Type().(*types.Named)
					if !ok || n.TypeParams().Len() > 0 {
						continue
					}
					it, ok := n.Underlying().(*types.Interface)
					if !ok {
						concrete = append(concrete, n)
						continue
					}
					moduleIfaces = append(moduleIfaces, n)
					if s.internal(p.ImportPath) {
						for i := 0; i < it.NumExplicitMethods(); i++ {
							m := it.ExplicitMethod(i)
							ifaceMethods[m] = s.key(m, n)
						}
					}
				}
			}
		}
	}

	// Uses by non-test code, and by tests for test-support packages.
	used := s.testUses()
	for _, p := range s.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if c := cands[obj]; c != nil && c.inside(id.Pos()) {
				continue
			}
			used[obj] = true
		}
	}

	// A method an interface requires is used when that interface is
	// declared outside the module (in a package the module imports) or
	// when the module calls that method through it.
	type iface struct {
		t       *types.Interface
		methods []*types.Func
	}
	var ifaces []iface
	addExternal := func(t *types.Interface) {
		var ms []*types.Func
		for i := 0; i < t.NumMethods(); i++ {
			ms = append(ms, t.Method(i))
		}
		if len(ms) > 0 {
			ifaces = append(ifaces, iface{t, ms})
		}
	}
	addExternal(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	stdImported := map[string]bool{}
	for _, p := range s.pkgs {
		for _, imp := range p.Imports {
			if s.byPath[imp] == nil {
				stdImported[imp] = true
			}
		}
	}
	for path := range stdImported {
		pkg, err := s.std.Import(path)
		if err != nil {
			continue
		}
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 {
					if it, ok := nt.Underlying().(*types.Interface); ok {
						addExternal(it)
					}
				}
			}
		}
	}
	if stdImported["errors"] {
		// errors.Is and errors.As call these through unnamed interfaces.
		for _, src := range []string{"Unwrap() error", "Unwrap() []error", "Is(error) bool", "As(any) bool"} {
			addExternal(parseIface(src))
		}
	}
	for _, n := range moduleIfaces {
		it := n.Underlying().(*types.Interface)
		var ms []*types.Func
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); used[m] {
				ms = append(ms, m)
			}
		}
		if len(ms) > 0 {
			ifaces = append(ifaces, iface{it, ms})
		}
	}
	for _, n := range concrete {
		for _, v := range []types.Type{n, types.NewPointer(n)} {
			for _, it := range ifaces {
				if !types.Implements(v, it.t) {
					continue
				}
				for _, m := range it.methods {
					if fn, _, _ := types.LookupFieldOrMethod(v, false, m.Pkg(), m.Name()); fn != nil {
						used[origin(fn)] = true
					}
				}
			}
		}
	}

	for obj, c := range cands {
		s.considered[c.key] = true
		if !used[obj] {
			add(obj.Pos(), c.key, kind(obj)+" that no non-test code uses")
		}
	}
	for m, key := range ifaceMethods {
		s.considered[key] = true
		if !used[m] {
			add(m.Pos(), key, "interface method that no non-test code calls")
		}
	}
	out = append(out, s.knobs()...)
	out = append(out, s.posts()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].key < out[j].key
	})
	return out
}

// setting is what rule 4 knows of the writes to one field: the constant
// a defaulting function stores, and whether any write stores something
// else or happens anywhere else.
type setting struct {
	value  constant.Value
	varied bool
}

// defaulting reports whether a function of this name fills in defaults.
func defaulting(name string) bool {
	return strings.HasPrefix(name, "Default") || strings.HasSuffix(name, "defaults") ||
		strings.HasSuffix(name, "Defaults") || name == "Normalize"
}

// knobs applies rules 3, 4 and 5 to the exported fields of internal/
// structs. A write is a composite-literal key, an unkeyed literal, an
// assignment, ++/--, &, a pointer-receiver method call on the field, or
// any field along a mutated selector chain. Rule 3 flags a field that is
// read and never written. Rule 4 flags a field of a …Config or …Options
// struct (or of a struct one holds) whose every write sits in a
// defaulting function and stores the same constant there; ++ and op= in
// a defaulting function only refine the value already stored. Rule 5
// flags a field that is stored to (a literal, an assignment, ++/--, op=)
// and never loaded: every selector of it that is not itself the target
// of a store or of & loads it, the inner links of a chain included.
// Rule 5 passes over embedded fields.
func (s *surface) knobs() []finding {
	read := map[*types.Var]bool{}
	written := map[*types.Var]bool{}
	settings := map[*types.Var]*setting{}
	stored := map[*types.Var]bool{}
	loaded := map[*types.Var]bool{}
	for _, p := range s.pkgs {
		info := p.info
		inDefault := false
		// notLoaded holds the selectors that are the target of a store
		// or of &; target marks e as one and, for a store, records its
		// field as stored.
		notLoaded := map[*ast.SelectorExpr]bool{}
		target := func(e ast.Expr, store bool) {
			for {
				x, ok := e.(*ast.ParenExpr)
				if !ok {
					break
				}
				e = x.X
			}
			x, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			notLoaded[x] = true
			if sel := info.Selections[x]; store && sel != nil && sel.Kind() == types.FieldVal {
				fields := selectionFields(sel)
				stored[fields[len(fields)-1]] = true
			}
		}
		// note records one write of f: val is the value stored, nil when
		// the write stores no single expression (&, a method call, a
		// partial write through the field); refine marks ++ and op=.
		note := func(f *types.Var, val ast.Expr, refine bool) {
			written[f] = true
			st := settings[f]
			if st == nil {
				st = &setting{}
				settings[f] = st
			}
			switch {
			case !inDefault:
				st.varied = true
			case refine:
			case val == nil || info.Types[val].Value == nil:
				st.varied = true
			case st.value == nil:
				st.value = info.Types[val].Value
			case !constant.Compare(st.value, token.EQL, info.Types[val].Value):
				st.varied = true
			}
		}
		markWrite := func(e, val ast.Expr, refine bool) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					sel := info.Selections[x]
					if sel == nil || sel.Kind() != types.FieldVal {
						return
					}
					fields := selectionFields(sel)
					for i, f := range fields {
						if i == len(fields)-1 {
							note(f, val, refine)
						} else {
							note(f, nil, false)
						}
					}
					e = x.X
				default:
					return
				}
				val, refine = nil, false
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				inDefault = ok && defaulting(fd.Name.Name)
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						sel := info.Selections[n]
						if sel == nil {
							break
						}
						fields := selectionFields(sel)
						for i, f := range fields {
							read[f] = true
							if i < len(fields)-1 || sel.Kind() != types.FieldVal || !notLoaded[n] {
								loaded[f] = true
							}
						}
						if sel.Kind() == types.MethodVal && pointerRecv(sel.Obj()) {
							for _, f := range fields {
								note(f, nil, false)
							}
							markWrite(n.X, nil, false)
						}
					case *ast.CompositeLit:
						t := info.Types[n].Type
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									note(f.Origin(), kv.Value, false)
									stored[f.Origin()] = true
								}
							} else {
								note(st.Field(i).Origin(), elt, false)
								stored[st.Field(i).Origin()] = true
							}
						}
					case *ast.AssignStmt:
						switch {
						case n.Tok == token.DEFINE:
						case n.Tok != token.ASSIGN:
							markWrite(n.Lhs[0], nil, true)
							target(n.Lhs[0], true)
						case len(n.Lhs) == len(n.Rhs):
							for i, l := range n.Lhs {
								markWrite(l, n.Rhs[i], false)
								target(l, true)
							}
						default:
							for _, l := range n.Lhs {
								markWrite(l, nil, false)
								target(l, true)
							}
						}
					case *ast.IncDecStmt:
						markWrite(n.X, nil, true)
						target(n.X, true)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markWrite(n.X, nil, false)
							target(n.X, false)
						}
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							markWrite(n.Key, nil, false)
							markWrite(n.Value, nil, false)
							target(n.Key, true)
							target(n.Value, true)
						}
					}
					return true
				})
			}
		}
	}

	var out []finding
	configs := s.configStructs()
	for _, p := range s.pkgs {
		if !s.internal(p.ImportPath) {
			continue
		}
		for _, n := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				key := s.key(f, tn.Type())
				s.considered[key] = true
				if read[f] && !written[f] {
					out = append(out, finding{pos: s.position(f.Pos()), key: key, what: "field that non-test code reads and never writes"})
				}
				// An embedded field lends the struct its methods, which an
				// interface call reaches without a selector.
				if stored[f] && !loaded[f] && !f.Embedded() {
					out = append(out, finding{pos: s.position(f.Pos()), key: key, what: "field that non-test code writes and never reads"})
				}
				if set := settings[f]; configs[tn] && set != nil && set.value != nil && !set.varied {
					out = append(out, finding{pos: s.position(f.Pos()), key: key,
						what: fmt.Sprintf("config field that only a defaulting function sets, always to %s: make it a constant", set.value)})
				}
			}
		}
	}
	return out
}

// posts applies rule 6 to every declaration outside internal/sim and
// bench/, keyed by the declaration's name. A func value is judged where
// a call argument, a conversion, an assignment, a typed var or a
// composite-literal element gives it a sim.EventFunc or an interface
// type; passing on a value that is already an EventFunc converts
// nothing.
func (s *surface) posts() []finding {
	simPath := s.modPath + "/internal/sim"
	eventFunc := func(t types.Type) bool {
		n, ok := t.(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == simPath && n.Obj().Name() == "EventFunc"
	}
	var out []finding
	for _, p := range s.pkgs {
		exempt := p.ImportPath == simPath || p.ImportPath == s.modPath+"/bench" || strings.HasPrefix(p.ImportPath, s.modPath+"/bench/")
		info := p.info
		for _, f := range p.files {
			for _, d := range f.Decls {
				key := p.ImportPath + " " + declName(info, d)
				s.considered[key] = true
				if exempt {
					continue
				}
				flag := func(n ast.Node, what string) {
					out = append(out, finding{pos: s.position(n.Pos()), key: key, what: what})
				}
				// into judges e where a value of type t is expected.
				into := func(e ast.Expr, t types.Type) {
					if e == nil || t == nil {
						return
					}
					e = ast.Unparen(e)
					et := info.Types[e].Type
					if et == nil || types.Identical(et, t) {
						return
					}
					if _, ok := et.Underlying().(*types.Signature); !ok {
						return
					}
					var fn *types.Func
					switch x := e.(type) {
					case *ast.Ident:
						fn, _ = info.Uses[x].(*types.Func)
					case *ast.SelectorExpr:
						if info.Selections[x] == nil {
							fn, _ = info.Uses[x.Sel].(*types.Func)
						}
					}
					_, typeParam := t.(*types.TypeParam)
					switch {
					case eventFunc(t) && (fn == nil || recvType(fn) != nil):
						flag(e, "a closure or method value posted as a sim.EventFunc: post a package-level func and its operands")
					case types.IsInterface(t) && !typeParam:
						flag(e, "a func value passed as an interface: post a package-level sim.EventFunc and its operands")
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if sel := info.Selections[n]; sel != nil && sel.Obj().Name() == "At" && sel.Obj().Pkg() != nil &&
							sel.Obj().Pkg().Path() == simPath && recvType(sel.Obj().(*types.Func)) != nil {
							flag(n, "calls (*sim.Engine).At: post with AtCall")
						}
					case *ast.CallExpr:
						tv := info.Types[n.Fun]
						if tv.IsType() && len(n.Args) == 1 {
							into(n.Args[0], tv.Type)
						}
						sig, ok := tv.Type.(*types.Signature)
						if !ok || tv.IsBuiltin() {
							break
						}
						for i, arg := range n.Args {
							into(arg, paramType(sig, i, n.Ellipsis.IsValid()))
						}
					case *ast.AssignStmt:
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							for i, l := range n.Lhs {
								into(n.Rhs[i], info.Types[l].Type)
							}
						}
					case *ast.ValueSpec:
						if n.Type != nil {
							for _, v := range n.Values {
								into(v, info.Types[n.Type].Type)
							}
						}
					case *ast.CompositeLit:
						t := info.Types[n].Type
						if t == nil {
							break
						}
						for i, elt := range n.Elts {
							val, key := elt, ast.Expr(nil)
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								val, key = kv.Value, kv.Key
							}
							switch u := t.Underlying().(type) {
							case *types.Struct:
								if key != nil {
									if v, ok := info.Uses[key.(*ast.Ident)].(*types.Var); ok {
										into(val, v.Type())
									}
								} else if i < u.NumFields() {
									into(val, u.Field(i).Type())
								}
							case *types.Slice:
								into(val, u.Elem())
							case *types.Array:
								into(val, u.Elem())
							case *types.Map:
								into(key, u.Key())
								into(val, u.Elem())
							}
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// paramType is the type a call's i-th argument is passed as.
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	ps := sig.Params()
	switch {
	case sig.Variadic() && i >= ps.Len()-1 && !spread:
		return ps.At(ps.Len() - 1).Type().(*types.Slice).Elem()
	case i < ps.Len():
		return ps.At(i).Type()
	}
	return nil
}

// declName names a top-level declaration: its func, Type.Method, or
// the first name it declares.
func declName(info *types.Info, d ast.Decl) string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		obj := info.Defs[d.Name].(*types.Func)
		return name(recvType(obj), obj)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				return spec.Name.Name
			case *ast.ValueSpec:
				return spec.Names[0].Name
			}
		}
	}
	return "import"
}

// configStructs returns rule 4's structs: every internal/ struct type
// named …Config or …Options, and every internal/ struct one of those
// holds in a field (by value, pointer, slice, array or map), transitively.
func (s *surface) configStructs() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	var hold func(t types.Type)
	hold = func(t types.Type) {
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			case *types.Map:
				t = u.Elem()
				continue
			}
			break
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || !s.internal(n.Obj().Pkg().Path()) || out[n.Obj()] {
			return
		}
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return
		}
		out[n.Obj()] = true
		for i := 0; i < st.NumFields(); i++ {
			hold(st.Field(i).Type())
		}
	}
	for _, p := range s.pkgs {
		if !s.internal(p.ImportPath) {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok &&
				(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				hold(tn.Type())
			}
		}
	}
	return out
}

// selectionFields returns the fields a selection passes through: the
// embedded fields it promotes through, and the field itself when it
// selects one.
func selectionFields(sel *types.Selection) []*types.Var {
	idx := sel.Index()
	if sel.Kind() != types.FieldVal {
		idx = idx[:len(idx)-1]
	}
	var out []*types.Var
	t := sel.Recv()
	for _, i := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		f := st.Field(i)
		out = append(out, f.Origin())
		t = f.Type()
	}
	return out
}

func pointerRecv(obj types.Object) bool {
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	_, ok := recv.Type().(*types.Pointer)
	return ok
}

func recvType(fn *types.Func) types.Type {
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		return r.Type()
	}
	return nil
}

// recvIdent is the type name of a receiver expression: T, *T, T[P].
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

func kind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if recvType(o) != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// parseIface type-checks interface{ src }.
func parseIface(src string) *types.Interface {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "iface.go", "package p; type I interface{ "+src+" }", 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return pkg.Scope().Lookup("I").Type().Underlying().(*types.Interface)
}

// readAllowList parses testdata/surface_allow.txt: per line an import
// path, an identifier and a reason.
func readAllowList(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want an import path, an identifier and a reason", path, line)
		}
		allow[fields[0]+" "+fields[1]] = line
	}
	return allow, sc.Err()
}

// TestSurface fails on every identifier, interface method, knob and
// package the rules above find in this module, less the allow-list.
func TestSurface(t *testing.T) {
	s, err := loadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	const allowPath = "testdata/surface_allow.txt"
	allow, err := readAllowList(allowPath)
	if err != nil {
		t.Fatal(err)
	}
	bad, stale := applyAllowList(s.findings(), allow)
	if len(bad) > 0 {
		lines := make([]string, len(bad))
		for i, f := range bad {
			lines[i] = f.String()
		}
		t.Errorf("%d findings — delete what only tests use or move it into the owning package's _test.go, and rewrite the rest as each line says:\n%s",
			len(bad), strings.Join(lines, "\n"))
	}
	for _, key := range stale {
		t.Errorf("%s:%d: %s names nothing the gate flags: delete the entry", allowPath, allow[key], key)
	}
}

// applyAllowList splits off the findings the allow-list does not exempt
// and returns, sorted, the allow-list keys that exempt nothing.
func applyAllowList(findings []finding, allow map[string]int) (bad []finding, stale []string) {
	matched := map[string]bool{}
	for _, f := range findings {
		if _, ok := allow[f.key]; ok {
			matched[f.key] = true
			continue
		}
		bad = append(bad, f)
	}
	for key := range allow {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return bad, stale
}

// TestSurfaceRules runs the gate over the module in testdata/surface,
// whose identifiers each exercise one rule or one exemption.
func TestSurfaceRules(t *testing.T) {
	s, err := loadSurface("testdata/surface")
	if err != nil {
		t.Fatal(err)
	}
	findings := s.findings()
	flagged := map[string]bool{}
	for _, f := range findings {
		flagged[f.key] = true
	}
	const a, p = "surfacefix/internal/a ", "surfacefix/internal/post "
	for _, c := range []struct {
		name, key string
		flagged   bool
	}{
		{"dead method", a + "T.Dead", true},
		{"method of an interface nothing calls", a + "Runner.Stop", true},
		{"implementation of that method", a + "task.Stop", true},
		{"knob set only from a test file", a + "Config.Knob", true},
		{"config field only a default sets, to one constant", a + "Config.Limit", true},
		{"config field a main package sets to another value", a + "Config.Retries", false},
		{"config field a default sets from its parameter", a + "Config.Size", false},
		{"package no main package reaches", "surfacefix/internal/orphan package", true},
		{"interface method that is called", a + "Runner.Run", false},
		{"String method", a + "T.String", false},
		{"flag.Value implementation", a + "Level.Set", false},
		{"Unwrap() error", a + "wrapped.Unwrap", false},
		{"field written through x.A.B++", a + "Outer.A", false},
		{"leaf of that chain", a + "Inner.B", false},
		{"unkeyed struct literal", a + "Pair.X", false},
		{"field only incremented", a + "Counters.Bumps", true},
		{"field incremented and walked by &", a + "Counters.Walked", true},
		{"field incremented and read once", a + "Counters.Seen", false},
		{"test-support package", "surfacefix/internal/testsupport Helper", false},
		{"package-level func posted as an EventFunc", p + "Named", false},
		{"EventFunc passed on", p + "Forward", false},
		{"func literal posted as an EventFunc", p + "Literal", true},
		{"method value posted as an EventFunc", p + "MethodValue", true},
		{"func passed where any is expected", p + "Payload", true},
		{"call of Engine.At", p + "Bare", true},
		{"Engine.At inside the engine", "surfacefix/internal/sim Engine.At", false},
		{"Engine.At from bench/", "surfacefix/bench main", false},
	} {
		// A passing row must name an entry the gate looked at, or a
		// typo in its key would pass it.
		if !s.considered[c.key] {
			t.Errorf("%s: the gate never considered %s", c.name, c.key)
		} else if flagged[c.key] != c.flagged {
			t.Errorf("%s: %s flagged = %v, want %v", c.name, c.key, flagged[c.key], c.flagged)
		}
	}
	// An allow-list entry exempts the finding it names, and one that
	// names no finding is reported.
	bad, stale := applyAllowList(findings, map[string]int{a + "T.Dead": 1, a + "T.String": 2})
	for _, f := range bad {
		if f.key == a+"T.Dead" {
			t.Error("allow-listed T.Dead still reported")
		}
	}
	if len(stale) != 1 || stale[0] != a+"T.String" {
		t.Errorf("stale allow-list entries %v, want [%sT.String]", stale, a)
	}
}
