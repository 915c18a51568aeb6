package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// finding is one diagnostic: where, which check fired, and why.
type finding struct {
	pos   token.Position
	check string
	msg   string
}

// randGlobalFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the process-global, non-reproducibly seeded
// source. Constructors (New, NewSource, NewZipf, NewPCG, NewChaCha8)
// are fine: they are how the repo builds its seeded generators.
var randGlobalFuncs = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// checkRandGlobals flags calls through the global math/rand source.
// Applied to every file in the repository, tests included: a test that
// cannot reproduce its own failure is as bad as a solver that cannot.
func checkRandGlobals(fset *token.FileSet, f *ast.File) []finding {
	var out []finding
	for _, path := range []string{"math/rand", "math/rand/v2"} {
		name, spec := importName(f, path)
		if spec == nil {
			continue
		}
		if name == "." {
			out = append(out, finding{
				pos:   fset.Position(spec.Pos()),
				check: "rand-global",
				msg:   fmt.Sprintf("dot import of %s hides global-source calls from the lint; import it named", path),
			})
			continue
		}
		if name == "_" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != name || !randGlobalFuncs[sel.Sel.Name] {
				return true
			}
			out = append(out, finding{
				pos:   fset.Position(call.Pos()),
				check: "rand-global",
				msg: fmt.Sprintf("%s.%s uses the process-global source and is not reproducible; use rand.New(rand.NewSource(seed))",
					name, sel.Sel.Name),
			})
			return true
		})
	}
	return out
}

// checkTimeNow flags wall-clock reads inside solver-kernel packages.
func checkTimeNow(fset *token.FileSet, f *ast.File) []finding {
	name, spec := importName(f, "time")
	if spec == nil || name == "_" || name == "." {
		return nil
	}
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && sel.Sel.Name == "Now" {
			out = append(out, finding{
				pos:   fset.Position(call.Pos()),
				check: "time-now",
				msg:   "time.Now in a solver kernel makes results depend on machine load, not inputs",
			})
		}
		return true
	})
	return out
}

// checkMapRange type-checks the package and flags every range statement
// over a map inside it. Map iteration order is runtime-randomized, so a
// kernel result that depends on it varies run to run; sites that launder
// the order (e.g. into a totally ordered sort) carry an ignore directive
// saying so.
func checkMapRange(fset *token.FileSet, files []*ast.File, pkgPath string) ([]finding, error) {
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(pkgPath, fset, files, info); err != nil {
		return nil, err
	}
	return mapRangeFindings(fset, files, info), nil
}

// mapRangeFindings is the typed half of checkMapRange, split out so
// tests can supply their own types.Info.
func mapRangeFindings(fset *token.FileSet, files []*ast.File, info *types.Info) []finding {
	var out []finding
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				out = append(out, finding{
					pos:   fset.Position(rs.Pos()),
					check: "map-range",
					msg:   fmt.Sprintf("range over %s in a solver kernel: map iteration order is randomized", t),
				})
			}
			return true
		})
	}
	return out
}

// checkTestOnly flags every function and method declared in candidates
// whose name occurs as an identifier nowhere in prod but at its own
// declaration. prod holds every non-test file of the module, candidates
// among them; identifiers come from the AST, so strings and comments
// never count as uses.
func checkTestOnly(fset *token.FileSet, prod, candidates []*ast.File) []finding {
	uses := map[string]int{}
	for _, f := range prod {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
	}
	var out []finding
	for _, f := range candidates {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || uses[fd.Name.Name] > 1 {
				continue
			}
			out = append(out, finding{
				pos:   fset.Position(fd.Name.Pos()),
				check: "test-only",
				msg:   fmt.Sprintf("%s is named by no other non-test file; move it into a _test.go file or delete it", fd.Name.Name),
			})
		}
	}
	return out
}

// importName returns the local name under which path is imported in f
// ("rand" by default, the alias if renamed, "." or "_" verbatim) and the
// import spec, or ("", nil) when f does not import it.
func importName(f *ast.File, path string) (string, *ast.ImportSpec) {
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || p != path {
			continue
		}
		if spec.Name != nil {
			return spec.Name.Name, spec
		}
		// Default name: last path segment, skipping a vN version suffix
		// (math/rand/v2 imports as "rand").
		segs := strings.Split(p, "/")
		name := segs[len(segs)-1]
		if len(segs) > 1 && len(name) > 1 && name[0] == 'v' && name[1] >= '0' && name[1] <= '9' {
			name = segs[len(segs)-2]
		}
		return name, spec
	}
	return "", nil
}

// suppress drops findings covered by a //balignlint:ignore comment on
// the same line or the line directly above, in any of the given files.
// It returns the findings it kept and, as stale-ignore findings, the
// directives that covered none.
func suppress(fset *token.FileSet, files []*ast.File, findings []finding) (kept, stale []finding) {
	type directive struct {
		pos  token.Position
		used bool
	}
	var dirs []*directive
	byLine := map[string]*directive{}
	key := func(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if strings.HasPrefix(text, "balignlint:ignore") {
					d := &directive{pos: fset.Position(c.Pos())}
					dirs = append(dirs, d)
					byLine[key(d.pos.Filename, d.pos.Line)] = d
				}
			}
		}
	}
	for _, fd := range findings {
		same, above := byLine[key(fd.pos.Filename, fd.pos.Line)], byLine[key(fd.pos.Filename, fd.pos.Line-1)]
		if same == nil && above == nil {
			kept = append(kept, fd)
			continue
		}
		for _, d := range []*directive{same, above} {
			if d != nil {
				d.used = true
			}
		}
	}
	for _, d := range dirs {
		if !d.used {
			stale = append(stale, finding{pos: d.pos, check: "stale-ignore",
				msg: "balignlint:ignore suppresses no finding; delete it"})
		}
	}
	return kept, stale
}
