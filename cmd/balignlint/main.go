// Command balignlint is the repository's determinism linter. The whole
// point of this codebase is that a solve is a pure function of (module,
// profile, machine model, seed) — CHANGES.md pins bit-identical layouts
// across schedules — so the lint hunts the three ways nondeterminism
// usually sneaks into Go code:
//
//   - range over a map inside a solver kernel (internal/tsp,
//     internal/align): map iteration order is deliberately randomized by
//     the runtime, so any result that depends on it differs run to run.
//   - time.Now inside a solver kernel: wall-clock reads make results
//     depend on machine load rather than inputs. The kernels cancel
//     through a context.Context instead.
//   - the global math/rand source anywhere in the repository: the
//     top-level rand functions are seeded per-process, so they cannot
//     reproduce; every RNG here must be rand.New(rand.NewSource(seed)).
//
// A fourth rule keeps production code free of code only tests call.
// When the whole module is linted (no directory arguments, as CI runs
// it), test-only flags every function or method declared in a non-test
// file under internal/ (internal/testutil, which only tests import,
// aside) whose name occurs as an identifier nowhere else in the module's
// non-test files. Identifiers are read from the AST, so names in
// strings and comments do not count; a name shared with any other
// identifier hides a candidate rather than inventing a finding.
// Reference implementations belong in _test.go files, where they serve
// as oracles.
//
// A finding is suppressed by a //balignlint:ignore comment on the same
// line or the line directly above; the convention is to follow the
// directive with the reason the site is deterministic anyway (e.g. the
// map range feeds a totally ordered sort). In a whole-module run the
// stale-ignore rule flags every directive that suppresses no finding,
// so a directive cannot outlive the site it excused.
//
// The reporting shape follows go/analysis (file:line:col: check: msg,
// non-zero exit on findings), but the implementation is plain go/parser
// + go/types because the module intentionally has no dependencies.
//
// Usage: balignlint [dir ...] — with no arguments, lints every Go
// package under the module root. Exit status: 0 clean, 1 findings,
// 2 operational failure.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// testSupportDir holds the helpers shared by the test suites; only tests
// import it, so the test-only rule does not apply to it.
const testSupportDir = "internal/testutil"

// kernelDirs are the module-relative package directories held to the
// stricter solver-kernel rules (map ranges and wall-clock reads, in
// addition to the repo-wide RNG rule).
var kernelDirs = map[string]bool{
	"internal/tsp":   true,
	"internal/align": true,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fl := flag.NewFlagSet("balignlint", flag.ContinueOnError)
	fl.SetOutput(errw)
	fl.Usage = func() {
		fmt.Fprintf(errw, "usage: balignlint [dir ...]\nLints the module for determinism hazards; see package doc.\n")
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}

	root, modPath, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(errw, "balignlint: %v\n", err)
		return 2
	}

	dirs := fl.Args()
	if len(dirs) == 0 {
		if dirs, err = goDirs(root); err != nil {
			fmt.Fprintf(errw, "balignlint: %v\n", err)
			return 2
		}
	} else {
		for i, d := range dirs {
			abs, err := filepath.Abs(d)
			if err != nil {
				fmt.Fprintf(errw, "balignlint: %v\n", err)
				return 2
			}
			dirs[i] = abs
		}
	}

	fset := token.NewFileSet()
	var findings []finding
	var all, prod, internal []*ast.File
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			fmt.Fprintf(errw, "balignlint: %s is outside module root %s\n", dir, root)
			return 2
		}
		rel = filepath.ToSlash(rel)
		pkg, err := parseDir(fset, dir)
		if err != nil {
			fmt.Fprintf(errw, "balignlint: %v\n", err)
			return 2
		}

		for _, f := range pkg.all() {
			findings = append(findings, checkRandGlobals(fset, f)...)
		}
		if kernelDirs[rel] {
			for _, f := range pkg.files {
				findings = append(findings, checkTimeNow(fset, f)...)
			}
			pkgPath := modPath
			if rel != "." {
				pkgPath = modPath + "/" + rel
			}
			mr, err := checkMapRange(fset, pkg.files, pkgPath)
			if err != nil {
				fmt.Fprintf(errw, "balignlint: type-checking %s: %v\n", pkgPath, err)
				return 2
			}
			findings = append(findings, mr...)
		}

		all = append(all, pkg.all()...)
		prod = append(prod, pkg.files...)
		if strings.HasPrefix(rel, "internal/") && rel != testSupportDir {
			internal = append(internal, pkg.files...)
		}
	}
	whole := len(fl.Args()) == 0
	if whole {
		findings = append(findings, checkTestOnly(fset, prod, internal)...)
	}
	findings, stale := suppress(fset, all, findings)
	if whole {
		// Only a whole-module run applies every check, so only it can
		// tell that a directive suppresses nothing.
		findings = append(findings, stale...)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, f := range findings {
		pos := f.pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintf(out, "%s: %s: %s\n", pos, f.check, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(errw, "balignlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod and returns its directory and module path.
func moduleRoot() (root, modPath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(dir, "go.mod")
		if _, serr := os.Stat(gm); serr == nil {
			f, err := os.Open(gm)
			if err != nil {
				return "", "", err
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", gm)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// goDirs lists every directory under root that contains Go files,
// skipping hidden and underscore-prefixed directories and testdata.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// pkgFiles holds one directory's parsed Go files, split so the kernel
// checks can exclude tests (deadline tests legitimately read the clock).
type pkgFiles struct {
	files, testFiles []*ast.File
}

func (p *pkgFiles) all() []*ast.File {
	return append(append([]*ast.File(nil), p.files...), p.testFiles...)
}

func parseDir(fset *token.FileSet, dir string) (*pkgFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &pkgFiles{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			pkg.testFiles = append(pkg.testFiles, af)
		} else {
			pkg.files = append(pkg.files, af)
		}
	}
	return pkg, nil
}
