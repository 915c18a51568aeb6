package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestCheckRandGlobals(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"global call", `package p
import "math/rand"
var x = rand.Intn(3)`, 1},
		{"seeded generator", `package p
import "math/rand"
var rng = rand.New(rand.NewSource(1))
var x = rng.Intn(3)`, 0},
		{"renamed import", `package p
import mrand "math/rand"
var x = mrand.Float64()`, 1},
		{"dot import", `package p
import . "math/rand"
var x = Intn(3)`, 1},
		{"v2 global", `package p
import "math/rand/v2"
var x = rand.IntN(3)`, 1},
		{"no rand", `package p
var x = 3`, 0},
	}
	for _, c := range cases {
		fset, f := parseSrc(t, c.src)
		if got := len(checkRandGlobals(fset, f)); got != c.want {
			t.Errorf("%s: %d findings, want %d", c.name, got, c.want)
		}
	}
}

func TestCheckTimeNow(t *testing.T) {
	fset, f := parseSrc(t, `package p
import "time"
var t0 = time.Now()
var d = time.Second`)
	got := checkTimeNow(fset, f)
	if len(got) != 1 {
		t.Fatalf("%d findings, want 1", len(got))
	}
	if got[0].pos.Line != 3 {
		t.Errorf("finding at line %d, want 3", got[0].pos.Line)
	}
}

func TestMapRangeFindings(t *testing.T) {
	src := `package p
func sum(m map[int]int, s []int) int {
	tot := 0
	for k := range m {
		tot += k
	}
	for _, v := range s {
		tot += v
	}
	return tot
}
type set map[string]bool
func names(s set) int {
	n := 0
	for range s {
		n++
	}
	return n
}`
	fset, f := parseSrc(t, src)
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	got := mapRangeFindings(fset, []*ast.File{f}, info)
	if len(got) != 2 {
		t.Fatalf("%d findings, want 2 (plain map and named map type)", len(got))
	}
	if got[0].pos.Line != 4 || got[1].pos.Line != 15 {
		t.Errorf("findings at lines %d, %d; want 4, 15", got[0].pos.Line, got[1].pos.Line)
	}
}

func TestSuppress(t *testing.T) {
	src := `package p
import "math/rand"

//balignlint:ignore demo: suppressed by the line above
var a = rand.Intn(3)
var b = rand.Intn(3) //balignlint:ignore demo: suppressed on the same line

//balignlint:ignore demo: too far away to suppress

var c = rand.Intn(3)`
	fset, f := parseSrc(t, src)
	found := checkRandGlobals(fset, f)
	if len(found) != 3 {
		t.Fatalf("pre-suppression: %d findings, want 3", len(found))
	}
	kept, stale := suppress(fset, []*ast.File{f}, found)
	if len(kept) != 1 {
		t.Fatalf("post-suppression: %d findings, want 1", len(kept))
	}
	if kept[0].pos.Line != 10 {
		t.Errorf("kept finding at line %d, want 10", kept[0].pos.Line)
	}
	// The directive too far away suppresses nothing, so it is stale.
	if len(stale) != 1 || stale[0].check != "stale-ignore" || stale[0].pos.Line != 8 {
		t.Fatalf("stale directives = %+v, want one stale-ignore at line 8", stale)
	}
}

// TestCheckTestOnly lints a two-file module fixture: a library under
// internal/ and a command that calls part of it. Only the library
// functions no non-test file names are flagged; names in strings and
// comments, and uses from test files, do not count as uses.
func TestCheckTestOnly(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	lib := parse("internal/p/p.go", `package p

type T struct{}

func Used() T { return T{} }

func (T) Method() {}

func TestOnly() int { return 1 }

func (*T) Probe() int { return 2 }

func init() {}
`)
	cmd := parse("cmd/c/main.go", `package main

import "example/internal/p"

// TestOnly and Probe are only mentioned here.
var note = "TestOnly Probe"

func main() { p.Used().Method() }
`)
	// A test file may call everything; it is not among the non-test files.
	_ = parse("internal/p/p_test.go", `package p

var _ = TestOnly() + (&T{}).Probe()
`)
	got := checkTestOnly(fset, []*ast.File{lib, cmd}, []*ast.File{lib})
	var names []string
	for _, f := range got {
		if f.check != "test-only" {
			t.Errorf("finding from check %q", f.check)
		}
		names = append(names, strings.Fields(f.msg)[0])
	}
	if want := []string{"TestOnly", "Probe"}; strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("flagged %v, want %v", names, want)
	}
}

// TestRepoIsClean runs the full linter over the module, mirroring the
// CI vet-static step: the repository must lint clean, with every
// legitimate nondeterminism site carrying an ignore directive, and,
// through the stale-ignore rule, every directive suppressing a finding.
func TestRepoIsClean(t *testing.T) {
	var out, errw strings.Builder
	if code := run(nil, &out, &errw); code != 0 {
		t.Fatalf("balignlint exit %d on own repo\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// TestExplicitDirArgs lints just the kernel packages by path, the
// narrow invocation developers use while iterating on a solver.
func TestExplicitDirArgs(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"../../internal/tsp", "../../internal/align"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d linting kernel dirs\n%s", code, out.String())
	}
}

func TestOutsideModuleRejected(t *testing.T) {
	if code := run([]string{"/tmp"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("exit %d for out-of-module dir, want 2", code)
	}
}
