// Package testutil provides shared helpers for the test suites of the
// alignment packages: compiling Mini-C snippets to IR and collecting
// profiles in one call.
package testutil

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
)

// Compile builds an IR module from Mini-C source.
func Compile(src string) (*ir.Module, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := minic.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	mod, err := lower.Program(info)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return mod, nil
}

// Profile runs mod on inputs and returns the collected profile and run
// result.
func Profile(mod *ir.Module, inputs []interp.Input) (*interp.Profile, interp.Result, error) {
	prof := interp.NewProfile(mod)
	res, err := interp.Run(mod, inputs, interp.Options{Profile: prof})
	return prof, res, err
}

// CompileAndProfile combines Compile and Profile.
func CompileAndProfile(src string, inputs []interp.Input) (*ir.Module, *interp.Profile, interp.Result, error) {
	mod, err := Compile(src)
	if err != nil {
		return nil, nil, interp.Result{}, err
	}
	prof, res, err := Profile(mod, inputs)
	return mod, prof, res, err
}

// BranchySource returns a Mini-C program exercising every terminator
// kind (conditional, switch, unconditional chains, returns, calls) with
// input-dependent behavior, for use as a test workload. The entry takes
// (input[], n).
const BranchySource = `
global histogram[8];
global total;

func classify(x) {
	if (x < 0) { return 0 - 1; }
	switch (x % 5) {
	case 0: return 10;
	case 1: return 11;
	case 2:
		if (x > 50) { return 22; }
		return 12;
	case 3: return 13;
	default: return 14;
	}
	return 99;
}

func tally(x) {
	var k = x % 8;
	if (k < 0) { k = k + 8; }
	histogram[k] = histogram[k] + 1;
	total = total + 1;
	return histogram[k];
}

func main(input[], n) {
	var i;
	var acc = 0;
	for (i = 0; i < n; i = i + 1) {
		var v = input[i];
		acc = acc + classify(v);
		if (v % 2 == 0 && v > 10) {
			acc = acc + tally(v);
		} else if (v % 3 == 0 || v < 0) {
			acc = acc - 1;
		}
		while (v > 100) {
			v = v / 2;
			acc = acc + 1;
		}
	}
	out(acc);
	out(total);
	return acc;
}
`

// ConflictSource returns a module whose original function order places a
// large cold function between two hot ones, so that under a small
// direct-mapped instruction cache the hot caller's loop lines alias with
// the first hot callee — the scenario interprocedural procedure ordering
// (layout.OrderFunctions) fixes. Entry is main(n).
func ConflictSource() string {
	var sb strings.Builder
	sb.WriteString("func hotA(x) { return x + 1; }\n")
	sb.WriteString("func coldPad(x) {\n var y = x;\n")
	for i := 0; i < 520; i++ {
		sb.WriteString(" y = y + 1;\n")
	}
	sb.WriteString(" return y;\n}\n")
	sb.WriteString(`
func hotB(x) { return x * 3 + 1; }
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		s = hotA(s);
		s = hotB(s);
		s = s & 65535;
	}
	if (n < 0) { s = coldPad(s); }
	return s;
}
`)
	return sb.String()
}

// BranchyInput produces a deterministic pseudo-random input vector for
// BranchySource.
func BranchyInput(n int, seed int64) []interp.Input {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63n(400) - 50
	}
	return []interp.Input{interp.ArrayInput(data), interp.ScalarInput(int64(n))}
}

// HottestSuccessor returns, for block b of fp, the successor index with
// the highest execution count (ties break toward the lower index,
// matching a deterministic static predictor) and that count. For blocks
// with no successors it returns (-1, 0).
func HottestSuccessor(fp *interp.FuncProfile, b int) (int, int64) {
	edges := fp.EdgeCounts[b]
	if len(edges) == 0 {
		return -1, 0
	}
	best, bestCount := 0, edges[0]
	for i := 1; i < len(edges); i++ {
		if edges[i] > bestCount {
			best, bestCount = i, edges[i]
		}
	}
	return best, bestCount
}

// InflatedBranchyProfile returns a profile of BranchySource, recorded on
// BranchyInput(n, seed), with every nonzero edge count replaced by count,
// serialized as JSON: the untrusted-profile probe for count overflow.
func InflatedBranchyProfile(n int, seed int64, count int64) ([]byte, error) {
	mod, err := Compile(BranchySource)
	if err != nil {
		return nil, err
	}
	prof, _, err := Profile(mod, BranchyInput(n, seed))
	if err != nil {
		return nil, err
	}
	for _, fp := range prof.Funcs {
		for _, edges := range fp.EdgeCounts {
			for i, c := range edges {
				if c != 0 {
					edges[i] = count
				}
			}
		}
	}
	var buf bytes.Buffer
	err = prof.WriteJSON(&buf)
	return buf.Bytes(), err
}
