// Package check is the pipeline-wide invariant checker: a static-analysis
// layer that audits every stage of the branch-alignment pipeline and
// reports violations as structured findings. It machine-checks the
// properties the paper's argument rests on:
//
//   - profile flow conservation — every block of every function obeys the
//     Kirchhoff law Σ incoming edge counts = block count = Σ outgoing
//     edge counts, with entry/exit slack accounted against the weighted
//     call graph (Flow);
//   - layout and patch validity — a layout is a permutation of its
//     function's blocks starting at the entry, the emitted (patched) form
//     preserves CFG semantics after conditional-branch inversion and
//     fixup-jump insertion, and no fall-through reaches a non-successor
//     (Layout, VerifyEmitted);
//   - cost bookkeeping — the event-driven penalty accounting of
//     layout.Penalty matches a from-scratch recomputation via the DTSP
//     walk-cost semantics d(B, X) (Cost);
//   - bound consistency — the appendix's chain AP bound ≤ Held-Karp
//     bound ≤ tour cost holds within epsilon on every instance (Bounds,
//     BoundChain);
//   - IR dataflow lints built on the cfganal dominator machinery —
//     use-before-def registers, unreachable blocks and dead stores
//     (Module).
//
// Everything is exposed through the `balign vet` subcommand and, behind
// the pipe.Config.SelfCheck debug flag, inside the pipeline simulator.
package check

import (
	"fmt"
	"strings"
)

// Severity ranks a finding.
type Severity int

// Severities. An Error is a broken invariant: the pipeline produced an
// inconsistent artifact and no result downstream of it can be trusted. A
// Warning is a lint: suspicious but semantically harmless (the IR
// zero-initializes registers, so e.g. a use-before-def reads 0 instead of
// trapping).
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Class names an invariant family. Mutation tests seed one violation per
// class and assert the checker catches it.
type Class string

// Checker classes.
const (
	// ClassStructure: ir.Module.Verify failures (malformed IR).
	ClassStructure Class = "structure"
	// ClassFlow: profile flow-conservation (Kirchhoff) violations.
	ClassFlow Class = "flow-conservation"
	// ClassPermutation: a layout that is not a valid permutation of its
	// function's blocks (or does not start at the entry).
	ClassPermutation Class = "permutation"
	// ClassPatch: the emitted (patched) function does not preserve the
	// CFG's semantics — an edge changed target under branch inversion, or
	// control falls through to a non-successor.
	ClassPatch Class = "patch-equivalence"
	// ClassPlacement: instruction-address bookkeeping disagrees with an
	// independent recomputation (overlapping or gapped blocks, misplaced
	// fixup slots).
	ClassPlacement Class = "placement"
	// ClassCost: the incremental cost bookkeeping (event-driven
	// layout.Penalty) disagrees with the from-scratch DTSP walk-cost
	// recomputation.
	ClassCost Class = "cost-recompute"
	// ClassBounds: the AP ≤ HK ≤ tour bound chain is violated.
	ClassBounds Class = "bound-chain"
	// ClassUseBeforeDef: a register is read on some path before any
	// definition reaches it.
	ClassUseBeforeDef Class = "use-before-def"
	// ClassUnreachable: a block no path from the entry reaches.
	ClassUnreachable Class = "unreachable"
	// ClassDeadStore: a side-effect-free definition whose value is never
	// read before being overwritten.
	ClassDeadStore Class = "dead-store"
	// ClassIrreducible: the CFG contains a cycle that is not a natural
	// loop (multiple-entry region), which structured loop analyses and
	// the static profile estimator can only approximate.
	ClassIrreducible Class = "irreducible-loop"
	// ClassInfiniteLoop: a loop with no exit edge — statically certain to
	// never terminate once entered (legal IR, but usually a bug in the
	// source program, and the estimator assigns it zero flow).
	ClassInfiniteLoop Class = "static-infinite-loop"
	// ClassColdDeep: a block nested ≥ 2 loops deep whose statically
	// estimated frequency is below the function entry's — deep code the
	// heuristics consider nearly dead, worth a human look.
	ClassColdDeep Class = "cold-deep"
)

// Report collects findings from one checker run.
type Report struct {
	Findings []Issue
}

// Issue is one detected violation or lint.
type Issue struct {
	Severity Severity
	Class    Class
	// Func and Block locate the issue (-1 when not applicable).
	Func  string
	Block int
	Msg   string
}

func (i Issue) String() string {
	loc := ""
	if i.Func != "" {
		loc = i.Func
		if i.Block >= 0 {
			loc = fmt.Sprintf("%s/b%d", i.Func, i.Block)
		}
		loc += ": "
	}
	return fmt.Sprintf("%s [%s] %s%s", i.Severity, i.Class, loc, i.Msg)
}

// Add appends a finding from an analysis living outside this package
// (e.g. staticprof.Lint) that reports through the shared Report type.
func (r *Report) Add(sev Severity, class Class, fn string, block int, format string, args ...any) {
	r.add(sev, class, fn, block, format, args...)
}

// add appends a finding.
func (r *Report) add(sev Severity, class Class, fn string, block int, format string, args ...any) {
	r.Findings = append(r.Findings, Issue{
		Severity: sev,
		Class:    class,
		Func:     fn,
		Block:    block,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Merge appends all findings of other.
func (r *Report) Merge(other *Report) {
	r.Findings = append(r.Findings, other.Findings...)
}

// Errors counts error-severity findings (broken invariants).
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity findings (lints).
func (r *Report) Warnings() int { return len(r.Findings) - r.Errors() }

// OK reports whether no invariant is broken (warnings allowed).
func (r *Report) OK() bool { return r.Errors() == 0 }

// String renders the report, one finding per line, errors first.
func (r *Report) String() string {
	if len(r.Findings) == 0 {
		return "check: ok\n"
	}
	var sb strings.Builder
	for pass := 0; pass < 2; pass++ {
		want := Error
		if pass == 1 {
			want = Warning
		}
		for _, f := range r.Findings {
			if f.Severity == want {
				fmt.Fprintln(&sb, f.String())
			}
		}
	}
	fmt.Fprintf(&sb, "check: %d error(s), %d warning(s)\n", r.Errors(), r.Warnings())
	return sb.String()
}

// Err returns a non-nil error summarizing the report when an invariant is
// broken, nil otherwise. It lets callers treat a failed check like any
// other pipeline failure.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	first := ""
	for _, f := range r.Findings {
		if f.Severity == Error {
			first = f.String()
			break
		}
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s", r.Errors(), first)
}
