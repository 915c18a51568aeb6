package interp

import (
	"fmt"

	"branchalign/internal/ir"
)

// Profile accumulates CFG edge execution counts for every function of a
// module. It is the information the paper's branch-alignment algorithms
// consume: "a control-flow graph weighted with execution frequencies on
// edges (the frequencies are derived from the training input)".
type Profile struct {
	Funcs []*FuncProfile
	// CallCounts[caller][callee] counts dynamic calls, the weighted call
	// graph that interprocedural procedure ordering (layout.OrderFunctions)
	// consumes.
	CallCounts [][]int64
}

// FuncProfile holds counts for one function.
type FuncProfile struct {
	// BlockCounts[b] is the number of times block b was entered.
	BlockCounts []int64
	// EdgeCounts[b][i] is the number of times block b transferred control
	// to its i-th successor (indexing ir.Terminator.Succs).
	EdgeCounts [][]int64
}

// NewProfile allocates an empty profile shaped for mod.
func NewProfile(mod *ir.Module) *Profile {
	p := &Profile{}
	p.init(mod)
	return p
}

func (p *Profile) init(mod *ir.Module) {
	if p.Funcs != nil {
		return // already shaped; keep accumulating across runs
	}
	p.Funcs = make([]*FuncProfile, len(mod.Funcs))
	p.CallCounts = make([][]int64, len(mod.Funcs))
	for fi := range p.CallCounts {
		p.CallCounts[fi] = make([]int64, len(mod.Funcs))
	}
	for fi, f := range mod.Funcs {
		fp := &FuncProfile{
			BlockCounts: make([]int64, len(f.Blocks)),
			EdgeCounts:  make([][]int64, len(f.Blocks)),
		}
		for bi, b := range f.Blocks {
			fp.EdgeCounts[bi] = make([]int64, len(b.Term.Succs))
		}
		p.Funcs[fi] = fp
	}
}

// Merge adds the counts of other into p. The profiles must have the same
// shape (same module).
func (p *Profile) Merge(other *Profile) error {
	if len(p.Funcs) != len(other.Funcs) {
		return fmt.Errorf("interp: merging profiles of different modules (%d vs %d funcs)", len(p.Funcs), len(other.Funcs))
	}
	for fi := range p.Funcs {
		a, b := p.Funcs[fi], other.Funcs[fi]
		if len(a.BlockCounts) != len(b.BlockCounts) {
			return fmt.Errorf("interp: merging profiles with different block counts in func %d", fi)
		}
		for bi := range a.BlockCounts {
			a.BlockCounts[bi] += b.BlockCounts[bi]
			for si := range a.EdgeCounts[bi] {
				a.EdgeCounts[bi][si] += b.EdgeCounts[bi][si]
			}
		}
	}
	for fi := range p.CallCounts {
		for fj := range p.CallCounts[fi] {
			p.CallCounts[fi][fj] += other.CallCounts[fi][fj]
		}
	}
	return nil
}

// BranchSitesTouched counts the static conditional and multiway branch
// sites executed at least once (Table 1's "Branch Sites Touched").
func (p *Profile) BranchSitesTouched(mod *ir.Module) int {
	n := 0
	for fi, f := range mod.Funcs {
		fp := p.Funcs[fi]
		for bi, b := range f.Blocks {
			switch b.Term.Kind {
			case ir.TermCondBr, ir.TermSwitch:
				if fp.BlockCounts[bi] > 0 {
					n++
				}
			}
		}
	}
	return n
}

// BranchSitesStatic counts all static conditional and multiway branch
// sites in the module.
func BranchSitesStatic(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			switch b.Term.Kind {
			case ir.TermCondBr, ir.TermSwitch:
				n++
			}
		}
	}
	return n
}
