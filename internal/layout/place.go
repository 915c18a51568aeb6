package layout

import (
	"branchalign/internal/ir"
)

// BytesPerSlot is the encoded size of one instruction slot (Alpha
// instructions are 4 bytes).
const BytesPerSlot = 4

// PlacedFunc assigns instruction addresses (in slots) to a laid-out
// function. Block sizes depend on the layout: an unconditional terminator
// whose target is the layout successor is elided entirely, a displaced
// one costs a jump slot, and a fully displaced conditional branch gets a
// one-slot fixup jump placed directly after the block (fixups "count as
// separate basic blocks").
type PlacedFunc struct {
	FL *FuncLayout
	// Addr[blockID] is the address (slot index) of the block's first
	// instruction.
	Addr []int64
	// Size[blockID] is the block's laid-out size in slots, excluding any
	// fixup block.
	Size []int64
	// FixupAddr[blockID] is the address of the block's fixup jump slot,
	// or -1 when the block has none.
	FixupAddr []int64
	// Base and End delimit the function: [Base, End).
	Base, End int64
}

// PlaceFunc lays f out at the given base address under fl.
func PlaceFunc(f *ir.Func, fl *FuncLayout, base int64) *PlacedFunc {
	pf := &PlacedFunc{
		FL:        fl,
		Addr:      make([]int64, len(f.Blocks)),
		Size:      make([]int64, len(f.Blocks)),
		FixupAddr: make([]int64, len(f.Blocks)),
		Base:      base,
	}
	succ := fl.LayoutSuccessors(f)
	cur := base
	for _, b := range fl.Order {
		blk := f.Blocks[b]
		size := int64(len(blk.Instrs))
		fixup := int64(0)
		switch blk.Term.Kind {
		case ir.TermRet, ir.TermCondBr, ir.TermSwitch:
			size++
			if blk.Term.Kind == ir.TermCondBr &&
				succ[b] != blk.Term.Succs[0] && succ[b] != blk.Term.Succs[1] {
				fixup = 1
			}
		case ir.TermBr:
			if blk.Term.Succs[0] != succ[b] {
				size++ // materialized jump
			}
		}
		pf.Addr[b] = cur
		pf.Size[b] = size
		if fixup > 0 {
			pf.FixupAddr[b] = cur + size
		} else {
			pf.FixupAddr[b] = -1
		}
		cur += size + fixup
	}
	pf.End = cur
	return pf
}

// PlacedModule assigns addresses to every function of a module under a
// layout, packing functions contiguously in module order (alignment is
// intraprocedural: function order never changes).
type PlacedModule struct {
	Mod   *ir.Module
	Funcs []*PlacedFunc
}

// FuncAlignment pads each function start to this many slots, mimicking
// linker alignment of procedure entry points.
const FuncAlignment = 8

// PlaceModule lays out the whole module under l starting at address 0.
func PlaceModule(mod *ir.Module, l *Layout) *PlacedModule {
	pm := &PlacedModule{Mod: mod}
	cur := int64(0)
	for fi, f := range mod.Funcs {
		if rem := cur % FuncAlignment; rem != 0 {
			cur += FuncAlignment - rem
		}
		pf := PlaceFunc(f, l.Funcs[fi], cur)
		pm.Funcs = append(pm.Funcs, pf)
		cur = pf.End
	}
	return pm
}
