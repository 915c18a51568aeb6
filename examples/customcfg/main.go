// Customcfg: use the public IR builder to construct a control-flow graph
// by hand, attach an edge-frequency profile, and run the whole alignment
// stack on it — the path a compiler backend would take to adopt this
// library without the Mini-C front end.
//
//	go run ./examples/customcfg
package main

import (
	"context"
	"fmt"
	"log"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

func main() {
	// Build a function shaped like a state machine with a hot cycle
	// entry -> A -> B -> A (hot back edge) and a cold error path, plus a
	// 3-way dispatch. The compiler order deliberately interleaves hot and
	// cold blocks.
	b := ir.NewFuncBuilder("statemachine", []ir.ParamKind{ir.ParamScalar})
	x := ir.Reg(0)
	cold1 := b.NewBlock("cold.error")   // b1
	hotA := b.NewBlock("hot.a")         // b2
	cold2 := b.NewBlock("cold.cleanup") // b3
	hotB := b.NewBlock("hot.b")         // b4
	dispatch := b.NewBlock("dispatch")  // b5
	caseX := b.NewBlock("case.x")       // b6
	caseY := b.NewBlock("case.y")       // b7
	exit := b.NewBlock("exit")          // b8

	b.CondBr(ir.RegVal(x), hotA, cold1) // entry: almost always to hot.a
	b.SetInsert(cold1)
	b.EmitOut(ir.ConstVal(-1))
	b.Br(exit)
	b.SetInsert(hotA)
	b.EmitBin(x, ir.OpSub, ir.RegVal(x), ir.ConstVal(1))
	b.Br(hotB)
	b.SetInsert(cold2)
	b.EmitOut(ir.ConstVal(-2))
	b.Br(exit)
	b.SetInsert(hotB)
	b.CondBr(ir.RegVal(x), hotA, dispatch) // hot back edge
	b.SetInsert(dispatch)
	b.Switch(ir.RegVal(x), []int64{1, 2}, []int{caseX, caseY}, cold2)
	b.SetInsert(caseX)
	b.Br(exit)
	b.SetInsert(caseY)
	b.Br(exit)
	b.SetInsert(exit)
	b.Ret(ir.RegVal(x))

	mod := &ir.Module{Funcs: []*ir.Func{b.Func()}}
	if err := mod.Verify(); err != nil {
		log.Fatal(err)
	}

	// Attach a profile by hand (a backend would translate its own edge
	// counters). Units are execution counts.
	prof := interp.NewProfile(mod)
	fp := prof.Funcs[0]
	set := func(block, succ int, count int64) { fp.EdgeCounts[block][succ] = count }
	set(0, 0, 1000) // entry -> hot.a
	set(0, 1, 1)    // entry -> cold.error
	set(2, 0, 500000)
	set(4, 0, 499000) // hot.b -> hot.a back edge
	set(4, 1, 1000)   // hot.b -> dispatch
	set(5, 0, 600)    // dispatch -> case.x
	set(5, 1, 350)    // dispatch -> case.y
	set(5, 2, 50)     // dispatch -> cold.cleanup
	set(1, 0, 1)
	set(3, 0, 50)
	set(6, 0, 600)
	set(7, 0, 350)

	model := machine.Alpha21164()
	fmt.Println("hand-built CFG (dot):")
	fmt.Print(mod.Funcs[0].Dot(func(blk, si int) (int64, bool) {
		return fp.EdgeCounts[blk][si], true
	}))
	fmt.Println()

	for _, a := range []align.Aligner{align.Original{}, align.PettisHansen{}, align.TSP{}} {
		l := align.Run(context.Background(), a, mod, prof, model, align.RunOptions{Seed: 1}).Layout
		cp := layout.ModulePenalty(mod, l, prof, model)
		fmt.Printf("%-9s penalty %8d cycles, order %v\n", a.Name(), cp, l.Funcs[0].Order)
	}
	fmt.Println()
	fmt.Println("The TSP order keeps hot.a/hot.b adjacent (the half-million-count")
	fmt.Println("cycle) and sinks both cold blocks, trading the rare paths' jumps")
	fmt.Println("for fall-throughs on the hot ones.")
}
