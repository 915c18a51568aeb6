package bench

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

func TestGo95CompilesAndPlays(t *testing.T) {
	b := Go95()
	mod, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range b.DataSets {
		res, err := interp.Run(mod, ds.Make(), interp.Options{MaxSteps: 1 << 31})
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		// Output layout: moves..., winner, nodes, cutoffs.
		if len(res.Output) < 4 {
			t.Fatalf("%s: too little output: %v", ds.Name, res.Output)
		}
		nodes := res.Output[len(res.Output)-2]
		cutoffs := res.Output[len(res.Output)-1]
		if nodes < 1000 {
			t.Errorf("%s: only %d search nodes; workload too small", ds.Name, nodes)
		}
		if cutoffs <= 0 || cutoffs >= nodes {
			t.Errorf("%s: implausible cutoff count %d of %d nodes", ds.Name, cutoffs, nodes)
		}
		if res.DynBranches() < 100000 {
			t.Errorf("%s: only %d dynamic branches", ds.Name, res.DynBranches())
		}
	}
}

func TestGo95MovesAreLegal(t *testing.T) {
	b := Go95()
	mod, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(mod, b.DataSets[1].Make(), interp.Options{MaxSteps: 1 << 31})
	if err != nil {
		t.Fatal(err)
	}
	// Move records are col*10+player with col in 0..6 and players
	// alternating; negative entries are forced-win reports.
	heights := make([]int, 7)
	wantPlayer := int64(1)
	for _, v := range res.Output[:len(res.Output)-3] {
		if v < 0 {
			continue
		}
		col := v / 10
		player := v % 10
		if col < 0 || col > 6 {
			t.Fatalf("illegal column %d", col)
		}
		if player != wantPlayer {
			t.Fatalf("players out of turn: got %d, want %d", player, wantPlayer)
		}
		heights[col]++
		if heights[col] > 6 {
			t.Fatalf("column %d overfilled", col)
		}
		wantPlayer = 3 - wantPlayer
	}
	winner := res.Output[len(res.Output)-3]
	if winner != 0 && winner != 1 && winner != 2 {
		t.Fatalf("bad winner %d", winner)
	}
}

func TestGo95ByNameAndExtended(t *testing.T) {
	if _, err := ByName("go95"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("go9"); err != nil {
		t.Error(err)
	}
	ext := Extended()
	if len(ext) != len(All())+1 {
		t.Errorf("Extended has %d entries, want %d", len(ext), len(All())+1)
	}
	// All() must stay the paper's six.
	if len(All()) != 6 {
		t.Errorf("All() grew to %d; the paper's tables expect 6", len(All()))
	}
}

func TestGo95Aligns(t *testing.T) {
	b := Go95()
	mod, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof := interp.NewProfile(mod)
	if _, err := interp.Run(mod, b.DataSets[1].Make(), interp.Options{Profile: prof, MaxSteps: 1 << 31}); err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	orig := align.Run(context.Background(), align.Original{}, mod, prof, m, align.RunOptions{}).Penalty
	tspL := align.Run(context.Background(), align.TSP{}, mod, prof, m, align.RunOptions{Seed: 1}).Layout
	if err := tspL.Validate(mod); err != nil {
		t.Fatal(err)
	}
	tspCP := layout.ModulePenalty(mod, tspL, prof, m)
	if tspCP >= orig {
		t.Errorf("alignment did not help the search benchmark: %d -> %d", orig, tspCP)
	}
	t.Logf("go95 alignment: %d -> %d (removes %.1f%%)", orig, tspCP, 100*(1-float64(tspCP)/float64(orig)))
}
