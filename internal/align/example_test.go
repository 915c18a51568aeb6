package align_test

import (
	"context"
	"fmt"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

// Example runs the complete paper pipeline on a tiny program: compile,
// profile, align with the TSP algorithm, and compare control penalties.
func Example() {
	src := `
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		if (i % 10 == 0) { s = s + 100; } else { s = s + 1; }
	}
	return s;
}
`
	mod, prof, _, err := testutil.CompileAndProfile(src,
		[]interp.Input{interp.ScalarInput(1000)})
	if err != nil {
		fmt.Println(err)
		return
	}
	m := machine.Alpha21164()
	orig := align.Run(context.Background(), align.Original{}, mod, prof, m, align.RunOptions{}).Penalty
	tsp := align.Run(context.Background(), align.TSP{}, mod, prof, m, align.RunOptions{Seed: 1}).Penalty
	fmt.Printf("original %d cycles, aligned %d cycles\n", orig, tsp)
	// Output: original 7405 cycles, aligned 1607 cycles
}
