package align

// The aligner table: the one name→aligner table every selection surface
// (core.Suite, internal/engine, cmd/balign, cmd/balignd,
// cmd/experiments) consults, so adding an aligner here makes it
// selectable everywhere at once. Aligners are stateless values —
// everything a run varies (seed, parallelism, kick cap) rides on
// RunOptions — so the table holds the aligners themselves.

import "fmt"

// aligners is every aligner, sorted by name so every listing derived
// from it is deterministic.
var aligners = [...]Aligner{APPatch{}, CalderGrunwald{}, ExtTSP{}, PettisHansen{}, Original{}, TSP{}}

// ByName returns the named aligner. The error lists the known names so
// callers can surface it to users verbatim.
func ByName(name string) (Aligner, error) {
	for _, a := range aligners {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown aligner %q (known: %v)", name, Names())
}

// Names returns the aligner names, sorted.
func Names() []string {
	out := make([]string, len(aligners))
	for i, a := range aligners {
		out[i] = a.Name()
	}
	return out
}
