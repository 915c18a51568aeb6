package align

// The aligner registry: the one name→constructor table every selection
// surface (core.Suite, internal/engine, cmd/balign, cmd/balignd,
// cmd/experiments) consults, so adding an aligner here makes it
// selectable everywhere at once. The table is populated at package init
// with the built-in family and is read-only afterwards; Names() is
// sorted so every listing derived from it is deterministic.

import (
	"fmt"
	"sort"
)

// Options carries the construction-time knobs an aligner may honor.
// Aligners without a matching knob ignore the field.
type Options struct {
	// Seed perturbs restart order for randomized aligners (tsp).
	Seed int64
	// Parallelism splits each function's solve across workers of the
	// run's pool (tsp only; 0 keeps the solver's default).
	Parallelism int
}

// Factory builds a fresh aligner instance from options.
type Factory func(Options) Aligner

var (
	factories   = map[string]Factory{}
	sortedNames []string
)

// Register adds a named aligner factory. Duplicate names panic: the
// registry is a compile-time table, and two packages claiming one name
// is a build bug, not a runtime condition.
func Register(name string, f Factory) {
	if _, dup := factories[name]; dup {
		panic("align: duplicate aligner " + name)
	}
	factories[name] = f
	sortedNames = append(sortedNames, name)
	sort.Strings(sortedNames)
}

// New constructs the named aligner. The error lists the known names so
// callers can surface it to users verbatim.
func New(name string, o Options) (Aligner, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("unknown aligner %q (known: %v)", name, Names())
	}
	return f(o), nil
}

// Names returns the registered aligner names, sorted.
func Names() []string {
	out := make([]string, len(sortedNames))
	copy(out, sortedNames)
	return out
}

func init() {
	Register("original", func(Options) Aligner { return Original{} })
	Register("greedy", func(Options) Aligner { return PettisHansen{} })
	Register("calder-grunwald", func(Options) Aligner { return &CalderGrunwald{} })
	Register("ap-patch", func(Options) Aligner { return APPatch{} })
	Register("tsp", func(o Options) Aligner { return &TSP{Seed: o.Seed, Parallelism: o.Parallelism} })
	Register("exttsp", func(Options) Aligner { return &ExtTSP{} })
}
