package tsp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randSparse returns a deterministic random sparse instance: per-row
// defaults in [0, maxCost) and, with the given probability per column, an
// exception value in [0, maxCost).
func randSparse(n int, maxCost int64, excProb float64, seed int64) *SparseMatrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewSparseBuilder(n)
	for i := 0; i < n; i++ {
		def := Cost(rng.Int63n(maxCost))
		var cols []int
		var vals []Cost
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < excProb {
				cols = append(cols, j)
				vals = append(vals, Cost(rng.Int63n(maxCost)))
			}
		}
		b.AddRow(def, cols, vals)
	}
	return b.Finish()
}

func TestSparseMatrixAtMatchesDense(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%30) + 1
		sp := randSparse(n, 500, 0.3, int64(seedRaw))
		d := sp.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if sp.At(i, j) != d.At(i, j) {
					return false
				}
			}
		}
		return sp.Forbid() == d.Forbid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSparseAtByRowWidth checks At against the dense oracle on rows
// of every width the row head distinguishes: 0, 1 and 2 exceptions are
// stored inline, 3 and 9 are scanned, n-1 is binary searched. Every
// column of every row is read, the diagonal included.
func TestQuickSparseAtByRowWidth(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%40) + 12
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		widths := []int{0, 1, 2, 3, 9, n - 1}
		b := NewSparseBuilder(n)
		for i := 0; i < n; i++ {
			cols := rng.Perm(n - 1)[:widths[i%len(widths)]]
			for k := range cols {
				if cols[k] >= i {
					cols[k]++ // skip the diagonal
				}
			}
			slices.Sort(cols)
			vals := make([]Cost, len(cols))
			for k := range vals {
				vals[k] = Cost(rng.Int63n(1000)) - 500
			}
			b.AddRow(Cost(rng.Int63n(1000)), cols, vals)
		}
		sp := b.Finish()
		d := sp.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if sp.At(i, j) != d.At(i, j) {
					t.Logf("n=%d row %d (%d exceptions): At(%d, %d) = %d, dense %d",
						n, i, widths[i%len(widths)], i, j, sp.At(i, j), d.At(i, j))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseBuilderRejectsUnindexableSize: row heads store columns as
// int32, so a builder for more cities than an int32 can index panics
// instead of truncating columns.
func TestSparseBuilderRejectsUnindexableSize(t *testing.T) {
	big := int64(math.MaxInt32) + 1
	if int64(int(big)) != big {
		t.Skip("int is 32 bits: no such n exists")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSparseBuilder(MaxInt32+1) should panic")
		}
	}()
	NewSparseBuilder(int(big))
}

func TestSparsifyIsCanonical(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%20) + 1
		sp := randSparse(n, 6, 0.5, int64(seedRaw)+17) // few values -> default elections matter
		a := Sparsify(sp)
		if !reflect.DeepEqual(a, sp.Dense().Sparse()) || !reflect.DeepEqual(a, Sparsify(explicit(sp))) {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a.At(i, j) != sp.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNeighborsAndConstructionsAgreeOnSparse(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%24) + 2
		sp := randSparse(n, 200, 0.25, int64(seedRaw)+3)
		d := sp.Dense()
		forbid := sp.Forbid()
		na := BuildNeighbors(sp, 5, forbid)
		nd := buildNeighborsDense(d, 5, forbid)
		if !reflect.DeepEqual(na, nd) {
			return false
		}
		start := int(seedRaw) % n
		if !reflect.DeepEqual(NearestNeighbor(sp, start, nil), nearestNeighborDense(d, start, nil)) {
			return false
		}
		r1 := rand.New(rand.NewSource(int64(seedRaw)))
		r2 := rand.New(rand.NewSource(int64(seedRaw)))
		if !reflect.DeepEqual(NearestNeighbor(sp, start, r1), nearestNeighborDense(d, start, r2)) {
			return false
		}
		r1 = rand.New(rand.NewSource(int64(seedRaw) + 1))
		r2 = rand.New(rand.NewSource(int64(seedRaw) + 1))
		return reflect.DeepEqual(GreedyEdge(sp, r1), GreedyEdge(explicit(sp), r2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSolveIdenticalOnSparseAndDense: Solve is a function of the At
// values alone, so a sparse instance and its explicit encoding (every
// entry stored, as a dense matrix holds it, so reads take the wide-row
// search) give identical results.
func TestQuickSolveIdenticalOnSparseAndDense(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		// Half the cases have a few hundred cities.
		n := int(nRaw>>1)%34 + 2
		opt := PaperSolveOptions(int64(seedRaw))
		if nRaw&1 == 1 {
			n = 257 + int(nRaw>>1)%64
			// Two starts and capped kicks keep the large sizes quick.
			opt.GreedyStarts, opt.NNStarts, opt.IdentityStarts = 1, 1, 0
			opt.MaxIterations = 40
		}
		sp := randSparse(n, 300, 0.2, int64(seedRaw)+11)
		opt.ExactThreshold = 6 // exercise both the exact and local-search paths
		ra := Solve(sp, opt)
		rd := Solve(explicit(sp), opt)
		return reflect.DeepEqual(ra, rd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHeldKarpDirectedIdenticalOnSparseAndDense(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%12) + 3
		sp := randSparse(n, 120, 0.3, int64(seedRaw)+29)
		d := explicit(sp)
		opt := HeldKarpOptions{Iterations: 60}
		if HeldKarpBound(sp, opt) != HeldKarpBound(d, opt) {
			return false
		}
		return AssignmentBound(sp) == AssignmentBound(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSparseHeldKarpIsValidBound(t *testing.T) {
	// The implicit 1-tree relaxes exception edges above their row default,
	// so it can be looser than the dense reference — but it must stay a
	// lower bound on the optimum, and AP <= optimum must hold too.
	f := func(seedRaw uint16) bool {
		n := 7
		sp := randSparse(n, 150, 0.35, int64(seedRaw)+41)
		_, opt := SolveExact(sp)
		if AssignmentBound(sp) > opt {
			return false
		}
		b := HeldKarpBound(sp, HeldKarpOptions{UpperBound: opt, Iterations: 120}).Bound
		return b <= float64(opt)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseThreeOptMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := 15 + int(seed)
		sp := randSparse(n, 400, 0.2, seed+57)
		d := explicit(sp)
		start := IdentityTour(n)
		oa := NewThreeOpt(sp, nil, start.Clone())
		od := NewThreeOpt(d, nil, start.Clone())
		ca, cd := oa.Optimize(), od.Optimize()
		if ca != cd || !reflect.DeepEqual(oa.AppendTour(nil), od.AppendTour(nil)) {
			t.Fatalf("seed %d: sparse 3-opt (%d, %v) != dense (%d, %v)", seed, ca, oa.AppendTour(nil), cd, od.AppendTour(nil))
		}
	}
}

func TestSparseBuilderValidates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("diagonal column", func() {
		b := NewSparseBuilder(3)
		b.AddRow(1, []int{1}, []Cost{2})
		b.AddRow(1, []int{1}, []Cost{2}) // col 1 == row 1
	})
	mustPanic("unsorted columns", func() {
		b := NewSparseBuilder(3)
		b.AddRow(1, []int{2, 1}, []Cost{2, 3})
	})
	mustPanic("too few rows", func() {
		b := NewSparseBuilder(2)
		b.AddRow(0, nil, nil)
		b.Finish()
	})
	mustPanic("length mismatch", func() {
		b := NewSparseBuilder(2)
		b.AddRow(0, []int{1}, nil)
	})
}
