package tsp

import (
	"context"
	"testing"
)

// bruteAssignment finds the minimum-cost fixed-point-free permutation by
// exhaustive search.
func bruteAssignment(m Costs) Cost {
	n := m.Len()
	used := make([]bool, n)
	const inf = Cost(1) << 62
	best := inf
	var rec func(i int, acc Cost)
	rec = func(i int, acc Cost) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for j := 0; j < n; j++ {
			if j == i || used[j] {
				continue
			}
			used[j] = true
			rec(i+1, acc+m.At(i, j))
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

func TestAssignmentMatchesBruteForce(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for seed := int64(0); seed < 4; seed++ {
			m := randMatrix(n, 100, seed*17+int64(n))
			got := AssignmentBound(m)
			want := bruteAssignment(m)
			if got != want {
				t.Fatalf("n=%d seed=%d: Hungarian %d != brute force %d", n, seed, got, want)
			}
		}
	}
}

func TestAssignmentSolveIsDerangement(t *testing.T) {
	m := randMatrix(12, 500, 9)
	sigma, err := AssignmentSolve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 12)
	for i, j := range sigma {
		if i == j {
			t.Fatalf("sigma(%d) = %d: self-loops are forbidden", i, j)
		}
		if seen[j] {
			t.Fatalf("column %d assigned twice", j)
		}
		seen[j] = true
	}
}

func TestAssignmentBoundBelowTourOptimum(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randMatrix(8, 300, seed+200)
		ap := AssignmentBound(m)
		_, opt := SolveExact(m)
		if ap > opt {
			t.Fatalf("seed %d: AP bound %d exceeds tour optimum %d", seed, ap, opt)
		}
	}
}

func TestAssignmentTightOnRing(t *testing.T) {
	// When the cheapest cycle cover is a single Hamiltonian ring, AP
	// equals the tour optimum — the regime where patching algorithms win,
	// per the paper's appendix.
	n := 6
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 100)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, 1)
	}
	if got := AssignmentBound(m.Sparse()); got != Cost(n) {
		t.Fatalf("AP on ring = %d, want %d", got, n)
	}
}

func TestAssignmentLooseOnTwoCycleInstance(t *testing.T) {
	// Two cheap disjoint 2-cycles make the AP bound much smaller than the
	// tour optimum — the regime the paper's appendix reports for a
	// majority of branch-alignment instances.
	m := NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				m.Set(i, j, 100)
			}
		}
	}
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(2, 3, 1)
	m.Set(3, 2, 1)
	ap := AssignmentBound(m.Sparse())
	_, opt := SolveExact(m.Sparse())
	if ap != 4 {
		t.Fatalf("AP = %d, want 4 (two 2-cycles)", ap)
	}
	if opt <= ap {
		t.Fatalf("tour optimum %d should exceed AP bound %d here", opt, ap)
	}
}

func TestAssignmentSingleCity(t *testing.T) {
	m := NewMatrix(1)
	if got := AssignmentBound(m.Sparse()); got != 0 {
		t.Fatalf("AP on single city = %d, want 0", got)
	}
}
