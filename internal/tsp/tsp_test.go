package tsp

import (
	"fmt"
	"math/rand"
	"testing"
)

// Valid reports whether t is a permutation of 0..n-1. Production code
// validates tours in ThreeOpt.SetTour against its own bitmap.
func (t Tour) Valid(n int) bool {
	if len(t) != n {
		return false
	}
	seen := make([]bool, n)
	for _, c := range t {
		if c < 0 || c >= n || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// randMatrix returns a deterministic random asymmetric instance with costs
// in [0, maxCost): randDense's matrix in canonical sparse form.
func randMatrix(n int, maxCost int64, seed int64) *SparseMatrix {
	return randDense(n, maxCost, seed).Sparse()
}

// randDense returns a deterministic random asymmetric matrix with costs
// in [0, maxCost).
func randDense(n int, maxCost int64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, Cost(rng.Int63n(maxCost)))
			}
		}
	}
	return m
}

// randSymMatrix returns a deterministic random symmetric matrix.
func randSymMatrix(n int, maxCost int64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := Cost(rng.Int63n(maxCost))
			m.Set(i, j, c)
			m.Set(j, i, c)
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 7)
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %d, want 5", got)
	}
	if got := m.At(1, 0); got != 7 {
		t.Errorf("At(1,0) = %d, want 7", got)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
}

// fromRows builds a matrix from a square slice of rows. It panics if the
// input is not square.
func fromRows(rows [][]Cost) *Matrix {
	n := len(rows)
	m := NewMatrix(n)
	for i, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("fromRows: row %d has %d entries, want %d", i, len(row), n))
		}
		copy(m.c[i*n:(i+1)*n], row)
	}
	return m
}

func TestFromRows(t *testing.T) {
	m := fromRows([][]Cost{
		{0, 1, 2},
		{3, 0, 4},
		{5, 6, 0},
	})
	if m.At(1, 2) != 4 || m.At(2, 0) != 5 {
		t.Errorf("fromRows produced wrong entries: %d, %d", m.At(1, 2), m.At(2, 0))
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fromRows should panic on ragged input")
		}
	}()
	fromRows([][]Cost{{0, 1}, {2}})
}

func TestNewMatrixPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0) should panic")
		}
	}()
	NewMatrix(0)
}

func TestForbidExceedsAnyTour(t *testing.T) {
	m := randMatrix(9, 1000, 1)
	forbid := m.Forbid()
	// Any cycle uses n edges; its cost is at most the sum of all positive
	// entries, so strictly less than forbid.
	worst := Cost(0)
	for i := 0; i < m.Len(); i++ {
		for j := 0; j < m.Len(); j++ {
			if i != j && m.At(i, j) > 0 {
				worst += m.At(i, j)
			}
		}
	}
	if forbid != worst+1 {
		t.Errorf("Forbid = %d, want %d", forbid, worst+1)
	}
}

func TestTourValid(t *testing.T) {
	cases := []struct {
		tour Tour
		n    int
		want bool
	}{
		{Tour{0, 1, 2}, 3, true},
		{Tour{2, 0, 1}, 3, true},
		{Tour{0, 1}, 3, false},
		{Tour{0, 1, 1}, 3, false},
		{Tour{0, 1, 3}, 3, false},
		{Tour{-1, 1, 2}, 3, false},
		{Tour{}, 0, true},
	}
	for _, c := range cases {
		if got := c.tour.Valid(c.n); got != c.want {
			t.Errorf("Valid(%v, %d) = %v, want %v", c.tour, c.n, got, c.want)
		}
	}
}

func TestCycleCost(t *testing.T) {
	m := fromRows([][]Cost{
		{0, 1, 10},
		{10, 0, 2},
		{3, 10, 0},
	})
	tour := Tour{0, 1, 2}
	if got := cycleCost(m, tour); got != 1+2+3 {
		t.Errorf("CycleCost = %d, want 6", got)
	}
	if got := cycleCost(m, Tour{}); got != 0 {
		t.Errorf("CycleCost(empty) = %d, want 0", got)
	}
}

func TestRotateTo(t *testing.T) {
	tour := Tour{3, 1, 4, 0, 2}
	tour.RotateTo(0)
	want := Tour{0, 2, 3, 1, 4}
	for i := range want {
		if tour[i] != want[i] {
			t.Fatalf("RotateTo produced %v, want %v", tour, want)
		}
	}
	// Rotation must preserve cycle cost.
	m := randMatrix(5, 100, 2)
	a := Tour{3, 1, 4, 0, 2}
	before := CycleCost(m, a)
	a.RotateTo(4)
	if after := CycleCost(m, a); after != before {
		t.Errorf("rotation changed cycle cost: %d -> %d", before, after)
	}
}

func TestRotateToPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RotateTo should panic when city absent")
		}
	}()
	Tour{0, 1, 2}.RotateTo(7)
}
