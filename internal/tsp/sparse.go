package tsp

import (
	"fmt"
	"math"
	"slices"
)

// SparseMatrix is the asymmetric cost matrix every solver kernel in this
// package reads: each row i has a default cost that applies to every
// column, except for a short sorted list of per-row exception columns.
// The branch-alignment reduction (Section 2.2) produces exactly this
// shape — c(B, X) takes at most outdegree(B)+1 distinct values per row:
// one per CFG successor of B plus the row-constant "displaced" cost — so
// the whole instance is O(V+E) memory instead of Θ(n²).
//
// Rows are stored CSR-style: the exceptions of row i are
// cols[rowStart[i]:rowStart[i+1]] (strictly increasing column indices)
// with matching vals. Each row also has a 32-byte head holding its
// default and, when the row has at most two exceptions (every row of a
// two-way branch or fall-through block), those exceptions inline, so At
// on such a row reads the head alone, and the compiler inlines it into
// the local-search loops. align.BuildSparseMatrix never emits a wider
// row (a switch row has one exception); rows of hand-built instances
// with three or more exceptions are searched in the CSR arrays, so one
// read stays O(log outdegree) whatever the caller builds. The diagonal
// is never stored and At(i, i) returns 0.
type SparseMatrix struct {
	n        int
	heads    []rowHead
	rowStart []int
	cols     []int
	vals     []Cost
}

// rowHead is one row's default plus up to two inline exceptions. A slot
// whose column is noCol is empty; c1 == wideRow marks a row with more
// than two exceptions, found only in the CSR arrays.
type rowHead struct {
	def    Cost
	v0, v1 Cost
	c0, c1 int32
}

const (
	noCol   = -1
	wideRow = -2
)

// Len returns the number of cities.
func (s *SparseMatrix) Len() int { return s.n }

// At returns the cost of the directed edge i->j.
func (s *SparseMatrix) At(i, j int) Cost { return s.at(i, j, (*SparseMatrix).search) }

// at is At with its out-of-line search passed in. The compiler prices a
// call through a function parameter at a fraction of a direct call, which
// keeps At under the inlining budget: the kernels' hot loops read a
// narrow row without a call, and only a wide row or the diagonal pays
// one.
func (s *SparseMatrix) at(i, j int, search func(*SparseMatrix, int, int) Cost) Cost {
	h := &s.heads[i]
	if c := int32(j); c == h.c0 {
		return h.v0
	} else if c == h.c1 {
		return h.v1
	}
	if h.c1 == wideRow || i == j {
		return search(s, i, j)
	}
	return h.def
}

// search is At for the diagonal and for rows with more than two
// exceptions: a scan of short rows, a binary search of long ones, so one
// read stays O(log outdegree) on a wide row.
func (s *SparseMatrix) search(i, j int) Cost {
	if i == j {
		return 0
	}
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	if hi-lo <= 8 {
		for k := lo; k < hi; k++ {
			if s.cols[k] == j {
				return s.vals[k]
			}
			if s.cols[k] > j {
				break
			}
		}
		return s.heads[i].def
	}
	if k, ok := slices.BinarySearch(s.cols[lo:hi], j); ok {
		return s.vals[lo+k]
	}
	return s.heads[i].def
}

// RowDefault returns the default cost of row i (the cost of i->j for
// every j that is not an exception column).
func (s *SparseMatrix) RowDefault(i int) Cost { return s.heads[i].def }

// Row returns the exception columns and values of row i. The returned
// slices alias internal storage and must not be modified.
func (s *SparseMatrix) Row(i int) (cols []int, vals []Cost) {
	return s.cols[s.rowStart[i]:s.rowStart[i+1]], s.vals[s.rowStart[i]:s.rowStart[i+1]]
}

// Exceptions returns the total number of stored exception entries.
func (s *SparseMatrix) Exceptions() int { return len(s.cols) }

// Forbid returns a cost strictly larger than the cost of any tour that
// avoids forbidden edges: one plus the sum of all positive off-diagonal
// entries, in O(V+E) time. Using it for "must not use" edges keeps every
// optimal (and every locally optimal) tour away from them whenever a
// feasible tour exists, without risking overflow the way a fixed huge
// constant would.
func (s *SparseMatrix) Forbid() Cost {
	var sum Cost
	for i := 0; i < s.n; i++ {
		lo, hi := s.rowStart[i], s.rowStart[i+1]
		if d := s.heads[i].def; d > 0 {
			sum += d * Cost(s.n-1-(hi-lo))
		}
		for k := lo; k < hi; k++ {
			if s.vals[k] > 0 {
				sum += s.vals[k]
			}
		}
	}
	return sum + 1
}

// SparseBuilder assembles a SparseMatrix row by row.
type SparseBuilder struct {
	m    *SparseMatrix
	rows int
}

// NewSparseBuilder returns a builder for an n-city sparse matrix. AddRow
// must be called exactly n times, in row order. Row heads store columns
// as int32, so n may not exceed math.MaxInt32.
func NewSparseBuilder(n int) *SparseBuilder {
	if n < 1 || int64(n) > math.MaxInt32 {
		panic(fmt.Sprintf("tsp: NewSparseBuilder(%d): need 1 to %d cities", n, math.MaxInt32))
	}
	return &SparseBuilder{m: &SparseMatrix{
		n:        n,
		heads:    make([]rowHead, 0, n),
		rowStart: append(make([]int, 0, n+1), 0),
	}}
}

// AddRow appends the next row: default cost def and exception columns
// cols (strictly increasing, excluding the diagonal) with values vals.
// The slices are copied.
func (b *SparseBuilder) AddRow(def Cost, cols []int, vals []Cost) {
	i := b.rows
	if i >= b.m.n {
		panic("tsp: SparseBuilder.AddRow: too many rows")
	}
	if len(cols) != len(vals) {
		panic("tsp: SparseBuilder.AddRow: cols/vals length mismatch")
	}
	for k, c := range cols {
		if c < 0 || c >= b.m.n || c == i {
			panic(fmt.Sprintf("tsp: SparseBuilder.AddRow: bad column %d in row %d", c, i))
		}
		if k > 0 && cols[k-1] >= c {
			panic(fmt.Sprintf("tsp: SparseBuilder.AddRow: columns not strictly increasing in row %d", i))
		}
	}
	h := rowHead{def: def, c0: noCol, c1: noCol}
	switch len(cols) {
	case 0:
	case 1:
		h.c0, h.v0 = int32(cols[0]), vals[0]
	case 2:
		h.c0, h.v0 = int32(cols[0]), vals[0]
		h.c1, h.v1 = int32(cols[1]), vals[1]
	default:
		h.c1 = wideRow
	}
	b.m.heads = append(b.m.heads, h)
	b.m.cols = append(b.m.cols, cols...)
	b.m.vals = append(b.m.vals, vals...)
	b.m.rowStart = append(b.m.rowStart, len(b.m.cols))
	b.rows++
}

// Finish returns the assembled matrix. It panics if fewer than n rows
// were added.
func (b *SparseBuilder) Finish() *SparseMatrix {
	if b.rows != b.m.n {
		panic(fmt.Sprintf("tsp: SparseBuilder.Finish: %d of %d rows added", b.rows, b.m.n))
	}
	return b.m
}

// Sparsify returns the canonical form of s: in every row the default is
// the most frequent off-diagonal value (smallest value on ties) and every
// other entry is an exception. The canonical form is a pure function of
// the At values, so two encodings of the same instance sparsify
// identically — which is what makes algorithms that branch on the
// default/exception split (the implicit Held-Karp 1-tree) return
// bit-identical results for both.
func Sparsify(s *SparseMatrix) *SparseMatrix {
	n := s.n
	b := NewSparseBuilder(n)
	if n == 1 {
		// A single-city row has no off-diagonal entries; canonicalize its
		// (unobservable) default to 0.
		b.AddRow(0, nil, nil)
		return b.Finish()
	}
	var elect electScratch
	// A matrix already in canonical form is returned as-is: the
	// canonical form is a pure function of the At values, so the
	// rebuild below would reproduce s row for row. A row is canonical
	// when no exception equals the row default and the default wins the
	// election — guaranteed without running it when the default's
	// multiplicity strictly exceeds the whole exception count.
	// SparseMatrix is immutable after Finish, so aliasing the input is
	// safe.
	canonical := true
check:
	for i := 0; i < n; i++ {
		cols, vals := s.Row(i)
		def := s.RowDefault(i)
		for _, v := range vals {
			if v == def {
				canonical = false
				break check
			}
		}
		if defCount := n - 1 - len(cols); defCount <= len(cols) {
			if elect.mostFrequent(def, Cost(defCount), vals) != def {
				canonical = false
				break check
			}
		}
	}
	if canonical {
		return s
	}
	// Row scratch, reused across rows: AddRow copies its arguments, and
	// Sparsify sits on the per-function bound path where per-row makes
	// add up across a module's worth of small instances.
	ec := make([]int, 0, n-1)
	ev := make([]Cost, 0, n-1)
	for i := 0; i < n; i++ {
		cols, vals := s.Row(i)
		rowDef := s.RowDefault(i)
		def := elect.mostFrequent(rowDef, Cost(n-1-len(cols)), vals)
		ec, ev = ec[:0], ev[:0]
		if def == rowDef {
			for k, c := range cols {
				if vals[k] != def {
					ec = append(ec, c)
					ev = append(ev, vals[k])
				}
			}
			b.AddRow(def, ec, ev)
			continue
		}
		// The elected default was an exception value, which can only
		// happen when exceptions dominate the row; rebuilding the row by
		// scanning all columns stays O(exceptions) amortized.
		k := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			v := rowDef
			if k < len(cols) && cols[k] == j {
				v = vals[k]
				k++
			}
			if v != def {
				ec = append(ec, j)
				ev = append(ev, v)
			}
		}
		b.AddRow(def, ec, ev)
	}
	return b.Finish()
}

// electScratch holds the sorted-copy buffer mostFrequent reuses across
// rows (the map-based counting this replaced allocated per row).
type electScratch struct {
	sorted []Cost
}

// mostFrequent picks the most frequent value among a default value with
// multiplicity defCount and the exception values; ties prefer the
// smallest value. The argmax comparison starts at (def, count -1) and
// candidates form a set, so the result does not depend on scan order —
// it is the same value the map-based counting used to elect.
func (e *electScratch) mostFrequent(def Cost, defCount Cost, vals []Cost) Cost {
	e.sorted = append(e.sorted[:0], vals...)
	slices.Sort(e.sorted)
	best, bestCount := def, Cost(-1)
	sawDef := false
	for i := 0; i < len(e.sorted); {
		v := e.sorted[i]
		j := i + 1
		for j < len(e.sorted) && e.sorted[j] == v {
			j++
		}
		cnt := Cost(j - i)
		if v == def && defCount > 0 {
			cnt += defCount
			sawDef = true
		}
		if cnt > bestCount || (cnt == bestCount && v < best) {
			best, bestCount = v, cnt
		}
		i = j
	}
	if !sawDef && defCount > 0 {
		if defCount > bestCount || (defCount == bestCount && def < best) {
			best, bestCount = def, defCount
		}
	}
	return best
}
