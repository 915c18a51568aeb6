package tsp

import "fmt"

// Sym is the standard 2-city transformation of an asymmetric TSP instance
// into a symmetric one ("our DTSP to STSP transformation replaces each
// city by a pair of cities, with the edge between them locked into the
// tour"). City i of the directed instance becomes an in-node 2i and an
// out-node 2i+1:
//
//   - {in_i, out_i} costs 0 and is locked into every tour,
//   - {out_i, in_j} (i != j) costs the directed cost c(i->j),
//   - every other pair (in/in or out/out) is forbidden.
//
// A symmetric tour containing all locked edges alternates in- and
// out-nodes and therefore spells out a directed Hamiltonian cycle of equal
// cost. The production solver in this package (ThreeOpt) operates directly
// in directed space using exactly the move set that is feasible here, and
// HeldKarpBound relaxes this transformation implicitly (sparseOneTree).
// Sym expresses the transformation explicitly, for tests: it verifies that
// equivalence and feeds the dense 1-tree oracle.
type Sym struct {
	orig   Costs
	forbid Cost
}

// Symmetrize wraps m in its 2-city symmetric transformation.
func Symmetrize(m Costs) *Sym {
	return &Sym{orig: m, forbid: ForbidCost(m)}
}

// Len returns the number of cities of the symmetric instance (2x the
// directed instance).
func (s *Sym) Len() int { return 2 * s.orig.Len() }

// InNode returns the symmetric-instance node standing for "arriving at"
// directed city i.
func (s *Sym) InNode(i int) int { return 2 * i }

// OutNode returns the symmetric-instance node standing for "departing
// from" directed city i.
func (s *Sym) OutNode(i int) int { return 2*i + 1 }

// City returns the directed city represented by symmetric node a.
func (s *Sym) City(a int) int { return a / 2 }

// Locked reports whether {a, b} is a locked intra-city edge.
func (s *Sym) Locked(a, b int) bool {
	return a/2 == b/2 && a != b
}

// Cost returns the symmetric cost of edge {a, b}.
func (s *Sym) Cost(a, b int) Cost {
	if a == b {
		return 0
	}
	if a/2 == b/2 {
		return 0 // locked intra-city edge
	}
	aOut := a&1 == 1
	bOut := b&1 == 1
	switch {
	case aOut && !bOut:
		return s.orig.At(a/2, b/2)
	case !aOut && bOut:
		return s.orig.At(b/2, a/2)
	default:
		return s.forbid
	}
}

// LockCost returns the magnitude of the negative cost that Matrix places
// on locked intra-city edges. It is large enough that every optimal tour
// of the materialized matrix contains all n locked edges (assuming the
// original costs are non-negative): a tour missing k >= 1 locks pays at
// least LockCost more than any tour containing them all.
func (s *Sym) LockCost() Cost { return s.forbid }

// Matrix materializes the symmetric instance as a dense Matrix, for use
// by generic symmetric algorithms (the Held-Karp bound, exact solvers in
// tests) that do not understand structural locks. Locked intra-city edges
// are emitted with cost -LockCost so that unconstrained optimization is
// forced to include them; consequently
//
//	optimal tour cost of Matrix() = directed optimum - n*LockCost
//
// where n is the directed city count. Sym.Cost, by contrast, reports the
// constrained view in which locked edges cost 0, which is the view the
// structural lock-respecting solver (ThreeOpt on the directed instance)
// optimizes.
func (s *Sym) Matrix() *Matrix {
	n := s.Len()
	m := NewMatrix(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if s.Locked(a, b) {
				m.Set(a, b, -s.LockCost())
			} else {
				m.Set(a, b, s.Cost(a, b))
			}
		}
	}
	return m
}

// FromDirected embeds a directed tour into the symmetric space: city i is
// expanded to (in_i, out_i) in visit order.
func (s *Sym) FromDirected(t Tour) Tour {
	out := make(Tour, 0, 2*len(t))
	for _, c := range t {
		out = append(out, s.InNode(c), s.OutNode(c))
	}
	return out
}

// ToDirected converts a symmetric tour back to a directed tour. The tour
// must contain every locked edge (adjacent in/out nodes of the same city);
// otherwise an error is returned.
func (s *Sym) ToDirected(t Tour) (Tour, error) {
	n := s.Len()
	if !t.Valid(n) {
		return nil, fmt.Errorf("tsp: ToDirected: not a permutation of %d nodes", n)
	}
	if n == 0 {
		return Tour{}, nil
	}
	// A valid tour traverses every locked pair consistently: reading in one
	// direction, each in-node is immediately followed by its out-node.
	// Normalize orientation (reversing an undirected tour is free) so that
	// some in-node precedes its out-node, then read city pairs forward.
	k := -1
	for i := 0; i < n; i++ {
		if t[i]&1 == 0 && s.Locked(t[i], t[(i+1)%n]) {
			k = i
			break
		}
	}
	if k < 0 {
		rev := make(Tour, n)
		for i, v := range t {
			rev[n-1-i] = v
		}
		t = rev
		for i := 0; i < n; i++ {
			if t[i]&1 == 0 && s.Locked(t[i], t[(i+1)%n]) {
				k = i
				break
			}
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("tsp: ToDirected: tour contains no locked in/out pair")
	}
	dir := make(Tour, 0, n/2)
	for i := 0; i < n; i += 2 {
		a := t[(k+i)%n]
		b := t[(k+i+1)%n]
		if a&1 != 0 || !s.Locked(a, b) {
			return nil, fmt.Errorf("tsp: ToDirected: locked edge missing at tour offset %d", i)
		}
		dir = append(dir, a/2)
	}
	return dir, nil
}

// SymCycleCost returns the cost of a symmetric tour under s.
func SymCycleCost(s *Sym, t Tour) Cost {
	if len(t) == 0 {
		return 0
	}
	var sum Cost
	for k := 0; k < len(t); k++ {
		sum += s.Cost(t[k], t[(k+1)%len(t)])
	}
	return sum
}
