package tsp

// AssignmentBound computes the assignment-problem (AP) lower bound on the
// optimal directed tour: the minimum cost of a permutation sigma with
// sigma(i) != i, i.e. the cheapest collection of disjoint directed cycles
// covering all cities. Every Hamiltonian cycle is such a cover, so
// AP <= DTSP optimum. The paper's appendix uses this bound to show that
// patching-based DTSP codes are a poor fit for branch-alignment instances
// (the AP bound is frequently far below the optimal tour).
//
// The implementation is the standard O(n^3) Hungarian algorithm with
// potentials and shortest augmenting paths.
func AssignmentBound(m Costs) Cost {
	sigma := AssignmentSolve(m)
	var total Cost
	for i, j := range sigma {
		total += m.At(i, j)
	}
	return total
}

// AssignmentSolve returns the minimizing permutation sigma (sigma[i] is
// the city assigned to follow city i) with self-assignments forbidden.
func AssignmentSolve(m Costs) []int {
	n := m.Len()
	if n == 1 {
		return []int{0}
	}
	const inf = Cost(1) << 62
	cost := func(i, j int) Cost {
		if i == j {
			return inf / 4 // forbid self-loops without overflowing sums
		}
		return m.At(i, j)
	}
	// 1-based arrays as in the classical formulation.
	u := make([]Cost, n+1)
	v := make([]Cost, n+1)
	p := make([]int, n+1)   // p[j]: row matched to column j (0 = none)
	way := make([]int, n+1) // way[j]: previous column on the augmenting path
	minv := make([]Cost, n+1)
	used := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	sigma := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] != 0 {
			sigma[p[j]-1] = j - 1
		}
	}
	return sigma
}
