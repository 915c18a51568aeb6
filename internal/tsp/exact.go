package tsp

import "fmt"

// MaxExactCities bounds the instance size SolveExact accepts; the
// Held-Karp dynamic program is O(n^2 * 2^n) time and O(n * 2^n) space.
const MaxExactCities = 20

// SolveExact computes an optimal directed Hamiltonian cycle with the
// Held-Karp dynamic program. It panics for instances larger than
// MaxExactCities.
func SolveExact(s *SparseMatrix) (Tour, Cost) {
	n := s.Len()
	if n > MaxExactCities {
		panic(fmt.Sprintf("tsp: SolveExact: %d cities exceeds limit %d", n, MaxExactCities))
	}
	if n == 1 {
		return Tour{0}, 0
	}
	if n == 2 {
		return Tour{0, 1}, s.At(0, 1) + s.At(1, 0)
	}
	// The DP reads every entry Θ(2^n) times; a flat table of at most
	// 20×20 costs is repaid immediately by array-indexed reads.
	c := make([]Cost, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c[i*n+j] = s.At(i, j)
		}
	}
	// dp[mask*k+j]: cheapest path from city 0 through exactly the cities
	// in mask (a subset of {1..n-1}), ending at city j+1 — index j ranges
	// over 1..n-1 shifted down by one. One flat array for every subset,
	// and one for the parents, instead of two slices per subset.
	k := n - 1
	size := 1 << k
	const inf = Cost(1) << 62
	dp := make([]Cost, size*k)
	parent := make([]int8, size*k)
	for i := k; i < len(dp); i++ {
		dp[i] = inf
		parent[i] = -1
	}
	for j := 0; j < k; j++ {
		dp[(1<<j)*k+j] = c[j+1]
	}
	for mask := 1; mask < size; mask++ {
		for j := 0; j < k; j++ {
			cur := dp[mask*k+j]
			if cur >= inf || mask&(1<<j) == 0 {
				continue
			}
			row := c[(j+1)*n+1 : (j+2)*n] // costs from city j+1 to cities 1..n-1
			for nxt := 0; nxt < k; nxt++ {
				if mask&(1<<nxt) != 0 {
					continue
				}
				at := (mask|1<<nxt)*k + nxt
				cand := cur + row[nxt]
				if cand < dp[at] {
					dp[at] = cand
					parent[at] = int8(j)
				}
			}
		}
	}
	full := size - 1
	best := inf
	last := -1
	for j := 0; j < k; j++ {
		cand := dp[full*k+j] + c[(j+1)*n]
		if cand < best {
			best = cand
			last = j
		}
	}
	// Reconstruct the cycle.
	order := make([]int, 0, n)
	mask := full
	for j := last; j >= 0; {
		order = append(order, j+1)
		pj := parent[mask*k+j]
		mask &^= 1 << j
		j = int(pj)
	}
	tour := make(Tour, 0, n)
	tour = append(tour, 0)
	for i := len(order) - 1; i >= 0; i-- {
		tour = append(tour, order[i])
	}
	return tour, best
}
