// Scaling benchmarks for the parallel multi-start solver. One series
// runs the paper's full multi-start protocol on the largest bundled
// function at 1/2/4/8 workers:
//
//	scripts/bench.sh parallel 'BenchmarkSolveParallel'
//
// (see results/BENCH_parallel.json). The solve is bit-identical at
// every width — tsp_test's determinism suite pins that — so the series
// isolates pure wall-clock scaling. Speedup is bounded by min(workers,
// GOMAXPROCS, runs): on a single-core host every width collapses to
// sequential throughput, so judge scaling numbers against the
// snapshot's recorded host parallelism.
package branchalign

import (
	"fmt"
	"runtime"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

// BenchmarkSolveParallel measures the multi-start solve of the heaviest
// bundled instance (xli's 63-block dispatch loop) across worker counts.
// Each width gets a dedicated pool so the series is not serialized
// through the shared pool's GOMAXPROCS cap.
func BenchmarkSolveParallel(b *testing.B) {
	m := machine.Alpha21164()
	f, fp := largestBundledFunc(b)
	sp := align.BuildSparseMatrix(f, fp, m, nil)
	for _, workers := range []int{1, 2, 4, 8} {
		opts := tsp.SolveOptions{Seed: 1, Parallelism: workers, Pool: work.NewPool(workers)}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tsp.Solve(sp, opts)
			}
		})
	}
	b.Logf("host GOMAXPROCS=%d (speedup is bounded by it)", runtime.GOMAXPROCS(0))
}

// BenchmarkBoundParallel measures the per-function Held-Karp fan-out
// that backs `balign vet`/`check.Bounds`: eight independent 300-block
// synthetic instances bounded concurrently, one ascent per pool task.
// As with the solve series, each width gets a dedicated pool, the work
// is deterministic at every width, and speedup is bounded by
// min(workers, GOMAXPROCS, instances).
func BenchmarkBoundParallel(b *testing.B) {
	m := machine.Alpha21164()
	const instances = 8
	mats := make([]*tsp.SparseMatrix, instances)
	for i := range mats {
		f, fp := synthFuncSeeded(b, 300, int64(i+1))
		mats[i] = align.BuildSparseMatrix(f, fp, m, nil)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pool := work.NewPool(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool.Each(len(mats), func(k int) {
					tsp.HeldKarpBound(mats[k], tsp.HeldKarpOptions{Iterations: 120})
				})
			}
		})
	}
	b.Logf("host GOMAXPROCS=%d (speedup is bounded by it)", runtime.GOMAXPROCS(0))
}
