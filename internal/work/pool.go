// Package work provides the one bounded worker pool the whole pipeline
// schedules CPU-bound fan-out on: per-function alignment (align.Run,
// which the engine drives) and per-run solver parallelism inside one
// tsp.Solve. Routing both layers through a single Pool keeps their
// composition bounded — aligning many functions in parallel while each
// function's multi-start protocol also runs in parallel can never
// oversubscribe the machine with more than Cap simultaneously executing
// tasks (plus the caller goroutines themselves for nested fan-out).
//
// The pool deliberately has no task queue and no returned futures: work
// is submitted as an indexed batch (Each / Nested) and the call returns
// when every index has run. Two submission modes cover the two layers:
//
//   - Each is the top-level mode: helper goroutines block until a pool
//     token frees up, the caller waits. Concurrently executing tasks
//     are bounded by Cap exactly, which is the engine's "at most
//     Workers per-function solves across all requests" contract.
//   - Nested is the inner mode, safe to call from inside an Each task:
//     the calling goroutine executes tasks itself and extra helpers
//     join only while tokens are free (non-blocking acquisition), so a
//     saturated pool degrades to sequential execution in the caller
//     instead of deadlocking on tokens its own ancestors hold.
//
// Schedule independence is the callers' responsibility and their
// contract: every batch writes results by index and derives any
// randomness from the index, so the pool's interleaving is never
// observable in results (only in wall-clock).
package work

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a bounded set of worker tokens. The zero Pool is not usable;
// a nil *Pool is valid and degrades every batch to sequential execution
// in the caller.
type Pool struct {
	tokens  chan struct{}
	active  atomic.Int64
	waiting atomic.Int64
	onWait  atomic.Pointer[func(time.Duration)]
}

// NewPool returns a pool allowing up to n concurrently executing helper
// workers. n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{tokens: make(chan struct{}, n)}
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool, sized to GOMAXPROCS at first
// use. Library callers without an explicitly injected pool (align.Run
// with a nil RunOptions.Pool) default to it, so every layer of one
// process draws from the same token budget.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = NewPool(0) })
	return shared
}

// Cap returns the maximum number of concurrent helper workers (0 on a
// nil pool).
func (p *Pool) Cap() int {
	if p == nil {
		return 0
	}
	return cap(p.tokens)
}

// Active returns the number of tasks executing right now across all
// batches on this pool, including tasks running in caller goroutines of
// Nested batches. It is a live gauge for stats endpoints, not a
// synchronization primitive.
func (p *Pool) Active() int64 {
	if p == nil {
		return 0
	}
	return p.active.Load()
}

// Waiting returns the number of helper goroutines currently blocked on
// a pool token — the pool's queue depth. Only Each helpers queue
// (Nested acquisition is non-blocking by design), so a non-zero value
// means top-level fan-out is contending for workers. Like Active, a
// live gauge for metrics endpoints, not a synchronization primitive.
func (p *Pool) Waiting() int64 {
	if p == nil {
		return 0
	}
	return p.waiting.Load()
}

// SetWaitObserver installs fn to be called with each Each helper's
// token-acquisition wait — the pool's queue-wait distribution. fn must
// be safe for concurrent use and cheap (it runs once per helper, not
// per task). A nil fn removes the observer. Safe to call at any time;
// on a nil pool it is a no-op. Observation never perturbs results:
// waits change wall-clock only, never task outcomes (the pool's
// schedule-independence contract).
func (p *Pool) SetWaitObserver(fn func(time.Duration)) {
	if p == nil {
		return
	}
	if fn == nil {
		p.onWait.Store(nil)
		return
	}
	p.onWait.Store(&fn)
}

// acquire blocks until a token is free, maintaining the queue-depth
// gauge and reporting the wait to the observer, if any.
func (p *Pool) acquire() {
	select {
	case p.tokens <- struct{}{}:
		// Fast path: a token was free; no queueing, no clock reads.
		return
	default:
	}
	p.waiting.Add(1)
	var start time.Time
	fn := p.onWait.Load()
	if fn != nil {
		start = time.Now()
	}
	p.tokens <- struct{}{}
	p.waiting.Add(-1)
	if fn != nil {
		(*fn)(time.Since(start))
	}
}

// batch tracks one Each/Nested invocation: the next undispatched index
// and the first panic raised by a task, re-raised in the submitting
// goroutine so a panicking task behaves like its sequential equivalent.
type batch struct {
	n    int
	fn   func(int)
	next atomic.Int64

	panicOnce sync.Once
	panicked  atomic.Bool
	panicVal  any
}

// drain runs tasks until the batch is exhausted (or a task panicked).
func (b *batch) drain(p *Pool) {
	for !b.panicked.Load() {
		i := int(b.next.Add(1) - 1)
		if i >= b.n {
			return
		}
		b.run(p, i)
	}
}

func (b *batch) run(p *Pool, i int) {
	if p != nil {
		p.active.Add(1)
		defer p.active.Add(-1)
	}
	defer func() {
		if r := recover(); r != nil {
			b.panicOnce.Do(func() {
				b.panicVal = r
				b.panicked.Store(true)
			})
		}
	}()
	b.fn(i)
}

// rethrow re-raises the batch's first task panic, if any, in the caller.
func (b *batch) rethrow() {
	if b.panicked.Load() {
		panic(fmt.Sprintf("work: task panicked: %v", b.panicVal))
	}
}

// Each runs fn(0), ..., fn(n-1) on the pool and returns when all calls
// (and their effects) are complete. Up to min(n, Cap) helper goroutines
// execute the batch; each blocks until a pool token is free, so
// concurrently executing tasks never exceed Cap even across concurrent
// Each calls. The caller's goroutine only waits.
//
// Each must not be called from inside a task running on the same pool —
// its blocking token acquisition could then deadlock on tokens held by
// its own ancestors; use Nested there. On a nil pool (or n == 1) the
// batch runs sequentially in the caller.
func (p *Pool) Each(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p == nil || n == 1 {
		b := &batch{n: n, fn: fn}
		b.drain(p)
		b.rethrow()
		return
	}
	b := &batch{n: n, fn: fn}
	helpers := n
	if c := cap(p.tokens); helpers > c {
		helpers = c
	}
	var wg sync.WaitGroup
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.acquire()
			defer func() { <-p.tokens }()
			b.drain(p)
		}()
	}
	wg.Wait()
	b.rethrow()
}

// Nested runs fn(0), ..., fn(n-1) with the calling goroutine as one
// executor and up to limit-1 helpers joining while pool tokens are free
// (non-blocking acquisition — a saturated pool runs the whole batch in
// the caller). limit <= 0 means no extra cap beyond the pool's. Safe to
// call from inside a task already running on p: the caller always makes
// progress, so nested fan-out cannot deadlock, and helper tokens keep
// the process-wide executing-task count bounded by Cap plus the number
// of concurrent callers (each of which is itself either a request
// goroutine or a token-holding worker).
func (p *Pool) Nested(n, limit int, fn func(int)) {
	if n <= 0 {
		return
	}
	b := &batch{n: n, fn: fn}
	if p == nil || n == 1 || limit == 1 {
		b.drain(p)
		b.rethrow()
		return
	}
	helpers := n - 1
	if limit > 0 && helpers > limit-1 {
		helpers = limit - 1
	}
	var wg sync.WaitGroup
	spawned := 0
	for ; spawned < helpers; spawned++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.tokens }()
				b.drain(p)
			}()
		default:
			spawned = helpers // pool saturated: stop trying
		}
	}
	b.drain(p) // the caller is always an executor
	wg.Wait()
	b.rethrow()
}
