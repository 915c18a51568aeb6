package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
)

// Key is a sha256 digest identifying one computation: a load (the
// load-cache key) or a whole request (the result-cache and single-flight
// key).
type Key [sha256.Size]byte

// Key returns the request's result-cache and single-flight key. Requests
// with equal keys are the same computation, and the engine serves one's
// result to the other.
//
// The key is a sha256 over the request's load key (Inputs and profile
// mode, see loadKey) followed by everything else that determines the
// response: the machine model, the algorithm, the solver seed, the kick
// cap, the Held-Karp iterate count and the bound flag. Load is a pure
// function of Inputs, so the digest stands for the loaded module and
// profile without anything being loaded, printed or serialized. The load
// key is fixed-width, every other variable-length field is
// length-prefixed and every number fixed-width, so no two distinct
// requests share a preimage. The profile mode is a structural component:
// an estimated profile and a measured one hash under different tags, so
// their results can never collide, even if a measured profile
// reproduced the estimate bit for bit.
//
// The wall-clock deadline, the telemetry span and the solver parallelism
// are deliberately excluded: they change when (and how observably) the
// answer arrives, not what it is. Parallelism in particular must not
// fragment the LRU — the solver is bit-identical at every setting, so a
// sequentially solved entry is served to a parallel request and vice
// versa (TestCacheKeyIgnoresParallelism pins this).
func (req Request) Key() Key { return req.key(req.loadKey()) }

// loadKey returns the key of the request's load: one sha256 over the
// length-prefixed Inputs and the profile-mode tag. What the engine's
// load returns is a function of exactly these two — Load reads only
// Inputs, and the checks and the static estimate read only Load's output
// and the mode — so requests with equal load keys load the same module
// and profile. It is the only hash of Inputs a request computes.
func (req Request) loadKey() Key {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(len(req.Inputs)))
	b[8] = 'm'
	if req.StaticProfile {
		b[8] = 's'
	}
	h := sha256.New()
	h.Write(b[:8])
	h.Write(req.Inputs)
	h.Write(b[8:])
	var k Key
	h.Sum(k[:0])
	return k
}

// key derives the result key from the request's load key lk.
func (req Request) key(lk Key) Key {
	if req.Algorithm == "" {
		req.Algorithm = "tsp"
	}
	m := &req.Model
	b := make([]byte, 0, len(lk)+128+len(m.Name)+len(req.Algorithm))
	b = append(b, lk[:]...)
	b = appendString(b, m.Name)
	b = appendString(b, req.Algorithm)
	bound := int64(0)
	if req.Bound {
		bound = 1
	}
	for _, c := range [...]int64{
		m.JumpCost,
		m.CondFallthroughCorrect, m.CondTakenCorrect, m.CondMispredict,
		m.MultiCorrectFallthrough, m.MultiCorrectTaken, m.MultiMispredict,
		m.RetCost, m.CallCost,
		req.Seed, req.MaxKicks, int64(req.HKIterations), bound,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return sha256.Sum256(b)
}

// appendString appends s with its length prefix.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// lru is a minimal least-recently-used map from Key to V: the engine's
// result cache and the load cache's index. Callers serialize access;
// lru itself is not safe for concurrent use.
type lru[V any] struct {
	max   int
	order *list.List // front = most recent; values are *lruEntry[V]
	byKey map[Key]*list.Element
	// onEvict, when non-nil, observes each capacity eviction (not
	// replacements of an existing key).
	onEvict func(V)
}

type lruEntry[V any] struct {
	key Key
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, order: list.New(), byKey: map[Key]*list.Element{}}
}

// len returns the number of cached entries.
func (c *lru[V]) len() int { return c.order.Len() }

func (c *lru[V]) get(key Key) (V, bool) {
	el, ok := c.byKey[key]
	if !ok || c.max <= 0 {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

func (c *lru[V]) put(key Key, val V) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		e := oldest.Value.(*lruEntry[V])
		delete(c.byKey, e.key)
		if c.onEvict != nil {
			c.onEvict(e.val)
		}
	}
}

// loadBudget caps the instructions (ir.Instr plus one terminator per
// block) of the modules the load cache retains at once. A retained
// module and its profile take about 200 bytes per instruction, so the
// budget holds about 6.5 MB whatever the requests send.
const loadBudget = 1 << 15

// loadCache is the engine's load cache: an LRU over load keys whose
// entries keep what the engine's load returned for that key, so a
// result-cache miss on a program loaded twice before skips the compile,
// the profiling run and the static estimate.
//
// Admission is on second sighting: a key's first successful load is
// recorded key-only and its module dropped, and only a key that misses
// again keeps its load. A stream of one-off programs therefore retains
// nothing. Retained modules share loadBudget instructions: the least
// recently used are demoted to key-only until a new one fits, and a
// module larger than the whole budget is never retained. Failed and
// panicking loads never reach the cache. A retained module and profile
// are shared read-only by every solve that hits them.
type loadCache struct {
	mu      sync.Mutex
	entries *lru[*loadEntry]
	budget  int
	insts   int // instructions of the retained modules
	held    int // retained modules
}

// loadEntry is one load-cache entry; mod is nil for a key-only entry.
type loadEntry struct {
	mod   *ir.Module
	prof  *interp.Profile
	insts int
}

// newLoadCache returns a load cache of at most max keys (none when max
// is not positive) whose retained modules hold at most budget
// instructions.
func newLoadCache(max, budget int) *loadCache {
	c := &loadCache{entries: newLRU[*loadEntry](max), budget: budget}
	c.entries.onEvict = c.drop
	return c
}

// get returns the retained load of key, if there is one.
func (c *loadCache) get(key Key) (*ir.Module, *interp.Profile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	le, ok := c.entries.get(key)
	if !ok || le.mod == nil {
		return nil, nil, false
	}
	return le.mod, le.prof, true
}

// add records a successful load of key: key-only on its first sighting,
// retained on a later one if mod fits the budget at all.
func (c *loadCache) add(key Key, mod *ir.Module, prof *interp.Profile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	le, ok := c.entries.get(key)
	if !ok {
		c.entries.put(key, &loadEntry{})
		return
	}
	n := moduleInsts(mod)
	if le.mod != nil || n > c.budget {
		return
	}
	// get moved key's entry to the front, and it holds nothing, so the
	// walk from the back frees room before it reaches that entry.
	for el := c.entries.order.Back(); c.insts+n > c.budget; el = el.Prev() {
		c.drop(el.Value.(*lruEntry[*loadEntry]).val)
	}
	le.mod, le.prof, le.insts = mod, prof, n
	c.insts += n
	c.held++
}

// drop demotes le to key-only, releasing its module. The entry
// itself stays in the LRU unless the LRU is evicting it.
func (c *loadCache) drop(le *loadEntry) {
	if le.mod == nil {
		return
	}
	c.insts -= le.insts
	c.held--
	le.mod, le.prof, le.insts = nil, nil, 0
}

// retained returns the number of retained loads.
func (c *loadCache) retained() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}

// moduleInsts counts mod's instructions, one per terminator included:
// the unit of loadBudget.
func moduleInsts(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs) + 1
		}
	}
	return n
}
