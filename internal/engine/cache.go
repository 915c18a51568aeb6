package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
)

// Key is a sha256 digest identifying one computation: the result-cache
// and single-flight key.
type Key [sha256.Size]byte

// Key returns the request's result-cache and single-flight key. Requests
// with equal keys are the same computation, and the engine serves one's
// result to the other.
//
// The key is one streaming sha256 over everything that determines the
// response: the Inputs, the profile mode, the machine model, the
// algorithm, the solver seed, the kick cap, the Held-Karp iterate count
// and the bound flag. Load is a pure function of Inputs, so the digest
// stands for the loaded module and profile without anything being
// loaded, printed or serialized. Every variable-length field is
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
func (req Request) Key() Key {
	if req.Algorithm == "" {
		req.Algorithm = "tsp"
	}
	h := sha256.New()
	b := make([]byte, 0, 128+len(req.Model.Name)+len(req.Algorithm))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(req.Inputs)))
	h.Write(b)
	h.Write(req.Inputs)

	mode := byte('m')
	if req.StaticProfile {
		mode = 's'
	}
	b = append(b[:0], mode)
	m := &req.Model
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
		req.Seed, req.Budget.MaxKicks, int64(req.HKIterations), bound,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	h.Write(b)
	var k Key
	h.Sum(k[:0])
	return k
}

// appendString appends s with its length prefix.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// lru is a minimal least-recently-used cache: the engine's result
// cache. Callers hold the engine mutex; lru itself is not safe for
// concurrent use.
type lru struct {
	max   int
	order *list.List // front = most recent; values are *lruEntry
	byKey map[Key]*list.Element
	// onEvict, when non-nil, observes each capacity eviction (not
	// replacements of an existing key) — the metrics-plane hook.
	onEvict func()
}

type lruEntry struct {
	key Key
	val *Result
}

func newLRU(max int) *lru {
	return &lru{max: max, order: list.New(), byKey: map[Key]*list.Element{}}
}

// len returns the number of cached entries.
func (c *lru) len() int { return c.order.Len() }

func (c *lru) get(key Key) (*Result, bool) {
	if c.max <= 0 {
		return nil, false
	}
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lru) put(key Key, val *Result) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}
