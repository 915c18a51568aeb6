package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
)

// Key is a sha256 digest identifying one computation: a result-cache and
// single-flight key, or (for the warm-start cache) one DTSP instance.
type Key [sha256.Size]byte

// Key returns the request's result-cache and single-flight key. Requests
// with equal keys are the same computation, and the engine serves one's
// result to the other.
func (req Request) Key() Key {
	if req.Algorithm == "" {
		req.Algorithm = "tsp"
	}
	return resultKey(instanceKey(&req), &req)
}

// instanceKey derives the warm-start key: one streaming sha256 over the
// request's Inputs, its profile mode and its machine model, the inputs
// that determine the per-function DTSP instances. Load is a pure
// function of Inputs, so the digest stands for the loaded module and
// profile without anything being loaded, printed or serialized. Every
// variable-length field is length-prefixed and every number fixed-width,
// so no two distinct requests share a preimage.
//
// The profile mode is a structural component: an estimated profile and
// a measured one hash under different tags, so their results can never
// collide, even if a measured profile reproduced the estimate bit for
// bit.
func instanceKey(req *Request) Key {
	h := sha256.New()
	b := make([]byte, 0, 96+len(req.Model.Name))
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
	for _, c := range [...]int64{
		m.JumpCost,
		m.CondFallthroughCorrect, m.CondTakenCorrect, m.CondMispredict,
		m.MultiCorrectFallthrough, m.MultiCorrectTaken, m.MultiMispredict,
		m.RetCost, m.CallCost,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	h.Write(b)
	var k Key
	h.Sum(k[:0])
	return k
}

// resultKey extends an instance key with what else determines the
// computed layout: the algorithm, the solver seed, the budget's work
// caps and the bound request. The wall-clock deadline, the telemetry
// span and the solver parallelism are deliberately excluded: they change
// when (and how observably) the answer arrives, not what it is.
// Parallelism in particular must not fragment the LRU — the solver is
// bit-identical at every setting, so a sequentially solved entry is
// served to a parallel request and vice versa
// (TestCacheKeyIgnoresParallelism pins this).
func resultKey(inst Key, req *Request) Key {
	b := make([]byte, 0, len(inst)+48+len(req.Algorithm))
	b = append(b, inst[:]...)
	b = appendString(b, req.Algorithm)
	for _, v := range [...]int64{
		req.Seed, req.Budget.MaxKicks, int64(req.Budget.MaxHKIterations), int64(req.HKIterations),
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	if req.Bound {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return sha256.Sum256(b)
}

// appendString appends s with its length prefix.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// lru is a minimal least-recently-used cache. The engine keeps two: one
// over *Result (the result cache) and one over warm-start dual states.
// Callers hold the engine mutex; lru itself is not safe for concurrent
// use.
type lru[V any] struct {
	max   int
	order *list.List // front = most recent; values are *lruEntry[V]
	byKey map[Key]*list.Element
	// onEvict, when non-nil, observes each capacity eviction (not
	// replacements of an existing key) — the metrics-plane hook.
	onEvict func()
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
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	el, ok := c.byKey[key]
	if !ok {
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
		delete(c.byKey, oldest.Value.(*lruEntry[V]).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}
