package engine

import (
	"crypto/sha256"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestResultCacheAdmission pins the result cache's admission rule. Each
// row runs ops, space-separated: "a" counts one request for key a, "+a"
// puts a result under a and expects it admitted, "-a" puts one and
// expects it refused, and "a=4" expects the sketch to estimate a at 4.
// cached lists the keys held afterwards, most recently used first.
func TestResultCacheAdmission(t *testing.T) {
	for _, tc := range []struct {
		name      string
		entries   int
		ops       string
		cached    string
		evictions int
	}{
		{name: "room is free", entries: 2,
			ops: "+a b +b", cached: "b a"},
		{name: "once-seen never displaces twice-seen", entries: 1,
			ops: "a a +a b -b", cached: "a"},
		{name: "a tie is refused", entries: 1,
			ops: "a +a b -b", cached: "a"},
		{name: "more often seen displaces", entries: 1,
			ops: "a +a b b +b", cached: "b", evictions: 1},
		{name: "the victim is least recently used, not least frequent", entries: 2,
			ops: "a a a +a b +b c c -c c -c c +c", cached: "c b", evictions: 1},
		// The tenth counted request, b's first, halves every counter:
		// a's nine sightings weigh four and b's one nothing, so b needs
		// five more to outweigh a.
		{name: "halving lets a newly popular key replace a formerly hot one", entries: 1,
			ops: strings.Repeat("a ", 9) + "+a a=9 b a=4 b=0 b b b b -b b +b", cached: "b", evictions: 1},
		{name: "disabled stores nothing", entries: -1,
			ops: "a a +a b +b", cached: ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(tc.entries)
			if (c.freq == nil) != (tc.entries <= 0) {
				t.Fatalf("sketch present=%v for %d entries", c.freq != nil, tc.entries)
			}
			evictions := 0
			c.onEvict = func(*Result) { evictions++ }
			key := func(name string) Key { return sha256.Sum256([]byte(name)) }
			for i, op := range strings.Fields(tc.ops) {
				switch {
				case op[0] == '+' || op[0] == '-':
					if refused := c.put(key(op[1:]), &Result{}); refused != (op[0] == '-') {
						t.Fatalf("op %d %q: refused=%v", i, op, refused)
					}
				case strings.Contains(op, "="):
					name, want, _ := strings.Cut(op, "=")
					if got := c.freq.estimate(key(name)); strconv.Itoa(int(got)) != want {
						t.Fatalf("op %d %q: estimate %d", i, op, got)
					}
				default:
					c.count(key(op))
				}
			}
			var held []string
			for el := c.order.Front(); el != nil; el = el.Next() {
				for _, name := range strings.Fields("a b c") {
					if el.Value.(*lruEntry[*Result]).key == key(name) {
						held = append(held, name)
					}
				}
			}
			if got := strings.Join(held, " "); got != tc.cached || c.len() != len(held) {
				t.Errorf("cached %q (%d entries), want %q", got, c.len(), tc.cached)
			}
			if evictions != tc.evictions {
				t.Errorf("%d evictions, want %d", evictions, tc.evictions)
			}
		})
	}
}

// TestSketchWidth pins the sketch rows' width: the smallest power of
// two at or above 16 counters per cache entry, capped at maxSketchWidth
// so that a huge CacheEntries allocates at most 4 MB of sketch.
func TestSketchWidth(t *testing.T) {
	for _, tc := range []struct{ entries, width int }{
		{1, 16}, {64, 1024}, {100, 2048}, {1 << 16, maxSketchWidth}, {1 << 40, maxSketchWidth},
	} {
		s := newSketch(tc.entries)
		for i, row := range s.rows {
			if len(row) != tc.width {
				t.Errorf("%d entries: row %d is %d wide, want %d", tc.entries, i, len(row), tc.width)
			}
		}
	}
}

// TestResultCacheZipfMissRatio replays one seeded Zipf(1.1) stream over
// 152 keys through the admitted 64-entry result cache and through a
// plain 64-entry LRU. The stream is drawn as the mixed_zipf benchmark
// workload draws its requests (zipfStream). The admitted cache must
// miss at most 0.75 times as often: a rare key no longer evicts a
// popular one.
func TestResultCacheZipfMissRatio(t *testing.T) {
	const (
		entries = 64
		keys    = 152
		draws   = 100_000
	)
	ks := make([]Key, keys)
	for i := range ks {
		ks[i] = sha256.Sum256([]byte(strconv.Itoa(i)))
	}
	admitted, plain := newResultCache(entries), newLRU[*Result](entries)
	var admittedMisses, plainMisses int
	for _, rank := range zipfStream(rand.New(rand.NewSource(1)), 1.1, keys, draws) {
		k := ks[rank]
		admitted.count(k)
		if _, ok := admitted.get(k); !ok {
			admittedMisses++
			admitted.put(k, &Result{})
		}
		if _, ok := plain.get(k); !ok {
			plainMisses++
			plain.put(k, &Result{})
		}
	}
	a, p := float64(admittedMisses)/draws, float64(plainMisses)/draws
	t.Logf("miss ratio: admitted %.3f, plain LRU %.3f", a, p)
	if a > 0.75*p {
		t.Errorf("admitted cache misses %.3f of requests, plain LRU %.3f: want at most 0.75 times", a, p)
	}
}

// zipfStream returns n Zipf(s) draws over ranks [0, keys). Draw j
// inverts the CDF at the base-2 radical inverse of j, shifted by a
// random offset, so every stretch of the stream holds each rank close
// to its expected count; each window of 16 draws is then shuffled.
func zipfStream(r *rand.Rand, s float64, keys, n int) []int {
	cdf := make([]float64, keys)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	off := r.Float64()
	out := make([]int, n)
	for j := range out {
		u := math.Mod(float64(bits.Reverse32(uint32(j)))/(1<<32)+off, 1)
		out[j] = min(sort.SearchFloat64s(cdf, u*total), keys-1)
		if j%16 == 15 {
			w := out[j-15 : j+1]
			r.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
		}
	}
	return out
}
