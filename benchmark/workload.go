package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/staticprof"
)

// program is one Mini-C program as the client knows it: the module it
// compiles to and the profile the daemon aligns it against (measured on
// the training input, shipped by the client, or estimated statically).
type program struct {
	name     string // "bench/dataset", a bench name, or "synth-N"
	bench    string
	dataset  string
	source   string
	inputs   []interp.Input // profiling input; nil for static requests
	mod      *ir.Module
	prof     *interp.Profile
	profJSON []byte // the profile as shipped in the request; synth only
	static   bool
	steps    int64 // interpreter steps of the profiling run
}

// wireRequest is the subset of balignd's /v1/align request the benchmark
// sends.
type wireRequest struct {
	Source      string          `json:"source,omitempty"`
	Bench       string          `json:"bench,omitempty"`
	DataSet     string          `json:"dataset,omitempty"`
	Profile     json.RawMessage `json:"profile,omitempty"`
	ProfileMode string          `json:"profile_mode,omitempty"`
	Algorithm   string          `json:"algorithm,omitempty"`
	Seed        int64           `json:"seed,omitempty"`
	Bound       bool            `json:"bound,omitempty"`
	Trace       bool            `json:"trace,omitempty"`
}

// item is one request of a workload, encoded once up front so the timed
// loop only sends bytes.
type item struct {
	prog  *program
	bound bool
	body  []byte // trace off; also the request's identity for the checks
	tbody []byte // trace on
}

func newItem(p *program, req wireRequest) (*item, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	req.Trace = true
	tbody, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &item{prog: p, bound: req.Bound, body: body, tbody: tbody}, nil
}

// sequence is a workload's deterministic request stream. next is only
// called under mu, in index order, so the stream is a pure function of
// the seed however the clients interleave.
type sequence struct {
	mu    sync.Mutex
	items []*item
	err   error // the first generation failure; the stream ends there
	next  func() (*item, error)
}

func (s *sequence) at(i int) (*item, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i && s.err == nil {
		it, err := s.next()
		if err != nil {
			s.err = err
			break
		}
		s.items = append(s.items, it)
	}
	if i < len(s.items) {
		return s.items[i], nil
	}
	return nil, s.err
}

// failed returns the generation failure that ended the stream, if any.
func (s *sequence) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// workload is one traffic mix. Setup requests run after readiness and
// count toward setup_s; the timed phase then sends seq from index 0.
type workload struct {
	name    string
	clients int
	setup   []*item
	seq     *sequence
	// quality is how many leading timed requests the quality metrics
	// cover: a fixed prefix, so they do not depend on how many requests
	// a run completes.
	quality int
	// traced is how many timed requests the traced pass sends.
	traced int
}

var workloadNames = []string{"cold_bundled", "hot_bundled", "synth_recorded", "mixed_zipf"}

// newWorkload builds the named workload's inputs from seed. pregen is how
// many timed requests to generate before the daemon starts, so input
// generation stays out of the timed loop.
func newWorkload(name string, seed int64, pregen int) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "cold_bundled":
		w, err = coldBundled(seed)
	case "hot_bundled":
		w, err = hotBundled(seed)
	case "synth_recorded":
		w, err = synthRecorded(seed)
	case "mixed_zipf":
		w, err = mixedZipf(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if _, err := w.seq.at(pregen - 1); err != nil {
		return nil, err
	}
	return w, nil
}

// bundledPairs compiles and profiles the 12 bundled (bench, dataset)
// pairs, exactly as balignd does for a bench request. withGo95 adds
// go95/sh, the extended suite's small input: 13 equally frequent pairs
// put the latency median inside one pair's cluster rather than in the gap
// between the 6th and 7th, which keeps it steady from seed to seed.
func bundledPairs(withGo95 bool) ([]*program, error) {
	var out []*program
	for _, b := range bench.Extended() {
		sets := b.DataSets
		if b.Name == "go95" {
			if !withGo95 {
				continue
			}
			ds, err := b.DataSet("sh")
			if err != nil {
				return nil, err
			}
			sets = []bench.DataSet{*ds}
		}
		mod, err := b.Compile()
		if err != nil {
			return nil, err
		}
		for _, ds := range sets {
			inputs := ds.Make()
			prof := interp.NewProfile(mod)
			res, err := interp.Run(mod, inputs, interp.Options{Profile: prof, MaxSteps: 1 << 31})
			if err != nil {
				return nil, fmt.Errorf("profiling %s/%s: %w", b.Name, ds.Name, err)
			}
			out = append(out, &program{name: b.Name + "/" + ds.Name, bench: b.Name, dataset: ds.Name,
				source: b.Source, inputs: inputs, mod: mod, prof: prof, steps: res.Steps})
		}
	}
	return out, nil
}

func benchRequest(p *program, alg string, seed int64, bound bool) wireRequest {
	return wireRequest{Bench: p.bench, DataSet: p.dataset, Algorithm: alg, Seed: seed, Bound: bound}
}

// cycles returns a generator over seeded permutations of n slots: each
// cycle of n consecutive indexes visits every slot once, so any prefix
// holds every slot within one of its share. It yields (cycle, slot).
func cycles(r *rand.Rand, n int) func() (int, int) {
	var perm []int
	i := 0
	return func() (int, int) {
		if i%n == 0 {
			perm = r.Perm(n)
		}
		c, s := i/n, perm[i%n]
		i++
		return c, s
	}
}

// coldBundled: every request misses the cache. Each pair's k-th visit
// uses exttsp when k is its exttsp phase mod 5 and sets bound when k is
// its bound phase mod 4, so the shares are exact per pair.
func coldBundled(seed int64) (*workload, error) {
	pairs, err := bundledPairs(true)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	extPhase, boundPhase := make([]int, len(pairs)), make([]int, len(pairs))
	for i := range pairs {
		extPhase[i], boundPhase[i] = r.Intn(5), r.Intn(4)
	}
	next := cycles(r, len(pairs))
	n := int64(0)
	// One warm-up request at a solver seed no timed request uses, so the
	// first timed request does not also pay for the process warming up.
	warm, err := newItem(pairs[0], benchRequest(pairs[0], "tsp", seed<<24, false))
	if err != nil {
		return nil, err
	}
	return &workload{
		name:    "cold_bundled",
		clients: 1,
		setup:   []*item{warm},
		quality: 5 * len(pairs),
		traced:  60,
		seq: &sequence{next: func() (*item, error) {
			c, p := next()
			alg := "tsp"
			if c%5 == extPhase[p] {
				alg = "exttsp"
			}
			n++
			// A solver seed no other request uses: every request misses.
			return newItem(pairs[p], benchRequest(pairs[p], alg, seed<<24+n, c%4 == boundPhase[p]))
		}},
	}, nil
}

// hotBundled: the 13 pairs at one solver seed, primed during setup so
// every timed engine lookup hits.
func hotBundled(seed int64) (*workload, error) {
	pairs, err := bundledPairs(true)
	if err != nil {
		return nil, err
	}
	universe := make([]*item, len(pairs))
	for p, pr := range pairs {
		it, err := newItem(pr, benchRequest(pr, "tsp", seed, (int64(p)+seed)%4 == 0))
		if err != nil {
			return nil, err
		}
		universe[p] = it
	}
	next := cycles(rand.New(rand.NewSource(seed)), len(pairs))
	return &workload{
		name:    "hot_bundled",
		clients: 2,
		setup:   universe,
		quality: 5 * len(pairs),
		traced:  60,
		seq: &sequence{next: func() (*item, error) {
			_, p := next()
			return universe[p], nil
		}},
	}, nil
}

// synthRecorded: distinct generated modules with client-recorded
// profiles, so the daemon runs no interpreter and the solver dominates.
// Each cycle of 10 requests holds every (size, bound) combination once.
func synthRecorded(seed int64) (*workload, error) {
	mk := func(genSeed int64, size int, bound bool) (*item, error) {
		sp, err := genSynth(genSeed, size)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := sp.prof.WriteJSON(&buf); err != nil {
			return nil, err
		}
		p := &program{
			name:     fmt.Sprintf("synth-%d", genSeed),
			source:   sp.source,
			inputs:   entryInputs(sp.data),
			mod:      sp.mod,
			prof:     sp.prof,
			profJSON: buf.Bytes(),
		}
		return newItem(p, wireRequest{Source: sp.source, Profile: p.profJSON, Algorithm: "tsp", Seed: seed, Bound: bound})
	}
	// The warm-up module is the same for every seed, so set-up time does
	// not vary with it; no timed module uses a negative generator seed.
	warm, err := mk(-1, synthSizes[len(synthSizes)/2], false)
	if err != nil {
		return nil, err
	}
	next := cycles(rand.New(rand.NewSource(seed)), 2*len(synthSizes))
	n := int64(0)
	return &workload{
		name:    "synth_recorded",
		clients: 1,
		setup:   []*item{warm},
		quality: 40,
		traced:  25,
		seq: &sequence{next: func() (*item, error) {
			_, slot := next()
			n++
			return mk(seed<<24+n-1, synthSizes[slot/2], slot%2 == 1)
		}},
	}, nil
}

// Mixed-workload shape: a universe larger than balignd's 64-entry cache,
// drawn Zipf(zipfS) after zipfWarmup untimed requests.
const (
	zipfS      = 1.1
	zipfWarmup = 48
	zipfWindow = 16
)

// mixedZipf: 96 measured requests (12 pairs x solver seeds 1-4 x
// {tsp, exttsp}, bound on the seed-1 tsp ones) and 56 static ones (the
// 7 extended-suite programs x 4 seeds x 2 algorithms). The run seed picks
// the solver seeds and the draw order; popularity does not depend on it.
// Popularity is assigned middle-out by interpreter work: the most popular
// request is the median-cost one, and ranks alternate to dearer and
// cheaper requests from there (static requests run no interpreter and
// count as cheapest). The latency distribution is then unimodal, so its
// quantiles move smoothly as the mix shifts from seed to seed instead of
// jumping between the clusters of single popular requests.
func mixedZipf(seed int64) (*workload, error) {
	pairs, err := bundledPairs(false)
	if err != nil {
		return nil, err
	}
	var statics []*program
	for _, b := range bench.Extended() {
		mod, err := b.Compile()
		if err != nil {
			return nil, err
		}
		prof, _ := staticprof.Estimate(mod)
		statics = append(statics, &program{name: b.Name, bench: b.Name, source: b.Source, mod: mod, prof: prof, static: true})
	}
	var universe []*item
	for k := int64(1); k <= 4; k++ {
		solverSeed := seed<<8 + k
		for _, alg := range []string{"tsp", "exttsp"} {
			for _, p := range pairs {
				it, err := newItem(p, benchRequest(p, alg, solverSeed, k == 1 && alg == "tsp"))
				if err != nil {
					return nil, err
				}
				universe = append(universe, it)
			}
			for _, p := range statics {
				it, err := newItem(p, wireRequest{Bench: p.bench, ProfileMode: "static", Algorithm: alg, Seed: solverSeed})
				if err != nil {
					return nil, err
				}
				universe = append(universe, it)
			}
		}
	}
	sort.SliceStable(universe, func(i, j int) bool { return universe[i].prog.steps < universe[j].prog.steps })
	ranked := make([]*item, 0, len(universe))
	for lo, hi := len(universe)/2, len(universe)/2+1; lo >= 0 || hi < len(universe); lo, hi = lo-1, hi+1 {
		if lo >= 0 {
			ranked = append(ranked, universe[lo])
		}
		if hi < len(universe) {
			ranked = append(ranked, universe[hi])
		}
	}
	draw := zipfDraws(rand.New(rand.NewSource(seed)), len(ranked))
	return &workload{
		name:    "mixed_zipf",
		clients: 2,
		// The warm-up sends the zipfWarmup most popular requests once
		// each, so its cost does not depend on which rare, expensive
		// requests a seed's first draws happen to hit.
		setup:   ranked[:zipfWarmup],
		seq:     &sequence{next: func() (*item, error) { return ranked[draw()], nil }},
		quality: 256,
		traced:  60,
	}, nil
}

// zipfDraws returns a Zipf(zipfS) sampler over ranks [0, n). The draws
// are quasi-random: the j-th inverts the CDF at the base-2 radical
// inverse of j, shifted by a seeded offset, so every stretch of the
// stream holds each rank close to its expected count, the rare and
// expensive ones included. Each window of zipfWindow draws is then
// shuffled, so duplicates still meet in flight and coalesce.
func zipfDraws(r *rand.Rand, n int) func() int {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -zipfS)
		cdf[k] = total
	}
	off := r.Float64()
	var j uint32
	var window []int
	return func() int {
		if len(window) == 0 {
			for k := 0; k < zipfWindow; k++ {
				u := float64(bits.Reverse32(j)) / (1 << 32)
				j++
				window = append(window, min(sort.SearchFloat64s(cdf, math.Mod(u+off, 1)*total), n-1))
			}
			r.Shuffle(len(window), func(a, b int) { window[a], window[b] = window[b], window[a] })
		}
		k := window[0]
		window = window[1:]
		return k
	}
}
