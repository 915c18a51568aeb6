// Command compare judges two sets of benchmark results, a parent and a
// change, under the end-to-end bounds in BENCHMARK.json:
//
//	go run ./compare -spec ../BENCHMARK.json parent.jsonl change.jsonl
//
// Each file holds the records `run.sh -out FILE` appends, one per run.
// Within a workload the i-th parent run is paired with the i-th change
// run, so run the two sides alternately. For every (workload, metric) it
// prints each side's median and quartiles, the share of pairs the change
// won (ties count for neither side) and a verdict:
//
//	unresolved  the parent's own spread (IQR / median) exceeds the bound,
//	            and the change does not beat every parent run with every run
//	regressed   the change's median is worse than the parent's by more
//	            than the bound
//	improved    the change won at least 9/10 of the pairs and the medians
//	            differ by more than the parent's interquartile range
//	unchanged   otherwise
//
// Quartiles are Python's statistics.quantiles(values, n=4). It exits 1
// if any metric regressed. -o writes the rows as JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type record struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	HostCPUs  int    `json:"host_cpus"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Result    struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// side summarizes one set's runs of one (workload, metric).
type side struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3 - Q1) / Median
}

type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	Parent   side    `json:"parent"`
	Change   side    `json:"change"`
	Won      float64 `json:"won"`
	Verdict  string  `json:"verdict"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	out := flag.String("o", "", "also write the rows, with the runs' provenance, as JSON to this file")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] [-o FILE] parent.jsonl change.jsonl")
		os.Exit(2)
	}
	rows, prov, err := compare(*specPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	printRows(os.Stdout, rows)
	if *out != "" {
		data, err := json.MarshalIndent(map[string]any{"provenance": prov, "rows": rows}, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
	}
	for _, r := range rows {
		if r.Verdict == "regressed" {
			os.Exit(1)
		}
	}
}

// provenance records where each side's runs came from.
type provenance struct {
	HostCPUs  []int    `json:"host_cpus"`
	GoVersion []string `json:"go_version"`
	Commit    []string `json:"commit"`
	Seconds   []int    `json:"seconds"`
	Runs      int      `json:"runs"`
}

func compare(specPath, parentPath, changePath string) ([]row, [2]provenance, error) {
	var prov [2]provenance
	var sp spec
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, prov, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, prov, fmt.Errorf("%s: %w", specPath, err)
	}
	var sets [2][]record
	for i, path := range []string{parentPath, changePath} {
		if sets[i], err = readRecords(path); err != nil {
			return nil, prov, err
		}
		prov[i] = provenanceOf(sets[i])
	}
	var workloads []string
	seen := map[string]bool{}
	for _, r := range append(sets[0], sets[1]...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	var rows []row
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			var vals [2][]float64
			for i := range sets {
				for _, r := range sets[i] {
					if v, ok := r.Result.Metrics[m.Name]; ok && r.Workload == w {
						vals[i] = append(vals[i], v.Value)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			lower := m.Better == "lower"
			r := row{Workload: w, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				Parent: summarize(vals[0]), Change: summarize(vals[1])}
			r.Won = wonShare(vals[0], vals[1], lower)
			r.Verdict = verdict(r, lower, vals[0], vals[1])
			rows = append(rows, r)
		}
	}
	return rows, prov, nil
}

// readRecords reads the end-to-end (untraced) records of a results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func provenanceOf(rs []record) provenance {
	var p provenance
	p.Runs = len(rs)
	for _, r := range rs {
		p.HostCPUs = appendNew(p.HostCPUs, r.HostCPUs)
		p.GoVersion = appendNew(p.GoVersion, r.GoVersion)
		p.Commit = appendNew(p.Commit, r.Commit)
		p.Seconds = appendNew(p.Seconds, r.Seconds)
	}
	return p
}

func appendNew[T comparable](xs []T, x T) []T {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

func summarize(v []float64) side {
	s := side{Values: v}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quartiles(sorted)
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / s.Median
	}
	return s
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method; the median is the usual midpoint median.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	n := len(sorted)
	if n%2 == 1 {
		med = sorted[n/2]
	} else {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// wonShare is the share of (parent, change) pairs, in run order, where
// the change read strictly better.
func wonShare(parent, change []float64, lower bool) float64 {
	n := min(len(parent), len(change))
	won := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i], lower) {
			won++
		}
	}
	return float64(won) / float64(n)
}

func better(a, b float64, lower bool) bool {
	if lower {
		return a < b
	}
	return a > b
}

func verdict(r row, lower bool, parent, change []float64) string {
	worse := (r.Change.Median - r.Parent.Median) / r.Parent.Median
	if !lower {
		worse = -worse
	}
	switch {
	case r.Parent.Spread > r.Bound:
		for _, c := range change {
			for _, p := range parent {
				if !better(c, p, lower) {
					return "unresolved"
				}
			}
		}
		return "improved"
	case worse > r.Bound:
		return "regressed"
	case r.Won >= 0.9 && abs(r.Change.Median-r.Parent.Median) > r.Parent.Q3-r.Parent.Q1:
		return "improved"
	}
	return "unchanged"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-15s %-15s %-28s %-28s %7s %6s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-15s %-28s %-28s %+6.1f%% %5.0f%% %5.1f%%  %s\n",
			r.Workload, r.Metric, fmtSide(r.Parent), fmtSide(r.Change),
			100*(r.Change.Median-r.Parent.Median)/r.Parent.Median, 100*r.Won, 100*r.Bound, r.Verdict)
	}
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
