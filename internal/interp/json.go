package interp

import (
	"encoding/json"
	"fmt"
	"io"

	"branchalign/internal/ir"
)

// WriteJSON serializes the profile. The paper's toolchain passed profile
// data between separate programs as files ("The TSP Matrix column shows
// the time to transform the profile data into DTSP problem matrices");
// this is the equivalent interchange format.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// ReadProfileJSON deserializes a profile and validates its shape against
// mod, so stale profiles from a different program version are rejected
// instead of corrupting alignment.
func ReadProfileJSON(r io.Reader, mod *ir.Module) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("interp: decoding profile: %w", err)
	}
	if err := p.CheckShape(mod); err != nil {
		return nil, err
	}
	return &p, nil
}

// MaxFuncCount caps the counts a profile may carry for one function: the
// sum of its block counts, the sum of its edge counts and the sum of its
// call-count row may each be at most this. The interpreter records at
// most 2^31 under balignd's step budget, and the static estimator's
// largest function (eqntott's) sums to about 2^42. At 2^44, a function's
// count × penalty total stays below 2^48 for every machine model, so an
// untrusted profile cannot overflow the int64 cost arithmetic.
const MaxFuncCount = 1 << 44

// CheckShape verifies that the profile's dimensions match mod and that
// its counts are non-negative with per-function sums of at most
// MaxFuncCount.
func (p *Profile) CheckShape(mod *ir.Module) error {
	if len(p.Funcs) != len(mod.Funcs) {
		return fmt.Errorf("interp: profile has %d functions, module has %d", len(p.Funcs), len(mod.Funcs))
	}
	if len(p.CallCounts) != len(mod.Funcs) {
		return fmt.Errorf("interp: profile call matrix has %d rows, module has %d functions", len(p.CallCounts), len(mod.Funcs))
	}
	for fi, f := range mod.Funcs {
		fp := p.Funcs[fi]
		if fp == nil {
			return fmt.Errorf("interp: profile missing function %d (%s)", fi, f.Name)
		}
		if len(fp.BlockCounts) != len(f.Blocks) || len(fp.EdgeCounts) != len(f.Blocks) {
			return fmt.Errorf("interp: profile for %s has %d blocks, function has %d", f.Name, len(fp.BlockCounts), len(f.Blocks))
		}
		if len(p.CallCounts[fi]) != len(mod.Funcs) {
			return fmt.Errorf("interp: profile call matrix row %d has wrong width", fi)
		}
		var edges int64
		for bi, b := range f.Blocks {
			if len(fp.EdgeCounts[bi]) != len(b.Term.Succs) {
				return fmt.Errorf("interp: profile for %s block b%d has %d edges, terminator has %d successors",
					f.Name, bi, len(fp.EdgeCounts[bi]), len(b.Term.Succs))
			}
			if edges = addCounts(edges, fp.EdgeCounts[bi]); edges < 0 {
				return fmt.Errorf("interp: profile for %s: edge counts negative or summing above %d", f.Name, int64(MaxFuncCount))
			}
		}
		if addCounts(0, fp.BlockCounts) < 0 {
			return fmt.Errorf("interp: profile for %s: block counts negative or summing above %d", f.Name, int64(MaxFuncCount))
		}
		if addCounts(0, p.CallCounts[fi]) < 0 {
			return fmt.Errorf("interp: profile for %s: call counts negative or summing above %d", f.Name, int64(MaxFuncCount))
		}
	}
	return nil
}

// addCounts returns sum plus every count, or -1 when a count is negative
// or the total exceeds MaxFuncCount. sum must be in [0, MaxFuncCount], so
// the addition itself never overflows.
func addCounts(sum int64, counts []int64) int64 {
	for _, c := range counts {
		if c < 0 || c > MaxFuncCount-sum {
			return -1
		}
		sum += c
	}
	return sum
}
