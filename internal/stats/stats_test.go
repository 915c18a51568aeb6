package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestRatioAndPercent(t *testing.T) {
	if got := Ratio(1, 2, -1); got != 0.5 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(1, 0, -1); got != -1 {
		t.Errorf("Ratio fallback = %v", got)
	}
	if got := PercentRemoved(0.64); math.Abs(got-36) > 1e-9 {
		t.Errorf("PercentRemoved = %v", got)
	}
}

func TestGapPct(t *testing.T) {
	for _, tc := range []struct {
		cost, bound int64
		want        float64
	}{
		{200, 150, 25},
		{100, 100, 0},
		{100, 101, 0}, // a bound above the tour clamps to zero
		{0, 0, 0},
		{-5, -10, 0},
	} {
		if got := GapPct(tc.cost, tc.bound); got != tc.want {
			t.Errorf("GapPct(%d, %d) = %v, want %v", tc.cost, tc.bound, got, tc.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("bench", "value")
	tb.Row("com.in", "11.8M")
	tb.Rowf("%s|%d", "dod.re", 42)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "bench") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[3], "dod.re") || !strings.Contains(lines[3], "42") {
		t.Errorf("Rowf row wrong: %q", lines[3])
	}
	// Columns aligned: both data rows start the second column at the same
	// offset.
	if strings.Index(lines[2], "11.8M") != strings.Index(lines[0], "value") {
		t.Errorf("columns misaligned:\n%s", s)
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[int64]string{
		11_800_000: "11.8M",
		1_234_567:  "1.23M",
		46_500:     "46.5K",
		999:        "999",
	}
	for in, want := range cases {
		if got := FormatCount(in); got != want {
			t.Errorf("FormatCount(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.Row("x")                // short row: padded to the header's width
	tb.Row("1", "2", "3", "4") // long row: widens the table
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	// Every rendered row spans the same number of columns.
	w := len(lines[3])
	for _, l := range []string{lines[0], lines[2]} {
		if len(strings.TrimRight(l, " ")) > w {
			t.Errorf("row wider than widest row:\n%s", s)
		}
	}
	if !strings.Contains(lines[3], "4") {
		t.Errorf("extra cell dropped:\n%s", s)
	}
}

func TestTableHeaderOnly(t *testing.T) {
	s := NewTable("only", "header").String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "---") {
		t.Fatalf("header-only table wrong:\n%s", s)
	}
	// Separator exactly spans the header.
	if len(lines[1]) != len(strings.TrimRight(lines[0], " ")) {
		t.Errorf("separator width %d != header width %d", len(lines[1]), len(lines[0]))
	}
}

func TestFormatCountBoundaries(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		9_999:      "9999",
		10_000:     "10.0K",
		999_999:    "1000.0K",
		1_000_000:  "1.00M",
		9_999_999:  "10.00M",
		10_000_000: "10.0M",
	}
	for in, want := range cases {
		if got := FormatCount(in); got != want {
			t.Errorf("FormatCount(%d) = %q, want %q", in, got, want)
		}
	}
}
