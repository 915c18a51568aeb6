package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPickVetAligners(t *testing.T) {
	cases := map[string]int{"all": 6, "original": 1, "greedy": 1, "tsp": 1, "exttsp": 1}
	for sel, want := range cases {
		as, err := pickVetAligners(sel)
		if err != nil {
			t.Errorf("pickVetAligners(%q): %v", sel, err)
			continue
		}
		if len(as) != want {
			t.Errorf("pickVetAligners(%q) returned %d aligners, want %d", sel, len(as), want)
		}
	}
	if _, err := pickVetAligners("quantum"); err == nil {
		t.Error("expected error for unknown aligner")
	}
}

func TestRunVetCleanBenchmark(t *testing.T) {
	// A bundled benchmark must vet clean under every aligner (exit 0).
	if code := runVet([]string{"-bench", "compress", "-hk-iters", "60"}); code != 0 {
		t.Errorf("balign vet -bench compress exited %d, want 0", code)
	}
}

func TestRunVetSourceFile(t *testing.T) {
	src := `
func main(n) {
	var i = 0;
	var acc = 0;
	while (i < n) {
		if (i % 3 == 0) { acc = acc + i; } else { acc = acc - 1; }
		i = i + 1;
	}
	return acc;
}
`
	path := filepath.Join(t.TempDir(), "vetme.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runVet([]string{"-src", path, "-n", "50", "-aligner", "tsp"}); code != 0 {
		t.Errorf("balign vet -src exited %d, want 0", code)
	}
}

func TestRunVetBadInput(t *testing.T) {
	if code := runVet([]string{"-bench", "nosuch"}); code == 0 {
		t.Error("vet of unknown benchmark should fail")
	}
	if code := runVet([]string{"-bench", "compress", "-model", "vax"}); code == 0 {
		t.Error("vet with unknown model should fail")
	}
	if code := runVet([]string{"-bench", "compress", "-aligner", "quantum"}); code == 0 {
		t.Error("vet with unknown aligner should fail")
	}
	for _, iters := range []string{"0", "-3"} {
		if code := runVet([]string{"-bench", "compress", "-hk-iters", iters}); code == 0 {
			t.Errorf("vet with -hk-iters %s should fail", iters)
		}
	}
}
