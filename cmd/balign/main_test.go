package main

import (
	"os"
	"path/filepath"
	"testing"

	"branchalign/internal/ir"
)

func TestPickAligners(t *testing.T) {
	cases := map[string]int{"all": 5, "original": 0, "greedy": 1, "cg": 1, "calder-grunwald": 1, "ap-patch": 1, "patch": 1, "tsp": 1, "exttsp": 1}
	for sel, want := range cases {
		as, err := pickAligners(sel)
		if err != nil {
			t.Errorf("pickAligners(%q): %v", sel, err)
			continue
		}
		if len(as) != want {
			t.Errorf("pickAligners(%q) returned %d aligners, want %d", sel, len(as), want)
		}
	}
	if _, err := pickAligners("quantum"); err == nil {
		t.Error("expected error for unknown aligner")
	}
}

func TestLoadProgramFromBench(t *testing.T) {
	mod, inputs, err := loadProgram("", "compress", "txt", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if mod.FuncIndex("main") < 0 || len(inputs) != 2 {
		t.Errorf("unexpected benchmark load result")
	}
	// Default data set when omitted.
	if _, _, err := loadProgram("", "compress", "", "", -1); err != nil {
		t.Errorf("default data set failed: %v", err)
	}
	if _, _, err := loadProgram("", "nosuch", "", "", -1); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if _, _, err := loadProgram("", "compress", "nosuch", "", -1); err == nil {
		t.Error("expected error for unknown data set")
	}
}

func TestLoadProgramFromSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.mc")
	src := `func main(input[], n) { var i; var s = 0; for (i = 0; i < n; i = i + 1) { s = s + input[i]; } return s; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, inputs, err := loadProgram(path, "", "", "3, 4, 5", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 2 || !inputs[0].IsArray || inputs[1].Scalar != 3 {
		t.Errorf("input binding wrong: %+v", inputs)
	}
	if mod.Funcs[mod.EntryFunc].Params[0] != ir.ParamArray {
		t.Error("entry signature wrong")
	}
	// Scalar-only entry.
	path2 := filepath.Join(dir, "prog2.mc")
	if err := os.WriteFile(path2, []byte(`func main(n) { return n; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, inputs2, err := loadProgram(path2, "", "", "", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs2) != 1 || inputs2[0].Scalar != 42 {
		t.Errorf("scalar binding wrong: %+v", inputs2)
	}
	// Unsupported signature.
	path3 := filepath.Join(dir, "prog3.mc")
	if err := os.WriteFile(path3, []byte(`func main(a, b, c) { return a; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadProgram(path3, "", "", "", -1); err == nil {
		t.Error("expected error for unsupported entry signature")
	}
	// Bad -data element.
	if _, _, err := loadProgram(path, "", "", "1,two,3", -1); err == nil {
		t.Error("expected error for malformed data")
	}
	// Neither -src nor -bench.
	if _, _, err := loadProgram("", "", "", "", -1); err == nil {
		t.Error("expected usage error")
	}
}
