package machine

import "testing"

// TestAlpha21164MatchesTable3 pins the exact penalty values from the
// paper's Table 3 ("A summary of the control penalties in our 21164
// machine model"): misfetch = 1 cycle, conditional mispredict = 5 cycles,
// inserted unconditional branch = 2 cycles, register-branch mispredict =
// 3 cycles.
func TestAlpha21164MatchesTable3(t *testing.T) {
	m := Alpha21164()
	checks := []struct {
		name string
		got  Cost
		want Cost
	}{
		{"JumpCost", m.JumpCost, 2},
		{"CondFallthroughCorrect", m.CondFallthroughCorrect, 0},
		{"CondTakenCorrect", m.CondTakenCorrect, 1},
		{"CondMispredict", m.CondMispredict, 5},
		{"MultiCorrectFallthrough", m.MultiCorrectFallthrough, 0},
		{"MultiCorrectTaken", m.MultiCorrectTaken, 1},
		{"MultiMispredict", m.MultiMispredict, 3},
		{"RetCost", m.RetCost, 1},
		{"CallCost", m.CallCost, 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if m.Name != "alpha21164" {
		t.Errorf("Name = %q", m.Name)
	}
}

func TestModelOrderingAblation(t *testing.T) {
	shallow, alpha, deep := ShallowPipe(), Alpha21164(), DeepPipe()
	if !(shallow.CondMispredict < alpha.CondMispredict && alpha.CondMispredict < deep.CondMispredict) {
		t.Error("mispredict penalties should be ordered shallow < alpha < deep")
	}
	if !(shallow.MultiMispredict < alpha.MultiMispredict && alpha.MultiMispredict < deep.MultiMispredict) {
		t.Error("register-branch penalties should be ordered shallow < alpha < deep")
	}
}

func TestModelsListsPaperModelFirst(t *testing.T) {
	models := Models()
	if len(models) < 3 {
		t.Fatalf("expected at least 3 models, got %d", len(models))
	}
	if models[0].Name != "alpha21164" {
		t.Errorf("first model = %q, want alpha21164", models[0].Name)
	}
}

func TestCacheAwareSurcharge(t *testing.T) {
	base := Alpha21164()
	aware := CacheAware(base, 2)
	if aware.Name != "alpha21164+cache" {
		t.Errorf("Name = %q", aware.Name)
	}
	// Taken events gain the surcharge...
	if aware.JumpCost != base.JumpCost+2 ||
		aware.CondTakenCorrect != base.CondTakenCorrect+2 ||
		aware.CondMispredict != base.CondMispredict+2 ||
		aware.MultiCorrectTaken != base.MultiCorrectTaken+2 ||
		aware.MultiMispredict != base.MultiMispredict+2 {
		t.Errorf("surcharge not applied uniformly: %+v", aware)
	}
	// ...fall-through events do not.
	if aware.CondFallthroughCorrect != base.CondFallthroughCorrect ||
		aware.MultiCorrectFallthrough != base.MultiCorrectFallthrough {
		t.Errorf("fall-through penalties must be untouched: %+v", aware)
	}
	// Layout-independent costs unchanged.
	if aware.RetCost != base.RetCost || aware.CallCost != base.CallCost {
		t.Errorf("call/ret costs must be untouched")
	}
}

func TestTableRendering(t *testing.T) {
	rows := Alpha21164().Table()
	if len(rows) != 10 {
		t.Fatalf("Table has %d rows, want 10", len(rows))
	}
	// Spot-check the signature rows of Table 3.
	if rows[1].Penalty != 2 {
		t.Errorf("unconditional-branch row penalty = %d, want 2", rows[1].Penalty)
	}
	if rows[4].Penalty != 5 {
		t.Errorf("conditional mispredict row penalty = %d, want 5", rows[4].Penalty)
	}
	if rows[7].Penalty != 3 {
		t.Errorf("register mispredict row penalty = %d, want 3", rows[7].Penalty)
	}
}

// TestByName: every built-in model is found under its own name, and an
// unknown or empty name is an error naming it.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wantErr string
	}{
		{"alpha21164", ""},
		{"shallow", ""},
		{"deep", ""},
		{"vax", `unknown model "vax"`},
		{"", `unknown model ""`},
	} {
		m, err := ByName(tc.name)
		switch {
		case tc.wantErr == "" && (err != nil || m.Name != tc.name):
			t.Errorf("ByName(%q) = %q, %v", tc.name, m.Name, err)
		case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
			t.Errorf("ByName(%q) error = %v, want %s", tc.name, err, tc.wantErr)
		}
	}
}
