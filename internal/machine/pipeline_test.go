package machine

import "testing"

// Stage describes one pipeline stage of the modeled processor, following
// the paper's Figure 1 ("Pipeline diagram for the Digital Alpha 21164
// microprocessor: it has a misfetch penalty of 1 cycle and a conditional
// branch mispredict penalty of 5 cycles").
type Stage struct {
	// Index is the 0-based stage number.
	Index int
	// Name is the stage's role.
	Name string
	// TargetKnown marks the stage at whose end a branch's target address
	// is available.
	TargetKnown bool
	// ConditionKnown marks the stage at whose end a conditional branch's
	// direction is resolved.
	ConditionKnown bool
}

// Pipeline is an ordered stage list with the derivation of the penalty
// constants.
type Pipeline struct {
	Name   string
	Stages []Stage
}

// Alpha21164Pipeline reproduces Figure 1: the next fetch address is
// needed by the end of stage 0, the predicted target is available at the
// end of stage 1 (misfetch = 1), and the branch condition resolves at
// the end of stage 5 (mispredict = 5).
func Alpha21164Pipeline() Pipeline {
	return Pipeline{
		Name: "alpha21164",
		Stages: []Stage{
			{Index: 0, Name: "instruction fetch"},
			{Index: 1, Name: "buffer & decode", TargetKnown: true},
			{Index: 2, Name: "multi-issue slotting"},
			{Index: 3, Name: "register read / issue"},
			{Index: 4, Name: "execute one"},
			{Index: 5, Name: "execute two", ConditionKnown: true},
			{Index: 6, Name: "register write back"},
		},
	}
}

// MisfetchPenalty derives the misfetch cost from the stage structure:
// the number of stages between needing the next fetch address (end of
// stage 0) and knowing the target (end of the TargetKnown stage).
func (p Pipeline) MisfetchPenalty() Cost {
	for _, s := range p.Stages {
		if s.TargetKnown {
			return Cost(s.Index)
		}
	}
	return 0
}

// MispredictPenalty derives the mispredict cost: stages between needing
// the next fetch address and resolving the condition.
func (p Pipeline) MispredictPenalty() Cost {
	for _, s := range p.Stages {
		if s.ConditionKnown {
			return Cost(s.Index)
		}
	}
	return 0
}

// TestFigure1DerivesTable3 ties the two paper artifacts together: the
// pipeline diagram of Figure 1 must derive exactly the penalty constants
// of Table 3 that Alpha21164() hard-codes.
func TestFigure1DerivesTable3(t *testing.T) {
	p := Alpha21164Pipeline()
	m := Alpha21164()
	if got := p.MisfetchPenalty(); got != m.CondTakenCorrect {
		t.Errorf("derived misfetch %d != model's taken-correct penalty %d", got, m.CondTakenCorrect)
	}
	if got := p.MispredictPenalty(); got != m.CondMispredict {
		t.Errorf("derived mispredict %d != model's mispredict penalty %d", got, m.CondMispredict)
	}
	// The inserted-jump cost is the branch slot itself plus the misfetch.
	if m.JumpCost != 1+p.MisfetchPenalty() {
		t.Errorf("JumpCost %d != 1 + misfetch %d", m.JumpCost, p.MisfetchPenalty())
	}
}

func TestPipelineShape(t *testing.T) {
	p := Alpha21164Pipeline()
	if len(p.Stages) != 7 {
		t.Fatalf("21164 model has %d stages, want 7", len(p.Stages))
	}
	for i, s := range p.Stages {
		if s.Index != i {
			t.Errorf("stage %d has index %d", i, s.Index)
		}
		if s.Name == "" {
			t.Errorf("stage %d unnamed", i)
		}
	}
}

func TestPipelinePenaltiesZeroWithoutMarks(t *testing.T) {
	p := Pipeline{Stages: []Stage{{Index: 0, Name: "only"}}}
	if p.MisfetchPenalty() != 0 || p.MispredictPenalty() != 0 {
		t.Error("unmarked pipeline should derive zero penalties")
	}
}
