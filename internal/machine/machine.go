// Package machine defines the control-penalty models that drive branch
// alignment. A Model captures, in cycles, the cost of every block-ending
// control event of the paper's Table 3. The reduction to a DTSP only
// assumes that the number of penalty cycles at the end of a block depends
// on which block succeeds it in the layout, which every Model here
// satisfies (BTFNT-style predictors would not).
package machine

import "fmt"

// Cost is a penalty in cycles. It aliases int64 and is interchangeable
// with tsp.Cost.
type Cost = int64

// Model is a control-penalty parameterization of a target pipeline,
// following Table 3 of the paper. Conditional branches are statically
// predicted toward their most frequent CFG successor; multiway (register)
// branches are predicted toward their most frequent target.
type Model struct {
	// Name identifies the model in reports.
	Name string

	// JumpCost is the per-execution cost of an inserted unconditional
	// branch: the branch instruction itself plus the misfetch penalty
	// (Table 3 row "unconditional branch", P_TT = 2 on the Alpha 21164).
	// A block that falls through to its single CFG successor costs 0.
	JumpCost Cost

	// CondFallthroughCorrect is the cost when a conditional branch falls
	// through to its predicted successor (P_NN, 0).
	CondFallthroughCorrect Cost
	// CondTakenCorrect is the cost when a conditional branch jumps to its
	// predicted successor placed elsewhere: the misfetch penalty (P_TT, 1).
	CondTakenCorrect Cost
	// CondMispredict is the cost of a mispredicted conditional branch in
	// any layout (P_NT and P_TN, 5 on the Alpha 21164: the branch
	// direction resolves at the end of the sixth pipeline stage).
	CondMispredict Cost

	// MultiCorrectFallthrough is the cost when a multiway/register branch
	// transfers to its predicted target and that target is the layout
	// successor (P_NN, 0).
	MultiCorrectFallthrough Cost
	// MultiCorrectTaken is the cost when a multiway branch transfers to
	// its predicted target placed elsewhere (P_TT, 1: misfetch only).
	MultiCorrectTaken Cost
	// MultiMispredict is the cost of a register branch to any other CFG
	// successor (P_NT / P_TN, 3 on the Alpha 21164: indirect targets
	// resolve earlier than conditional directions).
	MultiMispredict Cost

	// RetCost is the constant per-execution cost of a return (predicted
	// by the return-address stack; misfetch only). Returns are layout-
	// independent, so this never enters alignment costs; the pipeline
	// simulator charges it.
	RetCost Cost
	// CallCost is the constant per-execution cost of a direct call
	// (correctly predicted taken; misfetch only). Layout-independent,
	// charged only by the pipeline simulator.
	CallCost Cost
}

// Alpha21164 returns the paper's machine model: the Digital Alpha 21164
// pipeline of Figure 1, with a misfetch penalty of 1 cycle and a
// conditional mispredict penalty of 5 cycles.
func Alpha21164() Model {
	return Model{
		Name:                    "alpha21164",
		JumpCost:                2,
		CondFallthroughCorrect:  0,
		CondTakenCorrect:        1,
		CondMispredict:          5,
		MultiCorrectFallthrough: 0,
		MultiCorrectTaken:       1,
		MultiMispredict:         3,
		RetCost:                 1,
		CallCost:                1,
	}
}

// ShallowPipe returns a short-pipeline model (small mispredict penalties),
// used for the "other machine models" ablation the paper lists as future
// work: with cheap mispredicts, alignment benefits shrink.
func ShallowPipe() Model {
	return Model{
		Name:                    "shallow",
		JumpCost:                2,
		CondFallthroughCorrect:  0,
		CondTakenCorrect:        1,
		CondMispredict:          2,
		MultiCorrectFallthrough: 0,
		MultiCorrectTaken:       1,
		MultiMispredict:         1,
		RetCost:                 1,
		CallCost:                1,
	}
}

// DeepPipe returns a long-pipeline model (large mispredict penalties),
// the opposite ablation point: alignment matters more.
func DeepPipe() Model {
	return Model{
		Name:                    "deep",
		JumpCost:                3,
		CondFallthroughCorrect:  0,
		CondTakenCorrect:        2,
		CondMispredict:          12,
		MultiCorrectFallthrough: 0,
		MultiCorrectTaken:       2,
		MultiMispredict:         8,
		RetCost:                 2,
		CallCost:                2,
	}
}

// Models returns the built-in models, the paper's first.
func Models() []Model {
	return []Model{Alpha21164(), ShallowPipe(), DeepPipe()}
}

// ByName returns the built-in model called name.
func ByName(name string) (Model, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("unknown model %q", name)
}

// CacheAware returns a copy of m with extra cycles folded into every
// fetch-redirecting control event. The paper's conclusion suggests
// exactly this refinement: "good branch alignments also appear to be
// good for caching ... This suggests that we should update the weights
// to reflect caching costs." Charging taken transfers an extra toll
// biases the DTSP toward layouts with longer fall-through runs, which
// pack hot code into fewer cache lines.
//
// The surcharge is approximate in one place: CondMispredict applies to
// both taken and fall-through mispredicts, so fall-through mispredicts
// are overcharged by extra; on profiled code mispredicts are rare on
// both paths, and the bias this introduces is toward the same objective.
func CacheAware(m Model, extra Cost) Model {
	m.Name += "+cache"
	m.JumpCost += extra
	m.CondTakenCorrect += extra
	m.CondMispredict += extra
	m.MultiCorrectTaken += extra
	m.MultiMispredict += extra
	return m
}

// TableRow is one line of the Table 3 rendering.
type TableRow struct {
	Event   string
	Penalty Cost
	Term    string
}

// Table renders the model as the rows of the paper's Table 3.
func (m Model) Table() []TableRow {
	return []TableRow{
		{"no branch (fall through to single CFG successor)", 0, "P_NN"},
		{"inserted unconditional branch", m.JumpCost, "P_TT"},
		{"conditional: fall through to (common) following block", m.CondFallthroughCorrect, "P_NN"},
		{"conditional: branch to (common) following block", m.CondTakenCorrect, "P_TT"},
		{"conditional: mispredict, any layout", m.CondMispredict, "P_NT / P_TN"},
		{"register: fall through to (common) following block", m.MultiCorrectFallthrough, "P_NN"},
		{"register: branch to (common) following block", m.MultiCorrectTaken, "P_TT"},
		{"register: branch to any other CFG successor", m.MultiMispredict, "P_NT / P_TN"},
		{"return (layout independent, simulation only)", m.RetCost, "-"},
		{"call (layout independent, simulation only)", m.CallCost, "-"},
	}
}
