package minic

import (
	"strings"
	"testing"
)

func TestLexerBasics(t *testing.T) {
	toks, err := LexAll("func f(x) { return x + 0x10; } // comment")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokFunc, TokIdent, TokLParen, TokIdent, TokRParen,
		TokLBrace, TokReturn, TokIdent, TokPlus, TokNumber, TokSemi, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[9].Num != 16 {
		t.Errorf("hex literal parsed as %d, want 16", toks[9].Num)
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := LexAll("== != <= >= << >> && || ! = < > & | ^ + - * / %")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokEq, TokNe, TokLe, TokGe, TokShl, TokShr, TokAndAnd,
		TokOrOr, TokBang, TokAssign, TokLt, TokGt, TokAmp, TokPipe, TokCaret,
		TokPlus, TokMinus, TokStar, TokSlash, TokPercent, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := LexAll("a /* multi\nline */ b // trailing\nc")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			names = append(names, tok.Text)
		}
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Errorf("identifiers = %v", names)
	}
	if toks[2].Pos.Line != 3 {
		t.Errorf("c should be on line 3, got %d", toks[2].Pos.Line)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := LexAll("/* never closed"); err == nil {
		t.Error("expected error for unterminated comment")
	}
	if _, err := LexAll("a @ b"); err == nil {
		t.Error("expected error for stray character")
	}
}

func TestParseSimpleProgram(t *testing.T) {
	src := `
global counter;
global table[64];

func add(a, b) {
	return a + b;
}

func main(input[], n) {
	var i;
	var sum = 0;
	for (i = 0; i < n; i = i + 1) {
		sum = sum + input[i];
	}
	out(sum);
	return sum;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 2 || len(prog.Funcs) != 2 {
		t.Fatalf("got %d globals, %d funcs", len(prog.Globals), len(prog.Funcs))
	}
	if !prog.Globals[1].IsArray || prog.Globals[1].Size != 64 {
		t.Errorf("table should be an array of 64")
	}
	mainFn := prog.Funcs[1]
	if mainFn.Name != "main" || len(mainFn.Params) != 2 {
		t.Fatalf("main signature wrong: %+v", mainFn)
	}
	if !mainFn.Params[0].IsArray || mainFn.Params[1].IsArray {
		t.Error("main params should be (array, scalar)")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`func f(a, b, c) { return a + b * c; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	add, ok := ret.Value.(*BinaryExpr)
	if !ok || add.Op != BinAdd {
		t.Fatalf("top node should be +, got %T", ret.Value)
	}
	mul, ok := add.Y.(*BinaryExpr)
	if !ok || mul.Op != BinMul {
		t.Fatalf("right operand should be *, got %T", add.Y)
	}
}

func TestParseShortCircuitPrecedence(t *testing.T) {
	prog, err := Parse(`func f(a, b, c) { return a < b && b < c || c == 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	or, ok := ret.Value.(*BinaryExpr)
	if !ok || or.Op != BinLogOr {
		t.Fatalf("top node should be ||, got %T", ret.Value)
	}
	and, ok := or.X.(*BinaryExpr)
	if !ok || and.Op != BinLogAnd {
		t.Fatalf("left of || should be &&, got %T", or.X)
	}
}

func TestParseSwitch(t *testing.T) {
	src := `
func f(x) {
	switch (x) {
	case 0:
		return 10;
	case -3:
		out(x);
	default:
		return 99;
	}
	return 0;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sw := prog.Funcs[0].Body.Stmts[0].(*SwitchStmt)
	if len(sw.Cases) != 2 {
		t.Fatalf("got %d cases", len(sw.Cases))
	}
	if sw.Cases[1].Value != -3 {
		t.Errorf("negative case value parsed as %d", sw.Cases[1].Value)
	}
	if sw.Default == nil {
		t.Error("default case missing")
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `func f(x) { if (x > 2) { return 2; } else if (x > 1) { return 1; } else { return 0; } }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := prog.Funcs[0].Body.Stmts[0].(*IfStmt)
	inner, ok := ifs.Else.(*IfStmt)
	if !ok {
		t.Fatalf("else branch should be an IfStmt, got %T", ifs.Else)
	}
	if _, ok := inner.Else.(*BlockStmt); !ok {
		t.Fatalf("inner else should be a block, got %T", inner.Else)
	}
}

func TestParseArrayElementExpressionStatement(t *testing.T) {
	// An expression statement starting with an index read must not be
	// mistaken for an assignment.
	src := `func f(a[]) { out(a[0]); a[0] + 1; a[1] = 2; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stmts := prog.Funcs[0].Body.Stmts
	if _, ok := stmts[1].(*ExprStmt); !ok {
		t.Errorf("stmt 1 should be ExprStmt, got %T", stmts[1])
	}
	as, ok := stmts[2].(*AssignStmt)
	if !ok || as.Index == nil {
		t.Errorf("stmt 2 should be array assignment, got %T", stmts[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`func f( { }`,
		`func f() { if x { } }`,
		`func f() { var; }`,
		`global x`,
		`func f() { switch (1) { } }`,
		`func f() { switch (1) { default: default: } }`,
		`stray`,
		`func f() { return 1 }`,
		`global a[0];`,
		`func f() { var a[-1]; }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseCapsArraySizes(t *testing.T) {
	for _, c := range []struct{ src, pos string }{
		{"global a[4611686018427387904];\nfunc main(x) { return x; }", "1:10"},
		{"func main() {\n\tvar a[16777217];\n\treturn 0;\n}", "2:8"},
	} {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), "exceeds the maximum") || !strings.Contains(err.Error(), c.pos) {
			t.Errorf("Parse(%q): err = %v, want a size error at %s", c.src, err, c.pos)
		}
	}
	if _, err := Parse("global a[16777216]; func main() { var b[16777216]; return 0; }"); err != nil {
		t.Errorf("arrays at MaxArraySize rejected: %v", err)
	}
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return info
}

func TestCheckResolvesStorage(t *testing.T) {
	info := mustCheck(t, `
global g;
global garr[8];
func f(a, b[], c) {
	var x;
	var buf[16];
	var y = a + c + x + g;
	buf[0] = garr[1] + b[2];
	out(y);
	return y;
}
`)
	fi := info.Funcs[0]
	// Scalars: a (r0), c (r1), x (r2), y (r3).
	if fi.NumScalars != 4 {
		t.Errorf("NumScalars = %d, want 4", fi.NumScalars)
	}
	if fi.ArrayParamCount != 1 {
		t.Errorf("ArrayParamCount = %d, want 1", fi.ArrayParamCount)
	}
	if len(fi.LocalArraySizes) != 1 || fi.LocalArraySizes[0] != 16 {
		t.Errorf("LocalArraySizes = %v", fi.LocalArraySizes)
	}
	if len(info.GlobalScalars) != 1 || info.GlobalScalars[0] != "g" {
		t.Errorf("GlobalScalars = %v", info.GlobalScalars)
	}
	if len(info.GlobalArrays) != 1 || info.GlobalArrays[0].Name != "garr" {
		t.Errorf("GlobalArrays wrong")
	}
}

func TestCheckScoping(t *testing.T) {
	// Shadowing in nested scopes is allowed; each declaration gets fresh
	// storage.
	info := mustCheck(t, `
func f(x) {
	var y = 1;
	if (x) {
		var y = 2;
		out(y);
	}
	return y;
}
`)
	if info.Funcs[0].NumScalars != 3 { // x, y, inner y
		t.Errorf("NumScalars = %d, want 3", info.Funcs[0].NumScalars)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSubstr string
	}{
		{"undefined var", `func f() { return q; }`, "undefined"},
		{"undefined fn", `func f() { return g(); }`, "undefined function"},
		{"array as scalar", `func f(a[]) { return a; }`, "used as a scalar"},
		{"scalar indexed", `func f(a) { return a[0]; }`, "not an array"},
		{"assign to array", `func f(a[]) { a = 1; }`, "without an index"},
		{"index scalar assign", `func f(a) { a[0] = 1; }`, "not an array"},
		{"arity", `func g(x) { return x; } func f() { return g(); }`, "1 argument? no"},
		{"array arg shape", `func g(x[]) { return 0; } func f(y) { return g(y); }`, "must be an array"},
		{"scalar arg shape", `func g(x) { return 0; } func f(y[]) { return g(y); }`, "used as a scalar"},
		{"break outside", `func f() { break; }`, "break outside"},
		{"continue outside", `func f() { continue; }`, "continue outside"},
		{"continue in switch", `func f(x) { switch (x) { case 1: continue; } }`, "continue outside"},
		{"dup global", `global a; global a;`, "redeclared"},
		{"dup func", `func f() { return 0; } func f() { return 0; }`, "redeclared"},
		{"func collides global", `global f; func f() { return 0; }`, "collides"},
		{"dup param", `func f(a, a) { return 0; }`, "redeclared"},
		{"dup local", `func f() { var a; var a; }`, "redeclared"},
		{"dup case", `func f(x) { switch (x) { case 1: case 1: } }`, "duplicate case"},
		{"out arity", `func f() { out(1, 2); }`, "exactly one"},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			// A few cases may fail at parse; that still counts as rejected.
			continue
		}
		_, err = Check(prog)
		if err == nil {
			t.Errorf("%s: expected check error for %q", c.name, c.src)
			continue
		}
		if c.wantSubstr != "1 argument? no" && !strings.Contains(err.Error(), c.wantSubstr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSubstr)
		}
	}
}

func TestCheckBreakInsideSwitchAllowed(t *testing.T) {
	mustCheck(t, `
func f(x) {
	switch (x) {
	case 1:
		break;
	default:
		out(x);
	}
	while (x) {
		switch (x) {
		case 2:
			break;
		}
		x = x - 1;
	}
	return 0;
}
`)
}

func TestCheckOutReturnsValueContext(t *testing.T) {
	mustCheck(t, `func f() { var x = out(3); return x; }`)
}

func TestCheckRecursionAllowed(t *testing.T) {
	mustCheck(t, `func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }`)
}

func TestCheckForwardCallAllowed(t *testing.T) {
	mustCheck(t, `func f() { return g(); } func g() { return 1; }`)
}
