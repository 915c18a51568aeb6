package minic

import "fmt"

// Parser is a recursive-descent parser for Mini-C.
type Parser struct {
	toks []Token
	pos  int
}

// Parse lexes and parses a complete Mini-C program.
func Parse(src string) (*Program, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.parseProgram()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s", k, describe(t))
	}
	p.pos++
	return t, nil
}

func describe(t Token) string {
	switch t.Kind {
	case TokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case TokNumber:
		return fmt.Sprintf("number %s", t.Text)
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		switch p.cur().Kind {
		case TokGlobal:
			g, err := p.parseGlobal()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, g)
		case TokFunc:
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, errf(p.cur().Pos, "expected top-level 'global' or 'func', found %s", describe(p.cur()))
		}
	}
	return prog, nil
}

// MaxArraySize caps a declared array's size, in cells. Storage is
// allocated when the program runs, so the front end rejects a size no run
// could hold instead of leaving it to the allocator; the interpreter's
// default cell budget (globals plus live frames) is twice this.
const MaxArraySize = 1 << 24

func checkArraySize(size Token) error {
	if size.Num <= 0 {
		return errf(size.Pos, "array size must be positive, got %d", size.Num)
	}
	if size.Num > MaxArraySize {
		return errf(size.Pos, "array size %d exceeds the maximum of %d", size.Num, MaxArraySize)
	}
	return nil
}

func (p *Parser) parseGlobal() (*GlobalDecl, error) {
	kw, _ := p.expect(TokGlobal)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	g := &GlobalDecl{Pos: kw.Pos, Name: name.Text}
	if p.cur().Kind == TokLBracket {
		p.next()
		size, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		if err := checkArraySize(size); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		g.IsArray = true
		g.Size = size.Num
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	kw, _ := p.expect(TokFunc)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &FuncDecl{Pos: kw.Pos, Name: name.Text}
	for p.cur().Kind != TokRParen {
		if len(f.Params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		pn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		param := Param{Pos: pn.Pos, Name: pn.Text}
		if p.cur().Kind == TokLBracket {
			p.next()
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			param.IsArray = true
		}
		f.Params = append(f.Params, param)
	}
	p.next() // ')'
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: lb.Pos}
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.next() // '}'
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokVar:
		return p.parseVarDecl()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokSwitch:
		return p.parseSwitch()
	case TokBreak:
		t := p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: t.Pos}, nil
	case TokContinue:
		t := p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: t.Pos}, nil
	case TokReturn:
		t := p.next()
		var val Expr
		if p.cur().Kind != TokSemi {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			val = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: t.Pos, Value: val}, nil
	case TokLBrace:
		return p.parseBlock()
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *Parser) parseVarDecl() (Stmt, error) {
	kw := p.next()
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Pos: kw.Pos, Name: name.Text}
	if p.cur().Kind == TokLBracket {
		p.next()
		size, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		if err := checkArraySize(size); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		d.IsArray = true
		d.Size = size.Num
	} else if p.cur().Kind == TokAssign {
		p.next()
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

// parseSimpleStmt parses an assignment or expression statement (no
// trailing semicolon), as used in statement position and in for-headers.
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	if p.cur().Kind == TokIdent {
		// Lookahead to distinguish assignment from expression.
		switch p.toks[p.pos+1].Kind {
		case TokAssign:
			name := p.next()
			p.next() // '='
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{Pos: name.Pos, Name: name.Text, Value: val}, nil
		case TokLBracket:
			// Could be arr[i] = e or an expression using arr[i]. Parse the
			// index, then decide.
			name := p.next()
			p.next() // '['
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			if p.cur().Kind == TokAssign {
				p.next()
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				return &AssignStmt{Pos: name.Pos, Name: name.Text, Index: idx, Value: val}, nil
			}
			// It was an expression after all; continue parsing with the
			// index expression as the leftmost operand.
			left := Expr(&IndexExpr{Pos: name.Pos, Name: name.Text, Index: idx})
			e, err := p.continueExpr(left, 0)
			if err != nil {
				return nil, err
			}
			return &ExprStmt{Pos: name.Pos, X: e}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{Pos: e.StartPos(), X: e}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: kw.Pos, Cond: cond, Then: then}
	if p.cur().Kind == TokElse {
		p.next()
		if p.cur().Kind == TokIf {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = els
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: kw.Pos, Cond: cond, Body: body}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	st := &ForStmt{Pos: kw.Pos}
	if p.cur().Kind != TokSemi {
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Init = init
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokSemi {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokRParen {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	st := &SwitchStmt{Pos: kw.Pos, Tag: tag}
	for p.cur().Kind != TokRBrace {
		switch p.cur().Kind {
		case TokCase:
			ct := p.next()
			neg := false
			if p.cur().Kind == TokMinus {
				p.next()
				neg = true
			}
			num, err := p.expect(TokNumber)
			if err != nil {
				return nil, err
			}
			val := num.Num
			if neg {
				val = -val
			}
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			st.Cases = append(st.Cases, SwitchCase{Pos: ct.Pos, Value: val, Body: body})
		case TokDefault:
			dt := p.next()
			if st.Default != nil {
				return nil, errf(dt.Pos, "duplicate default case")
			}
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			if body == nil {
				body = []Stmt{}
			}
			st.Default = body
		default:
			return nil, errf(p.cur().Pos, "expected 'case' or 'default', found %s", describe(p.cur()))
		}
	}
	p.next() // '}'
	if len(st.Cases) == 0 {
		return nil, errf(kw.Pos, "switch with no cases")
	}
	return st, nil
}

func (p *Parser) parseCaseBody() ([]Stmt, error) {
	var body []Stmt
	for {
		k := p.cur().Kind
		if k == TokCase || k == TokDefault || k == TokRBrace || k == TokEOF {
			return body, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
}

// Binary operator precedence, loosest first. Matches C except that all
// bitwise operators bind tighter than comparisons (avoiding C's famous
// precedence trap).
var binPrec = map[TokKind]int{
	TokOrOr:   1,
	TokAndAnd: 2,
	TokEq:     3, TokNe: 3,
	TokLt: 4, TokLe: 4, TokGt: 4, TokGe: 4,
	TokPipe:  5,
	TokCaret: 6,
	TokAmp:   7,
	TokShl:   8, TokShr: 8,
	TokPlus: 9, TokMinus: 9,
	TokStar: 10, TokSlash: 10, TokPercent: 10,
}

var tokToBinOp = map[TokKind]BinOp{
	TokOrOr: BinLogOr, TokAndAnd: BinLogAnd,
	TokEq: BinEq, TokNe: BinNe,
	TokLt: BinLt, TokLe: BinLe, TokGt: BinGt, TokGe: BinGe,
	TokPipe: BinOr, TokCaret: BinXor, TokAmp: BinAnd,
	TokShl: BinShl, TokShr: BinShr,
	TokPlus: BinAdd, TokMinus: BinSub,
	TokStar: BinMul, TokSlash: BinDiv, TokPercent: BinRem,
}

func (p *Parser) parseExpr() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.continueExpr(left, 0)
}

// continueExpr is precedence climbing over an already-parsed left
// operand.
func (p *Parser) continueExpr(left Expr, minPrec int) (Expr, error) {
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return left, nil
		}
		opTok := p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Bind tighter operators to the right operand first.
		for {
			nextPrec, ok := binPrec[p.cur().Kind]
			if !ok || nextPrec <= prec {
				break
			}
			right, err = p.continueExpr(right, nextPrec)
			if err != nil {
				return nil, err
			}
		}
		left = &BinaryExpr{Pos: opTok.Pos, Op: tokToBinOp[opTok.Kind], X: left, Y: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus:
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.Pos, Op: UnNeg, X: x}, nil
	case TokBang:
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.Pos, Op: UnNot, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		return &NumLit{Pos: t.Pos, Val: t.Num}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		p.next()
		switch p.cur().Kind {
		case TokLParen:
			p.next()
			call := &CallExpr{Pos: t.Pos, Name: t.Text}
			for p.cur().Kind != TokRParen {
				if len(call.Args) > 0 {
					if _, err := p.expect(TokComma); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			p.next() // ')'
			return call, nil
		case TokLBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Pos: t.Pos, Name: t.Text, Index: idx}, nil
		}
		return &Ident{Pos: t.Pos, Name: t.Text}, nil
	}
	return nil, errf(t.Pos, "expected expression, found %s", describe(t))
}
