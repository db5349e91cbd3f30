package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the concrete expression syntax used throughout the
// project (and produced by Expr.String):
//
//	expr   := "if" bool "then" expr "else" expr | sum
//	sum    := prod (("+" | "-") prod)*
//	prod   := unary (("*" | "/") unary)*
//	unary  := "-" unary | atom
//	atom   := NUMBER | IDENT | "??" IDENT
//	        | ("min"|"max") "(" expr "," expr ")" | "abs" "(" expr ")"
//	        | "(" expr ")"
//	bool   := band ("||" band)*
//	band   := bprim ("&&" bprim)*
//	bprim  := "!" bprim | "true" | "false"
//	        | expr (">="|"<="|">"|"<"|"==") expr | "(" bool ")"
//
// Identifiers prefixed with ?? are holes; bare identifiers are metric
// variables. Whitespace (including newlines) is insignificant.
func Parse(src string) (Expr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.lex.next(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.lex.tok.kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.lex.tok.text)
	}
	return e, nil
}

// MustParse is Parse but panics on error; for expression literals in
// code and tests.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokNumber
	tokIdent
	tokHole // ??ident
	tokOp   // single/multi char operator or punctuation
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src string
	off int
	tok token
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("expr: parse error at offset %d: %s", l.tok.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() error {
	for l.off < len(l.src) && unicode.IsSpace(rune(l.src[l.off])) {
		l.off++
	}
	start := l.off
	if l.off >= len(l.src) {
		l.tok = token{kind: tokEOF, pos: start}
		return nil
	}
	c := l.src[l.off]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		j := l.off
		for j < len(l.src) && (l.src[j] >= '0' && l.src[j] <= '9' || l.src[j] == '.' ||
			l.src[j] == 'e' || l.src[j] == 'E' ||
			((l.src[j] == '+' || l.src[j] == '-') && j > l.off && (l.src[j-1] == 'e' || l.src[j-1] == 'E'))) {
			j++
		}
		l.tok = token{kind: tokNumber, text: l.src[l.off:j], pos: start}
		l.off = j
		return nil
	case isIdentStart(c):
		j := l.off
		for j < len(l.src) && isIdentPart(l.src[j]) {
			j++
		}
		l.tok = token{kind: tokIdent, text: l.src[l.off:j], pos: start}
		l.off = j
		return nil
	case c == '?':
		if l.off+1 >= len(l.src) || l.src[l.off+1] != '?' {
			l.tok = token{pos: start}
			return fmt.Errorf("expr: parse error at offset %d: single '?'", start)
		}
		j := l.off + 2
		if j >= len(l.src) || !isIdentStart(l.src[j]) {
			return fmt.Errorf("expr: parse error at offset %d: '??' must be followed by an identifier", start)
		}
		k := j
		for k < len(l.src) && isIdentPart(l.src[k]) {
			k++
		}
		l.tok = token{kind: tokHole, text: l.src[j:k], pos: start}
		l.off = k
		return nil
	}
	// Operators, longest first.
	for _, op := range []string{">=", "<=", "==", "&&", "||", ">", "<", "+", "-", "*", "/", "(", ")", ",", "!"} {
		if strings.HasPrefix(l.src[l.off:], op) {
			l.tok = token{kind: tokOp, text: op, pos: start}
			l.off += len(op)
			return nil
		}
	}
	return fmt.Errorf("expr: parse error at offset %d: unexpected character %q", start, c)
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

type parser struct{ lex *lexer }

func (p *parser) errorf(format string, args ...any) error {
	return p.lex.errorf(format, args...)
}

func (p *parser) expectOp(text string) error {
	if p.lex.tok.kind != tokOp || p.lex.tok.text != text {
		return p.errorf("expected %q, found %q", text, p.lex.tok.text)
	}
	return p.lex.next()
}

func (p *parser) parseExpr() (Expr, error) {
	if p.lex.tok.kind == tokIdent && p.lex.tok.text == "if" {
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		cond, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		if p.lex.tok.kind != tokIdent || p.lex.tok.text != "then" {
			return nil, p.errorf("expected 'then', found %q", p.lex.tok.text)
		}
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		thenE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.lex.tok.kind != tokIdent || p.lex.tok.text != "else" {
			return nil, p.errorf("expected 'else', found %q", p.lex.tok.text)
		}
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		elseE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return If{Cond: cond, Then: thenE, Else: elseE}, nil
	}
	return p.parseSum()
}

func (p *parser) parseSum() (Expr, error) {
	left, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for p.lex.tok.kind == tokOp && (p.lex.tok.text == "+" || p.lex.tok.text == "-") {
		op := OpAdd
		if p.lex.tok.text == "-" {
			op = OpSub
		}
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		right, err := p.parseProd()
		if err != nil {
			return nil, err
		}
		left = Bin{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseProd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.lex.tok.kind == tokOp && (p.lex.tok.text == "*" || p.lex.tok.text == "/") {
		op := OpMul
		if p.lex.tok.text == "/" {
			op = OpDiv
		}
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = Bin{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.lex.tok.kind == tokOp && p.lex.tok.text == "-" {
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Neg{X: x}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Expr, error) {
	tok := p.lex.tok
	switch tok.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(tok.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", tok.text, err)
		}
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		return Const{Value: v}, nil
	case tokHole:
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		return Hole{Name: tok.text}, nil
	case tokIdent:
		switch tok.text {
		case "min", "max":
			if err := p.lex.next(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
			b, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			op := OpMin
			if tok.text == "max" {
				op = OpMax
			}
			return Bin{Op: op, L: a, R: b}, nil
		case "abs":
			if err := p.lex.next(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return Abs{X: a}, nil
		case "if", "then", "else", "true", "false":
			return nil, p.errorf("unexpected keyword %q", tok.text)
		default:
			if err := p.lex.next(); err != nil {
				return nil, err
			}
			return Var{Name: tok.text}, nil
		}
	case tokOp:
		if tok.text == "(" {
			if err := p.lex.next(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q", tok.text)
}

func (p *parser) parseBool() (BoolExpr, error) {
	left, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.lex.tok.kind == tokOp && p.lex.tok.text == "||" {
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		right, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		left = BoolBin{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseBoolAnd() (BoolExpr, error) {
	left, err := p.parseBoolPrim()
	if err != nil {
		return nil, err
	}
	for p.lex.tok.kind == tokOp && p.lex.tok.text == "&&" {
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		right, err := p.parseBoolPrim()
		if err != nil {
			return nil, err
		}
		left = BoolBin{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseBoolPrim() (BoolExpr, error) {
	tok := p.lex.tok
	if tok.kind == tokOp && tok.text == "!" {
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		x, err := p.parseBoolPrim()
		if err != nil {
			return nil, err
		}
		return Not{X: x}, nil
	}
	if tok.kind == tokIdent && (tok.text == "true" || tok.text == "false") {
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		return BoolConst{Value: tok.text == "true"}, nil
	}
	// A parenthesis here is ambiguous: it may open a parenthesized boolean
	// or a parenthesized numeric sub-expression of a comparison. Try the
	// boolean reading first by backtracking on failure.
	if tok.kind == tokOp && tok.text == "(" {
		save := *p.lex
		if err := p.lex.next(); err != nil {
			return nil, err
		}
		if b, err := p.parseBool(); err == nil {
			if err := p.expectOp(")"); err == nil {
				// Only commit if this really was a full boolean group:
				// the next token must not be a comparison (which would
				// indicate the group was numeric after all).
				if !(p.lex.tok.kind == tokOp && isCmpToken(p.lex.tok.text)) {
					return b, nil
				}
			}
		}
		*p.lex = save
	}
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.lex.tok.kind != tokOp || !isCmpToken(p.lex.tok.text) {
		return nil, p.errorf("expected comparison operator, found %q", p.lex.tok.text)
	}
	var op CmpOp
	switch p.lex.tok.text {
	case ">=":
		op = CmpGE
	case "<=":
		op = CmpLE
	case ">":
		op = CmpGT
	case "<":
		op = CmpLT
	case "==":
		op = CmpEQ
	}
	if err := p.lex.next(); err != nil {
		return nil, err
	}
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return Cmp{Op: op, L: l, R: r}, nil
}

func isCmpToken(s string) bool {
	switch s {
	case ">=", "<=", ">", "<", "==":
		return true
	}
	return false
}
