// Package query implements the NF² data manipulation language the
// paper defers to a companion paper: a small SQL-flavored language
// whose operators are exactly the Section-3 algebra (select, project,
// natural join, set operations) plus NEST and UNNEST, over the engine's
// canonical-form relations.
//
// Statement forms:
//
//	CREATE rel (A:string, B:int, ...) [ORDER (B, A)] [FD A -> B] [MVD A ->-> B]
//	DROP rel
//	INSERT INTO rel VALUES (lit, ...) [, (lit, ...)]...
//	DELETE FROM rel VALUES (lit, ...)
//	SELECT [FLAT] * | a, b FROM rel [WHERE pred] [ORDER BY attr [DESC]]
//	UPDATE rel SET a = lit [, b = lit]... [WHERE pred]
//	EXPLAIN select-or-update-stmt
//	NEST rel ON attr
//	UNNEST rel ON attr
//	JOIN rel1, rel2
//	SHOW rel
//	STATS rel
//	VALIDATE rel
//
// Predicates: attr op literal, attr CONTAINS literal,
// CARD(attr) op int, combined with AND / OR / NOT and parentheses.
// op ∈ { = , <>, <, <=, >, >= }.
//
// SELECT and UPDATE reads are planned (internal/query/plan.go): a
// conjunct on the relation's fixed attribute routes through the durable
// B+tree (an equality probe or a range scan) when the engine reports
// one; EXPLAIN shows the chosen access path.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexical tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokString // quoted literal
	tokNumber
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer splits the input into tokens.
type lexer struct {
	in   string
	pos  int
	toks []token
}

var symbols = []string{
	"->->", "->", "<=", ">=", "<>", "(", ")", ",", "*", "=", "<", ">", ":",
}

func lex(in string) ([]token, error) {
	lx := &lexer{in: in}
	for {
		lx.skipSpace()
		if lx.pos >= len(lx.in) {
			lx.toks = append(lx.toks, token{kind: tokEOF, pos: lx.pos})
			return lx.toks, nil
		}
		c := lx.in[lx.pos]
		switch {
		case c == '"':
			if err := lx.lexString(); err != nil {
				return nil, err
			}
		case c == '-' && lx.pos+1 < len(lx.in) && lx.in[lx.pos+1] == '-':
			// comment to end of line
			for lx.pos < len(lx.in) && lx.in[lx.pos] != '\n' {
				lx.pos++
			}
		case isDigit(c) || (c == '-' && lx.pos+1 < len(lx.in) && isDigit(lx.in[lx.pos+1])):
			lx.lexNumber()
		case isIdentStart(c):
			lx.lexIdent()
		default:
			if !lx.lexSymbol() {
				return nil, fmt.Errorf("query: unexpected character %q at %d", c, lx.pos)
			}
		}
	}
}

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.in) && unicode.IsSpace(rune(lx.in[lx.pos])) {
		lx.pos++
	}
}

func (lx *lexer) lexString() error {
	start := lx.pos
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.in) {
		c := lx.in[lx.pos]
		if c == '\\' && lx.pos+1 < len(lx.in) {
			lx.pos++
			b.WriteByte(lx.in[lx.pos])
			lx.pos++
			continue
		}
		if c == '"' {
			lx.pos++
			lx.toks = append(lx.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		lx.pos++
	}
	return fmt.Errorf("query: unterminated string at %d", start)
}

func (lx *lexer) lexNumber() {
	start := lx.pos
	if lx.in[lx.pos] == '-' {
		lx.pos++
	}
	for lx.pos < len(lx.in) && (isDigit(lx.in[lx.pos]) || lx.in[lx.pos] == '.') {
		lx.pos++
	}
	lx.toks = append(lx.toks, token{kind: tokNumber, text: lx.in[start:lx.pos], pos: start})
}

func (lx *lexer) lexIdent() {
	start := lx.pos
	for lx.pos < len(lx.in) && isIdentPart(lx.in[lx.pos]) {
		lx.pos++
	}
	lx.toks = append(lx.toks, token{kind: tokIdent, text: lx.in[start:lx.pos], pos: start})
}

func (lx *lexer) lexSymbol() bool {
	rest := lx.in[lx.pos:]
	for _, s := range symbols {
		if strings.HasPrefix(rest, s) {
			lx.toks = append(lx.toks, token{kind: tokSymbol, text: s, pos: lx.pos})
			lx.pos += len(s)
			return true
		}
	}
	return false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
