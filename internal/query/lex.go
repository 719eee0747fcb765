// Package query implements a small SQL-like aggregation query language over
// data cubes:
//
//	SELECT SUM(sales), COUNT(*), AVG(sales)
//	GROUP BY product, region
//	WHERE day BETWEEN 'd1' AND 'd5' AND region = 'east'
//
// The package parses queries into an AST; execution lives in the public
// viewcube package (SUM on any Engine, COUNT/AVG/VAR/STDDEV on the
// measure-vector Engine of NewAggEngine), keeping this package free of
// engine dependencies.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexed tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // 'quoted' literal
	tokLParen
	tokRParen
	tokComma
	tokStar
	tokEq
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return t.text
	}
}

// lexer tokenises a query string. Identifiers and keywords are
// case-insensitive; string literals preserve case.
type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case '*':
		l.pos++
		return token{kind: tokStar, text: "*", pos: start}, nil
	case '=':
		l.pos++
		return token{kind: tokEq, text: "=", pos: start}, nil
	case '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("query: unterminated string starting at offset %d", start)
			}
			if l.src[l.pos] == '\'' {
				// '' escapes a quote inside a literal.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
	}
	if isIdentStart(c) {
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, fmt.Errorf("query: unexpected character %q at offset %d", c, l.pos)
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c == '-' || c == '.'
}
