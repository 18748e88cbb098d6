// Package relational implements BigDAWG's Postgres substitute: an
// in-memory relational engine with a SQL subset (CREATE TABLE, INSERT,
// UPDATE, DELETE, SELECT with joins, grouping, ordering and secondary
// indexes). It backs the relational island and the Postgres degenerate
// island of the polystore.
package relational

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , * . ; = < > <= >= <> != + - / %
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case
	pos  int
}

// keywords maps each keyword to itself, so a lookup hands back the
// canonical upper-case text without allocating it.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
		"DESC", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "INSERT", "INTO",
		"VALUES", "CREATE", "TABLE", "INDEX", "ON", "DELETE", "UPDATE", "SET",
		"JOIN", "INNER", "LEFT", "OUTER", "CROSS", "NULL", "TRUE", "FALSE",
		"LIKE", "IN", "IS", "BETWEEN", "DISTINCT", "DROP", "PRIMARY", "KEY",
		"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV",
	} {
		m[k] = k
	}
	return m
}()

// keyword reports whether word is a keyword, case-insensitively, and
// returns its upper-case text. ASCII words are upper-cased in a stack
// buffer, so identifiers and keywords alike lex without allocating.
func keyword(word string) (string, bool) {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			up, ok := keywords[strings.ToUpper(word)]
			return up, ok
		}
	}
	var buf [8]byte // no keyword is longer
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	up, ok := keywords[string(buf[:len(word)])]
	return up, ok
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises a SQL string.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, toks: make([]token, 0, 16)}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
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
	switch {
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("relational: unterminated string at %d", start)
			}
			ch := l.src[l.pos]
			if ch == quote {
				// Doubled quote is an escaped quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
					sb.WriteByte(quote)
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return token{kind: tokString, text: sb.String(), pos: start}, nil
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
			l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '+' || l.src[l.pos] == '-') && l.pos > start &&
				(l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if up, ok := keyword(word); ok {
			return token{kind: tokKeyword, text: up, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	default:
		// Two-char operators first.
		if l.pos+1 < len(l.src) {
			two := l.src[l.pos : l.pos+2]
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				l.pos += 2
				return token{kind: tokSymbol, text: two, pos: start}, nil
			}
		}
		switch c {
		case '(', ')', ',', '*', '.', ';', '=', '<', '>', '+', '-', '/', '%':
			l.pos++
			return token{kind: tokSymbol, text: string(c), pos: start}, nil
		}
		return token{}, fmt.Errorf("relational: unexpected character %q at %d", c, start)
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
