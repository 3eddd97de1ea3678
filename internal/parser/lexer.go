// Package parser provides the textual syntax of the system: FO formulas
// and queries, conjunctive queries in rule form, and "catalog" files that
// declare relational schemas and access schemas.
//
// Formula syntax (precedence from loosest to tightest:
// implies, or, and, not; quantifiers parenthesize their bodies):
//
//	Q1(p, name) := exists id (friend(p, id) and person(id, name, 'NYC'))
//	Q(x) := forall y (S(x, y) implies T(x, y))
//	CQ rule form: Q2(p, rn) :- friend(p, id), visit(id, rid), restr(rid, rn, 'NYC', 'A')
//
// Catalog syntax:
//
//	relation person(id, name, city)
//	access friend(id1 -> *) limit 5000 time 1
//	access visit(yy -> yy, mm, dd) limit 366 time 1
//	fd visit: id, yy, mm, dd -> rid time 1
//
// Identifiers are variables inside queries; constants are quoted strings
// or integer literals. '#' starts a line comment.
package parser

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokColon
	tokStar
	tokEq      // =
	tokNeq     // !=
	tokArrow   // ->
	tokAssign  // :=
	tokRuleDef // :-
	tokNewline // significant in catalogs
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokStar:
		return "'*'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'!='"
	case tokArrow:
		return "'->'"
	case tokAssign:
		return "':='"
	case tokRuleDef:
		return "':-'"
	case tokNewline:
		return "newline"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// tok is one lexeme: its kind and its [begin, end) byte offsets in the
// source. A token holds no string of its own; text slices the source, and
// line:col is computed from begin only when an error message needs it.
type tok struct {
	kind       tokKind
	begin, end uint32
}

// text returns the token's text as a substring of src: the identifier,
// the numeral (with its sign), or the contents of a quoted string. It is
// empty for punctuation, newlines and the end of input.
func (t tok) text(src string) string {
	switch t.kind {
	case tokIdent, tokNumber:
		return src[t.begin:t.end]
	case tokString:
		return src[t.begin+1 : t.end-1]
	}
	return ""
}

// describe renders the token for an error message: its kind, and its
// text when it has one.
func (t tok) describe(src string) string {
	if s := t.text(src); s != "" {
		return fmt.Sprintf("%s %q", t.kind, s)
	}
	return t.kind.String()
}

// position returns the 1-based line and column (in bytes) of offset off.
func position(src string, off uint32) (line, col int) {
	before := src[:off]
	return 1 + strings.Count(before, "\n"), int(off) - strings.LastIndexByte(before, '\n')
}

// errorAt builds an error positioned at offset off of src.
func errorAt(src string, off uint32, format string, args ...any) error {
	line, col := position(src, off)
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// lex tokenizes the whole input into one slice, ending with tokEOF.
// Newlines are emitted as tokens (one per run of blank lines) because the
// catalog format is line-oriented; the formula parser skips them.
func lex(src string) ([]tok, error) {
	if len(src) > math.MaxUint32 {
		return nil, fmt.Errorf("input of %d bytes is too long", len(src))
	}
	toks := make([]tok, 0, len(src)/2+2)
	i := 0
	for i < len(src) {
		c := src[i]
		start := i
		i++
		var k tokKind
		switch c {
		case ' ', '\t', '\r':
			continue
		case '\n':
			for i < len(src) && (src[i] == '\n' || src[i] == '\r' || src[i] == ' ' || src[i] == '\t') {
				i++
			}
			k = tokNewline
		case '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case '(':
			k = tokLParen
		case ')':
			k = tokRParen
		case ',':
			k = tokComma
		case '*':
			k = tokStar
		case '=':
			k = tokEq
		case '!':
			if i == len(src) || src[i] != '=' {
				return nil, errorAt(src, uint32(start), "unexpected '!'")
			}
			i++
			k = tokNeq
		case '-':
			switch {
			case i < len(src) && src[i] == '>':
				i++
				k = tokArrow
			case i < len(src) && isDigit(src[i]):
				i = skipDigits(src, i)
				k = tokNumber
			default:
				return nil, errorAt(src, uint32(start), "unexpected '-'")
			}
		case ':':
			k = tokColon
			if i < len(src) && src[i] == '=' {
				k = tokAssign
			} else if i < len(src) && src[i] == '-' {
				k = tokRuleDef
			}
			if k != tokColon {
				i++
			}
		case '\'':
			for i < len(src) && src[i] != '\'' && src[i] != '\n' {
				i++
			}
			if i == len(src) || src[i] == '\n' {
				return nil, errorAt(src, uint32(start), "unterminated string literal")
			}
			i++
			k = tokString
		default:
			switch {
			case isDigit(c):
				i = skipDigits(src, i)
				k = tokNumber
			case identByte[c]&identStart != 0:
				for i < len(src) && identByte[src[i]]&identPart != 0 {
					i++
				}
				k = tokIdent
			default:
				return nil, errorAt(src, uint32(start), "unexpected character %q", string(rune(c)))
			}
		}
		toks = append(toks, tok{kind: k, begin: uint32(start), end: uint32(i)})
	}
	toks = append(toks, tok{kind: tokEOF, begin: uint32(i), end: uint32(i)})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func skipDigits(src string, i int) int {
	for i < len(src) && isDigit(src[i]) {
		i++
	}
	return i
}

// identByte classifies each byte value for identifiers, reading the byte
// as the rune of the same value: a start byte is '_' or a letter, a part
// byte also a digit.
var identByte = func() (t [256]uint8) {
	for c := range t {
		r := rune(c)
		if r == '_' || unicode.IsLetter(r) {
			t[c] |= identStart | identPart
		}
		if unicode.IsDigit(r) {
			t[c] |= identPart
		}
	}
	return t
}()

const (
	identStart = 1 << iota
	identPart
)

// parseInt converts a numeric token's text.
func parseInt(src string, t tok) (int64, error) {
	n, err := strconv.ParseInt(t.text(src), 10, 64)
	if err != nil {
		return 0, errorAt(src, t.begin, "bad number %q", t.text(src))
	}
	return n, nil
}
