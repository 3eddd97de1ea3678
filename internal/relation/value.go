// Package relation implements the typed relational data model that every
// other package in this repository builds on: values, tuples, relation
// schemas, relations, databases and updates.
//
// The model follows Section 2 of Fan, Geerts and Libkin, "On Scale
// Independence for Querying Big Data" (PODS 2014): a relational schema R is
// a collection of relation names with fixed attribute lists, an instance D
// of R associates a finite relation with each name, and |D| is the total
// number of tuples. Updates are pairs ΔD = (∇D, ΔD) of deletions contained
// in D and insertions disjoint from D.
//
// Values are drawn from a countably infinite domain U. We realize U as the
// disjoint union of 64-bit integers and strings; Value is a small comparable
// struct rather than an interface so that tuples can be hashed and compared
// cheaply and used as map keys after encoding.
package relation

import (
	"fmt"
	"hash/maphash"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The kinds of values. KindNull is the zero Kind and marks the absence of a
// value; it never occurs inside stored tuples (relations reject it) but is
// useful as an "unbound" marker in evaluators and plans.
const (
	KindNull Kind = iota
	KindInt
	KindString
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single data value: an integer, a string, or null. The zero
// Value is null. Value is comparable with == (two values are equal iff they
// have the same kind and payload), so it can key maps directly.
//
// Layout: 24 bytes, a string and an int64, with the kind carried in the
// string, since a stored tuple pays for every byte of each of its values:
//
//   - null is the zero Value: s == "";
//   - an int holds the fixed marker intMark in s and its payload in i;
//   - a string holds its payload in s and 0 in i. The rare payload that is
//     empty or starts with NUL — and so could read as null or as the
//     marker — sits behind the two-byte prefix strEscape, which the
//     accessors slice off.
//
// Every stored s that starts with NUL is therefore intMark or begins with
// strEscape, so each kind has one encoding, == compares kind and payload,
// and the stored strings order exactly as their payloads do. Every reader
// of the fields is in this file.
type Value struct {
	s string
	i int64
}

// The markers in Value.s: intMark is an int's whole string, strEscape
// prefixes a string payload that is empty or starts with NUL.
const (
	intMark   = "\x00\x01"
	strEscape = "\x00\x02"
)

// Int returns an integer value.
func Int(v int64) Value { return Value{s: intMark, i: v} }

// Str returns a string value. Only a payload that is empty or starts with
// NUL is escaped; a non-empty one allocates to do so.
func Str(s string) Value {
	switch {
	case s == "":
		return Value{s: strEscape}
	case s[0] == 0:
		return Value{s: strEscape + s}
	}
	return Value{s: s}
}

// Null returns the null value (the zero Value).
func Null() Value { return Value{} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind {
	switch v.s {
	case "":
		return KindNull
	case intMark:
		return KindInt
	}
	return KindString
}

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.s == "" }

// Equal reports v == w. It decides an int against the constant marker
// instead of through the runtime's memory comparison, which == calls for
// every string: the form for hot loops over tuples and keys.
func (v Value) Equal(w Value) bool {
	if v.i != w.i {
		return false
	}
	if v.s == intMark {
		return w.s == intMark
	}
	return v.s == w.s
}

// hashWord returns v's input to tupleTag: an int's payload, or the
// seeded maphash of any other value's stored string.
func (v Value) hashWord() uint64 {
	if v.s == intMark {
		return uint64(v.i)
	}
	return maphash.String(keySeed, v.s)
}

// str returns a string value's payload, with any escape sliced off.
func (v Value) str() string {
	if v.s[0] == 0 {
		return v.s[len(strEscape):]
	}
	return v.s
}

// AsInt returns the integer payload. It panics if the value is not an
// integer; callers should check Kind first when the kind is not known
// statically.
func (v Value) AsInt() int64 {
	if v.s != intMark {
		panic("relation: AsInt on " + v.Kind().String() + " value")
	}
	return v.i
}

// AsString returns the string payload. It panics if the value is not a
// string.
func (v Value) AsString() string {
	if k := v.Kind(); k != KindString {
		panic("relation: AsString on " + k.String() + " value")
	}
	return v.str()
}

// String renders the value for display: integers in decimal, strings
// single-quoted, null as "⊥".
func (v Value) String() string {
	switch v.Kind() {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return "'" + v.str() + "'"
	default:
		return "⊥"
	}
}

// Compare orders values: null < all ints < all strings; ints by numeric
// order, strings lexicographically. It returns -1, 0 or +1.
func (v Value) Compare(w Value) int {
	vk, wk := v.Kind(), w.Kind()
	if vk != wk {
		if vk < wk {
			return -1
		}
		return 1
	}
	switch vk {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	case KindString:
		// Stored strings order as their payloads: an escaped payload is
		// empty or starts with NUL, so it sorts below every unescaped one,
		// and two escaped ones share the prefix.
		switch {
		case v.s < w.s:
			return -1
		case v.s > w.s:
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Less reports whether v orders strictly before w under Compare.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// appendKey appends a self-delimiting binary encoding of v to dst: the
// kind byte, then an int's eight big-endian bytes or a string's decimal
// length, ':' and payload. The encoding is injective across kinds and
// payloads, which is all the tuple key machinery needs.
func (v Value) appendKey(dst []byte) []byte {
	switch v.s {
	case intMark:
		u := uint64(v.i)
		return append(dst, byte(KindInt),
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case "":
		return append(dst, byte(KindNull))
	}
	p := v.str()
	dst = append(dst, byte(KindString))
	dst = strconv.AppendInt(dst, int64(len(p)), 10)
	dst = append(dst, ':')
	return append(dst, p...)
}

// ParseValue converts text to a Value: decimal integers become KindInt,
// everything else becomes KindString. Surrounding single quotes, if present,
// are stripped (so '123' parses as the string "123").
func ParseValue(text string) Value {
	if len(text) >= 2 && text[0] == '\'' && text[len(text)-1] == '\'' {
		return Str(text[1 : len(text)-1])
	}
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		return Int(n)
	}
	return Str(text)
}
