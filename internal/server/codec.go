package server

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/relation"
)

// The /query answer stream is NDJSON written by hand: reflection per
// QueryLine cost the serving tier more than the bounded query behind it.
// Each Append*Line function appends, newline included, exactly the bytes
// json.Encoder (HTML escaping on, its default) writes for the matching
// QueryLine; the one difference is that a zero-arity row is {"row":[]},
// not the {} omitempty would make of it. json_golden_test.go and
// FuzzQueryLine pin both. ScanRowLine is the reading half, used by the
// client. Row and Val marshal through the same appenders, so /watch
// events and /commit bodies share this one row codec.

// plainByte reports whether encoding/json copies c into a string
// literal unchanged: printable ASCII other than '"', '\\' and the
// HTML-escaped '<', '>' and '&'.
func plainByte(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string. Plain ASCII is copied; any
// other string goes through json.Marshal, so escapes, U+2028/U+2029 and
// invalid UTF-8 come out exactly as encoding/json writes them.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			b, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendValue appends v in its wire shape: integer, string or null.
func appendValue(dst []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindInt:
		return strconv.AppendInt(dst, v.AsInt(), 10)
	case relation.KindString:
		return appendString(dst, v.AsString())
	default:
		return append(dst, "null"...)
	}
}

// appendRow appends vs as a JSON array of wire values.
func appendRow[V Val | relation.Value](dst []byte, vs []V) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, relation.Value(v))
	}
	return append(dst, ']')
}

// AppendHeadLine appends the stream's first line: the answer's column
// names and the enforced read bound, each left out when empty or zero.
func AppendHeadLine(dst []byte, head []string, bound int64) []byte {
	dst = append(dst, '{')
	if len(head) > 0 {
		dst = append(dst, `"head":[`...)
		for i, h := range head {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, h)
		}
		dst = append(dst, ']')
	}
	if bound != 0 {
		if len(head) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"bound":`...)
		dst = strconv.AppendInt(dst, bound, 10)
	}
	return append(dst, "}\n"...)
}

// AppendRowLine appends the line of one answer. A zero-arity answer (a
// true Boolean query) is {"row":[]}, which a reader can tell from an
// empty line.
func AppendRowLine(dst []byte, t relation.Tuple) []byte {
	dst = append(dst, `{"row":`...)
	dst = appendRow(dst, t)
	return append(dst, "}\n"...)
}

// AppendStatsLine appends the terminal accounting line.
func AppendStatsLine(dst []byte, st QueryStats) []byte {
	dst = append(dst, `{"stats":{"answers":`...)
	dst = strconv.AppendInt(dst, st.Answers, 10)
	dst = append(dst, `,"reads":`...)
	dst = strconv.AppendInt(dst, st.Reads, 10)
	dst = append(dst, `,"bound":`...)
	dst = strconv.AppendInt(dst, st.Bound, 10)
	return append(dst, "}}\n"...)
}

// appendErrorLine appends the terminal error line. Errors are rare and
// carry free text, so this line keeps json.Marshal.
func appendErrorLine(dst []byte, body *ErrorBody) []byte {
	b, _ := json.Marshal(QueryLine{Error: body}) // only strings and ints: cannot fail
	dst = append(dst, b...)
	return append(dst, '\n')
}

// ScanRowLine appends to dst the values of a row line, {"row":[...]}
// without its newline, and reports whether it could read the line
// without reflection: integers in int64 range, null, and strings with no
// escape, no control byte and valid UTF-8, written with no whitespace.
// On false the caller decodes the line with json.Unmarshal, which reads
// or rejects the rest; whenever ScanRowLine accepts a line, it agrees
// with json.Unmarshal into a QueryLine.
func ScanRowLine(dst relation.Tuple, line []byte) (relation.Tuple, bool) {
	const prefix, suffix = `{"row":[`, `]}`
	if len(line) < len(prefix)+len(suffix) ||
		string(line[:len(prefix)]) != prefix || string(line[len(line)-len(suffix):]) != suffix {
		return dst, false
	}
	body := line[len(prefix) : len(line)-len(suffix)]
	if len(body) == 0 {
		return dst, true
	}
	for {
		v, n, ok := scanValue(body)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		body = body[n:]
		if len(body) == 0 {
			return dst, true
		}
		if body[0] != ',' {
			return dst, false
		}
		body = body[1:]
	}
}

// scanValue reads one wire value at the start of b, returning it and the
// bytes it took. It accepts only the forms ScanRowLine documents.
func scanValue(b []byte) (relation.Value, int, bool) {
	if len(b) == 0 {
		return relation.Value{}, 0, false
	}
	switch c := b[0]; {
	case c == 'n':
		if len(b) >= 4 && string(b[:4]) == "null" {
			return relation.Null(), 4, true
		}
	case c == '"':
		ascii := true
		for i := 1; i < len(b); i++ {
			switch c := b[i]; {
			case c == '"':
				s := b[1:i]
				if !ascii && !utf8.Valid(s) {
					return relation.Value{}, 0, false
				}
				return relation.Str(string(s)), i + 1, true
			case c == '\\' || c < 0x20:
				return relation.Value{}, 0, false
			case c >= utf8.RuneSelf:
				ascii = false
			}
		}
	case c == '-' || c >= '0' && c <= '9':
		i := 1
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if n, ok := parseInt(b[:i]); ok {
			return relation.Int(n), i, true
		}
	}
	return relation.Value{}, 0, false
}

// parseInt parses a JSON integer literal, -?(0|[1-9][0-9]*), that fits
// in an int64. "-0" is 0, as strconv.ParseInt reads it.
func parseInt(b []byte) (int64, bool) {
	d := b
	neg := len(d) > 0 && d[0] == '-'
	if neg {
		d = d[1:]
	}
	// 19 digits cannot overflow the uint64 accumulator.
	if len(d) == 0 || len(d) > 19 || d[0] == '0' && len(d) > 1 {
		return 0, false
	}
	var u uint64
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true // u == 1<<63 wraps to math.MinInt64, its value
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}
