package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

// refRowLine is QueryLine's row field with the values as plain Go
// values, so json.Encoder writes the line by reflection and no appender
// of this package is involved: the reference the codec is held to.
type refRowLine struct {
	Row []any `json:"row,omitempty"`
}

func refRow(t relation.Tuple) refRowLine {
	r := refRowLine{Row: make([]any, len(t))}
	for i, v := range t {
		switch v.Kind() {
		case relation.KindInt:
			r.Row[i] = v.AsInt()
		case relation.KindString:
			r.Row[i] = v.AsString()
		}
	}
	return r
}

// encoderLine is one line as json.Encoder writes it, newline included.
func encoderLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refQueryLine decodes a stream line with the row values left raw, so
// they can be read by Val's exact json.Decoder path.
type refQueryLine struct {
	Head  []string          `json:"head,omitempty"`
	Bound int64             `json:"bound,omitempty"`
	Row   []json.RawMessage `json:"row,omitempty"`
	Stats *QueryStats       `json:"stats,omitempty"`
	Error *ErrorBody        `json:"error,omitempty"`
}

// fuzzTuple reads a tuple of int, string and null values from data: each
// op byte picks a kind; an int takes the next 8 bytes, a string the next
// op/3 % 16 bytes, raw, so any byte sequence can land in a string.
func fuzzTuple(data []byte) relation.Tuple {
	t := relation.Tuple{}
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch op % 3 {
		case 0:
			t = append(t, relation.Null())
		case 1:
			var b [8]byte
			data = data[copy(b[:], data):]
			t = append(t, relation.Int(int64(binary.LittleEndian.Uint64(b[:]))))
		case 2:
			n := min(int(op/3)%16, len(data))
			t = append(t, relation.Str(string(data[:n])))
			data = data[n:]
		}
	}
	return t
}

// scannable reports whether s reaches the wire with no escape, so the
// scanner must accept it.
func scannable(s string) bool {
	if !utf8.ValidString(s) || strings.ContainsAny(s, "\"\\<>&\u2028\u2029") {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 {
			return false
		}
	}
	return true
}

// FuzzQueryLine holds the row codec to encoding/json from both ends:
//   - for any tuple, AppendRowLine writes the bytes json.Encoder writes
//     for the row line ({"row":[]} for the zero-arity row omitempty would
//     drop), and ScanRowLine reads back the same tuple whenever it
//     accepts the line — always, when no value needed an escape;
//   - on arbitrary bytes ScanRowLine never panics, and whenever it
//     accepts a line, json.Unmarshal into a QueryLine (the client's
//     fallback) and Val's exact decoder read the same row.
func FuzzQueryLine(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte(`{"row":[1,"a",null]}`),
		[]byte(`{"row":[]}`),
		[]byte(`{"row":[-0,-9223372036854775808,9223372036854775807]}`),
		[]byte(`{"row":[9223372036854775808]}`),
		[]byte(`{"row":[1.5,1e3,01]}`),
		[]byte(`{"row":["<a&b>","\u2028","\"",""]}`),
		[]byte("{\"row\":[\"\xff\",\"é\",\"\x7f\"]}"),
		[]byte(`{"row":[1] }`),
		{2 + 3*5, '<', 'a', '&', 'b', '>'},
		{2 + 3*3, 'a', '&', 'b'},
		{2 + 3*3, 0xe2, 0x80, 0xa8, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0},
		{2 + 3*2, 0xc3, 0xa9, 2 + 3*1, 0xff, 2 + 3*1, '"'},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Encode: a tuple read from data.
		tup := fuzzTuple(data)
		line := AppendRowLine(nil, tup)
		want := encoderLine(t, refRow(tup))
		if len(tup) == 0 {
			want = []byte("{\"row\":[]}\n")
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("AppendRowLine(%v)\n got %q\nwant %q", tup, line, want)
		}
		plain := true
		for _, v := range tup {
			if v.Kind() == relation.KindString && !scannable(v.AsString()) {
				plain = false
			}
		}
		back, ok := ScanRowLine(nil, line[:len(line)-1])
		if ok && !back.Equal(tup) || !ok && plain {
			t.Fatalf("ScanRowLine(%q) = %v, %v; want %v", line, back, ok, tup)
		}

		// Decode: data as a stream line.
		got, ok := ScanRowLine(nil, data)
		if !ok {
			return
		}
		var ql QueryLine
		if err := json.Unmarshal(data, &ql); err != nil {
			t.Fatalf("ScanRowLine accepted %q, json.Unmarshal: %v", data, err)
		}
		if ql.Row == nil || ql.Head != nil || ql.Bound != 0 || ql.Stats != nil || ql.Error != nil {
			t.Fatalf("ScanRowLine accepted %q, json.Unmarshal read %+v", data, ql)
		}
		if !ql.Row.Tuple().Equal(got) {
			t.Fatalf("%q: ScanRowLine %v, json.Unmarshal %v", data, got, ql.Row.Tuple())
		}
		var ref refQueryLine
		if err := json.Unmarshal(data, &ref); err != nil || len(ref.Row) != len(got) {
			t.Fatalf("%q: reference decode %+v, %v", data, ref, err)
		}
		for i, raw := range ref.Row {
			var v Val
			if err := v.unmarshalExact(raw); err != nil || relation.Value(v) != got[i] {
				t.Fatalf("%q value %d: exact decoder %v, %v; ScanRowLine %v", data, i, relation.Value(v), err, got[i])
			}
		}
	})
}

// TestValUnmarshalFastPath pins Val.UnmarshalJSON's direct path against
// the exact json.Decoder path it short-cuts: every input gets the same
// value, or an error with the same text.
func TestValUnmarshalFastPath(t *testing.T) {
	cases := []struct {
		in      string
		want    relation.Value
		wantErr bool
	}{
		{in: `0`, want: relation.Int(0)},
		{in: `-0`, want: relation.Int(0)},
		{in: `42`, want: relation.Int(42)},
		{in: `9223372036854775807`, want: relation.Int(9223372036854775807)},
		{in: `-9223372036854775808`, want: relation.Int(-9223372036854775808)},
		{in: `9223372036854775808`, wantErr: true},
		{in: `-9223372036854775809`, wantErr: true},
		{in: `99999999999999999999`, wantErr: true},
		{in: `1.0`, wantErr: true},
		{in: `1e3`, wantErr: true},
		{in: `-`, wantErr: true},
		{in: `""`, want: relation.Str("")},
		{in: `"NYC"`, want: relation.Str("NYC")},
		{in: `"<a&b>"`, want: relation.Str("<a&b>")},
		{in: `"a\"b"`, want: relation.Str(`a"b`)},
		{in: `"\u00e9\n"`, want: relation.Str("é\n")},
		{in: `"é"`, want: relation.Str("é")},
		{in: `"\u2028"`, want: relation.Str("\u2028")},
		{in: "\"\xff\"", want: relation.Str("\ufffd")},
		{in: "\"a\tb\"", wantErr: true},
		{in: `"abc`, wantErr: true},
		{in: `null`, want: relation.Null()},
		{in: `nul`, wantErr: true},
		{in: `true`, wantErr: true},
		{in: `[1]`, wantErr: true},
		{in: `{}`, wantErr: true},
		{in: `{"a":1}`, wantErr: true},
		{in: ``, wantErr: true},
	}
	for _, c := range cases {
		var fast, exact Val
		ferr := fast.UnmarshalJSON([]byte(c.in))
		eerr := exact.unmarshalExact([]byte(c.in))
		if (ferr != nil) != c.wantErr {
			t.Errorf("UnmarshalJSON(%s): err = %v, want error %v", c.in, ferr, c.wantErr)
		}
		if fmt.Sprint(ferr) != fmt.Sprint(eerr) {
			t.Errorf("UnmarshalJSON(%s): err %v, exact path %v", c.in, ferr, eerr)
		}
		if ferr != nil {
			continue
		}
		if relation.Value(fast) != c.want || relation.Value(exact) != c.want {
			t.Errorf("UnmarshalJSON(%s) = %v, exact path %v, want %v", c.in, relation.Value(fast), relation.Value(exact), c.want)
		}
	}
	// Through encoding/json, as /query binds arrive.
	var b Binds
	if err := json.Unmarshal([]byte(`{"p": 7, "c": "NYC", "n": null}`), &b); err != nil {
		t.Fatal(err)
	}
	if b["p"] != Val(relation.Int(7)) || b["c"] != Val(relation.Str("NYC")) || b["n"] != Val(relation.Null()) {
		t.Fatalf("binds = %v", b)
	}
	for _, bad := range []string{`{"p": 1.5}`, `{"p": 01}`, `{"p": [1]}`} {
		if err := json.Unmarshal([]byte(bad), &b); err == nil {
			t.Fatalf("bind %s was accepted", bad)
		}
	}
}

// goldenStrings are the answer strings of the stream fixture: every
// shape the encoder must escape exactly as encoding/json does.
var goldenStrings = []string{"plain", "a&b", "1>0", "<tag>", "x\u2028y\u2029", "\xffz", `q"\`, "tab\t", "é"}

// streamServer serves a small engine for the stream tests: t(k, v)
// holds the answers, u(v, w) is a second hop so a read budget can fail
// a stream after its first rows. (Relations hold no nulls; the fuzz
// target covers null on the wire.) k=1 carries goldenStrings, k=2 120
// long plain strings (≈ 9 KiB of answers), k=3 three answers.
func streamServer(t *testing.T) (*Server, *core.Engine) {
	t.Helper()
	cat, err := parser.ParseCatalog(`
relation t(k, v)
relation u(v, w)
access t(k -> *) limit 200 time 1
access u(v -> *) limit 10 time 1
`)
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase(cat.Relational)
	add := func(k int64, v string, w int64) {
		db.MustInsert("t", relation.Tuple{relation.Int(k), relation.Str(v)})
		db.MustInsert("u", relation.Tuple{relation.Str(v), relation.Int(w)})
	}
	for i, s := range goldenStrings {
		add(1, s, int64(i)-3)
	}
	for i := range 120 {
		add(2, fmt.Sprintf("%064d", i), int64(i))
	}
	for _, s := range []string{"a", "b", "c"} {
		add(3, s, 9223372036854775807)
	}
	st, err := store.Open(db, cat.Access)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st)
	return NewServer(Config{Engine: eng}), eng
}

const streamQuery = "Q(k, v, w) :- t(k, v), u(v, w)"

// recorder is an http.ResponseWriter that logs every Write and Flush.
type recorder struct {
	hdr     http.Header
	body    bytes.Buffer
	writes  int
	flushes []int // body length at each Flush
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}
func (r *recorder) WriteHeader(int) {}
func (r *recorder) Write(p []byte) (int, error) {
	r.writes++
	return r.body.Write(p)
}
func (r *recorder) Flush() { r.flushes = append(r.flushes, r.body.Len()) }

// serveQuery prepares streamQuery on srv and runs one POST /query for
// k, returning the recorded response.
func serveQuery(t *testing.T, srv *Server, k, maxReads int64) *recorder {
	t.Helper()
	pw := httptest.NewRecorder()
	srv.ServeHTTP(pw, httptest.NewRequest("POST", "/prepare",
		strings.NewReader(`{"query":"`+streamQuery+`","ctrl":["k"]}`)))
	var prep PrepareResponse
	if err := json.Unmarshal(pw.Body.Bytes(), &prep); err != nil || prep.Handle == "" {
		t.Fatalf("prepare: %s (%v)", pw.Body.Bytes(), err)
	}
	req := fmt.Sprintf(`{"handle":%q,"bind":{"k":%d},"max_reads":%d}`, prep.Handle, k, maxReads)
	rec := &recorder{}
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(req)))
	return rec
}

// TestQueryFlushPolicy pins when the /query stream reaches the socket:
// the head and the first answer in one write and one flush, then only
// every flushBytes, with the last write left to the handler's return.
func TestQueryFlushPolicy(t *testing.T) {
	srv, _ := streamServer(t)

	rec := serveQuery(t, srv, 3, 0)
	if len(rec.flushes) != 1 || rec.writes != 2 {
		t.Fatalf("3-answer stream: %d writes, flushes at %v; want 2 writes, 1 flush", rec.writes, rec.flushes)
	}
	first := rec.body.Bytes()[:rec.flushes[0]]
	lines := strings.SplitAfter(string(first), "\n")
	if len(lines) != 3 || lines[2] != "" || !strings.HasPrefix(lines[0], `{"head":`) ||
		lines[1] != "{\"row\":[\"a\",9223372036854775807]}\n" {
		t.Fatalf("first flush holds %q, want head + first row", first)
	}
	if n := strings.Count(rec.body.String(), "\n"); n != 5 {
		t.Fatalf("3-answer stream has %d lines, want 5:\n%s", n, rec.body.Bytes())
	}

	rec = serveQuery(t, srv, 2, 0)
	if rec.body.Len() < 2*flushBytes || len(rec.flushes) < 2 {
		t.Fatalf("%d-byte stream flushed at %v; want more than one flush", rec.body.Len(), rec.flushes)
	}
	for i := 1; i < len(rec.flushes); i++ {
		if d := rec.flushes[i] - rec.flushes[i-1]; d < flushBytes {
			t.Fatalf("flush %d after %d bytes, below the %d-byte threshold", i, d, flushBytes)
		}
	}
}
