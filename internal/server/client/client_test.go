package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/relation"
)

// streamClient serves body verbatim as every /query response and
// returns a prepared handle pointed at it.
func streamClient(t *testing.T, body string) *Prepared {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, body) //nolint:errcheck
	}))
	t.Cleanup(hs.Close)
	return &Prepared{c: New(hs.URL, WithHTTPClient(hs.Client())), Handle: "h1"}
}

// TestRowsParsesStream drives the client's line reader and row scanner
// over a hand-written stream: plain rows (scanned), escaped strings
// (json.Unmarshal fallback), a line longer than the read buffer, a
// Boolean answer, and the terminal stats line.
func TestRowsParsesStream(t *testing.T) {
	long := strings.Repeat("x", 3*lineBufSize)
	body := `{"head":["a","b"],"bound":40}` + "\n" +
		`{"row":[1,"plain"]}` + "\n" +
		`{"row":["<a&b>",-9223372036854775808]}` + "\n" +
		`{"row":["` + long + `",null]}` + "\n" +
		`{"row":["é",0]}` + "\n" +
		`{"row":[]}` + "\n" +
		`{"stats":{"answers":5,"reads":7,"bound":40}}` + "\n"
	rows, err := streamClient(t, body).Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if h := rows.Head(); len(h) != 2 || h[0] != "a" || h[1] != "b" || rows.Bound() != 40 {
		t.Fatalf("head %v bound %d", h, rows.Bound())
	}
	want := []relation.Tuple{
		{relation.Int(1), relation.Str("plain")},
		{relation.Str("<a&b>"), relation.Int(-9223372036854775808)},
		{relation.Str(long), relation.Null()},
		{relation.Str("é"), relation.Int(0)},
		{},
	}
	var got []relation.Tuple
	for rows.Next() {
		got = append(got, rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	// Checked after the drain: a row sharing the scanner's scratch
	// would have been overwritten by the rows after it.
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	if st := rows.Stats(); st == nil || st.Answers != 5 || st.Reads != 7 || st.Bound != 40 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRowsBrokenStream pins the errors of a stream that ends early: cut
// mid-line, cut before its stats line, or carrying a line that is not
// JSON or a number that is not an int64.
func TestRowsBrokenStream(t *testing.T) {
	head := `{"head":["a"],"bound":9}` + "\n"
	for _, c := range []struct{ body, want string }{
		{head + `{"row":[1`, "client: reading stream: unexpected end of JSON input"},
		{head + `{"row":[1]}` + "\n", "client: stream ended without stats line"},
		{head + `{"row":[1.5]}` + "\n", `client: reading stream: server: non-integer number "1.5" in value`},
		{head + "{}\n", "client: empty stream line"},
	} {
		rows, err := streamClient(t, c.body).Query(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err == nil || err.Error() != c.want {
			t.Errorf("stream %q: err = %v, want %q", c.body, err, c.want)
		}
		rows.Close()
	}
	if _, err := streamClient(t, "").Query(context.Background(), nil); err == nil ||
		!strings.HasPrefix(err.Error(), "client: reading stream head: ") {
		t.Fatalf("empty stream: err = %v", err)
	}
}
