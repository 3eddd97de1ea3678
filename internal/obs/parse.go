package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the verification half of the exporter: a strict parser for
// the Prometheus text exposition format, used by the obs round-trip test
// and by the server's TestMetricszOverWire to fail on any malformed line
// the server emits. It is deliberately stricter than
// Prometheus itself: unknown sample names (no preceding TYPE), histogram
// series without their _count/_sum, and non-monotone cumulative buckets
// are all errors.

// ParsedFamily is one parsed metric family.
type ParsedFamily struct {
	Name string
	Help string
	Type Kind
	// Samples holds the family's raw sample lines in input order. For
	// histograms these are the _bucket/_sum/_count series.
	Samples []Sample
}

// Sample is one parsed sample line.
type Sample struct {
	Name   string // full sample name (may carry a _bucket/_sum/_count suffix)
	Labels map[string]string
	Value  float64
}

// ParseText parses a Prometheus text exposition, returning families by
// name. Any syntax violation — bad metric or label name, unparseable
// value, a sample without a preceding TYPE declaration, duplicate TYPE,
// a histogram whose cumulative buckets decrease or whose _count misses —
// is an error.
func ParseText(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, fams); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := familyFor(fams, s.Name)
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %q without a preceding # TYPE", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if err := f.validate(); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

func parseComment(line string, fams map[string]*ParsedFamily) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		name := fields[2]
		f := fams[name]
		if f == nil {
			f = &ParsedFamily{Name: name}
			fams[name] = f
		}
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	case "TYPE":
		if len(fields) != 4 || !validName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, kind := fields[2], Kind(fields[3])
		switch kind {
		case KindCounter, KindGauge, KindHistogram:
		default:
			return fmt.Errorf("unknown metric type %q for %s", fields[3], name)
		}
		f := fams[name]
		if f == nil {
			f = &ParsedFamily{Name: name}
			fams[name] = f
		}
		if f.Type != "" {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		f.Type = kind
	}
	return nil
}

// familyFor resolves a sample name to its declaring family, peeling
// histogram suffixes.
func familyFor(fams map[string]*ParsedFamily, name string) *ParsedFamily {
	if f := fams[name]; f != nil && f.Type != "" {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if f := fams[base]; f != nil && f.Type == KindHistogram {
			return f
		}
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp suffix would surface here as a second field; we emit
	// none and reject any.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("trailing fields after value in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at in[0] == '{',
// returning the index just past the closing brace.
func parseLabels(in string, out map[string]string) (int, error) {
	i := 1
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, nil
		}
		j := strings.IndexByte(in[i:], '=')
		if j < 0 {
			return 0, fmt.Errorf("malformed labels %q", in)
		}
		name := in[i : i+j]
		if !validLabel(name) && name != "le" {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i += j + 1
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return 0, fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return 0, fmt.Errorf("dangling escape in %q", in)
				}
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, fmt.Errorf("unknown escape \\%c in %q", in[i+1], in)
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %q in %q", name, in)
		}
		out[name] = b.String()
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validate checks family-level invariants after parsing.
func (f *ParsedFamily) validate() error {
	if f.Type == "" {
		return fmt.Errorf("obs: family %s has HELP but no TYPE", f.Name)
	}
	if f.Type != KindHistogram {
		for _, s := range f.Samples {
			if s.Name != f.Name {
				return fmt.Errorf("obs: sample %s under non-histogram family %s", s.Name, f.Name)
			}
		}
		return nil
	}
	// Histogram: per label set, cumulative buckets must be monotone and
	// end at _count; every series needs _sum and _count.
	type series struct {
		lastLe  float64
		lastCum float64
		bucket  bool
		sum     bool
		count   float64
		hasCnt  bool
	}
	bySeries := make(map[string]*series)
	keyOf := func(labels map[string]string) string {
		ks := make([]string, 0, len(labels))
		for k := range labels {
			if k == "le" {
				continue
			}
			ks = append(ks, k+"="+labels[k])
		}
		sortStrings(ks)
		return strings.Join(ks, ",")
	}
	for _, s := range f.Samples {
		k := keyOf(s.Labels)
		se := bySeries[k]
		if se == nil {
			se = &series{lastLe: math.Inf(-1)}
			bySeries[k] = se
		}
		switch {
		case s.Name == f.Name+"_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("obs: %s_bucket without le label", f.Name)
			}
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("obs: %s_bucket with bad le %q", f.Name, leStr)
			}
			if le <= se.lastLe {
				return fmt.Errorf("obs: %s buckets out of order (le %q)", f.Name, leStr)
			}
			if s.Value < se.lastCum {
				return fmt.Errorf("obs: %s cumulative bucket decreased at le %q", f.Name, leStr)
			}
			se.lastLe, se.lastCum, se.bucket = le, s.Value, true
		case s.Name == f.Name+"_sum":
			se.sum = true
		case s.Name == f.Name+"_count":
			se.hasCnt, se.count = true, s.Value
		default:
			return fmt.Errorf("obs: sample %s under histogram family %s", s.Name, f.Name)
		}
	}
	for k, se := range bySeries {
		if !se.bucket || !se.sum || !se.hasCnt {
			return fmt.Errorf("obs: histogram %s{%s} missing _bucket/_sum/_count", f.Name, k)
		}
		if se.lastCum != se.count {
			return fmt.Errorf("obs: histogram %s{%s}: +Inf bucket %g != _count %g", f.Name, k, se.lastCum, se.count)
		}
	}
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
