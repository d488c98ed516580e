package obs

import (
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestRegistryIdempotentConstructors(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Error("same name should return the same counter")
	}
	la := r.Counter("y_total", "help", "op", "matching")
	lb := r.Counter("y_total", "help", "op", "matching")
	lc := r.Counter("y_total", "help", "op", "rank")
	if la != lb {
		t.Error("same labels should return the same counter")
	}
	if la == lc {
		t.Error("distinct labels should return distinct counters")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch should panic")
		}
	}()
	r.Gauge("m", "")
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("odd label list should panic")
		}
	}()
	r.Counter("m", "", "keyonly")
}

// promLine is one parsed sample: name, label string, value.
type promLine struct {
	name   string
	labels string
	value  float64
}

// parseProm is a minimal Prometheus text-format parser: enough to
// prove the exposition is machine-readable (comments skipped, every
// sample line splits into name{labels} and a float value).
func parseProm(t *testing.T, text string) []promLine {
	t.Helper()
	var out []promLine
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		id, valstr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valstr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name, labels := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("unbalanced braces in %q", line)
			}
			name, labels = id[:i], id[i+1:len(id)-1]
		}
		out = append(out, promLine{name, labels, v})
	}
	return out
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "requests").Add(41)
	r.Gauge("depth", "queue depth").Set(7)
	h := r.Histogram("lat_ns", "latency", "op", "matching")
	for _, v := range []int64{10, 100, 1000, 100000} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	lines := parseProm(t, text)

	find := func(name, labelSub string) *promLine {
		for i := range lines {
			if lines[i].name == name && strings.Contains(lines[i].labels, labelSub) {
				return &lines[i]
			}
		}
		return nil
	}
	if l := find("requests_total", ""); l == nil || l.value != 41 {
		t.Errorf("requests_total = %+v", l)
	}
	if l := find("depth", ""); l == nil || l.value != 7 {
		t.Errorf("depth = %+v", l)
	}
	if l := find("lat_ns_count", `op="matching"`); l == nil || l.value != 4 {
		t.Errorf("lat_ns_count = %+v", l)
	}
	if l := find("lat_ns_sum", `op="matching"`); l == nil || l.value != 101110 {
		t.Errorf("lat_ns_sum = %+v", l)
	}
	inf := find("lat_ns_bucket", `le="+Inf"`)
	if inf == nil || inf.value != 4 {
		t.Fatalf("+Inf bucket = %+v", inf)
	}
	// Cumulative bucket counts must be non-decreasing in le order (the
	// emission order) and end at the +Inf count.
	var prev float64
	for _, l := range lines {
		if l.name != "lat_ns_bucket" {
			continue
		}
		if l.value < prev {
			t.Errorf("bucket counts not cumulative: %v after %v", l.value, prev)
		}
		prev = l.value
	}
	if prev != 4 {
		t.Errorf("last bucket = %v, want 4", prev)
	}
	if !strings.Contains(text, "# TYPE lat_ns histogram") {
		t.Error("missing TYPE line for histogram")
	}
}

func TestFamiliesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", "")
	r.Counter("aaa", "")
	fams := r.Families()
	if len(fams) != 2 || fams[0] != "aaa" || fams[1] != "zzz" {
		t.Errorf("families = %v", fams)
	}
}

// TestLabelValueEscaping renders client-chosen label values — control
// bytes, invalid UTF-8, a quote, a backslash and a newline — and checks
// the exposition stays inside text format 0.0.4: every backslash starts
// one of its three escapes (\\, \" or \n), and the page is valid UTF-8.
// Plain values render as they always have.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("shed_total", "", "tenant", "a\tb\x01\xff\"q\\s\nn", "cause", "over_limit").Inc()
	r.Counter("shed_total", "", "tenant", "hog", "cause", "over_limit").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !utf8.ValidString(text) {
		t.Errorf("exposition is not valid UTF-8:\n%q", text)
	}
	for i := 0; i < len(text); i++ {
		if text[i] != '\\' {
			continue
		}
		if i+1 == len(text) || !strings.ContainsRune(`\"n`, rune(text[i+1])) {
			t.Fatalf("undefined escape at byte %d:\n%q", i, text)
		}
		i++
	}
	for _, want := range []string{
		"shed_total{tenant=\"a\tb\x01\uFFFD\\\"q\\\\s\\nn\",cause=\"over_limit\"} 1\n",
		`shed_total{tenant="hog",cause="over_limit"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%q", want, text)
		}
	}
}
