package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// metricKind discriminates the registry's metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name: its help text, its kind, and one child
// per distinct label set.
type family struct {
	name  string
	help  string
	kind  metricKind
	order []string       // label-set keys in creation order
	items map[string]any // label-set key → *Counter | *Gauge | *Histogram
}

// Registry is a named collection of metrics rendered in Prometheus text
// format. Metric constructors are idempotent: asking twice for the same
// (name, labels) returns the same instance, so producers can look
// metrics up lazily without coordinating creation. Construction takes a
// mutex; the returned metrics themselves are lock-free.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelEscaper escapes a label value the way text format 0.0.4
// defines: backslash, double quote and newline, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelKey renders alternating key/value pairs as a canonical
// `k1="v1",k2="v2"` string (empty for no labels). Values may come from
// clients (tenant names), so invalid UTF-8 becomes U+FFFD and only the
// three defined escapes are written.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, strings.ToValidUTF8(labels[i+1], "\uFFFD"))
		b.WriteByte('"')
	}
	return b.String()
}

// metric returns (creating if needed) the child of the named family
// with the given label set, checking the kind matches.
func (r *Registry) metric(name, help string, kind metricKind, labels []string, mk func() any) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, items: make(map[string]any)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	m := f.items[key]
	if m == nil {
		m = mk()
		f.items[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns the counter with the given name and optional
// alternating label key/value pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.metric(name, help, kindCounter, labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge with the given name and labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.metric(name, help, kindGauge, labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram with the given name and labels,
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.metric(name, help, kindHistogram, labels, func() any { return new(Histogram) }).(*Histogram)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4). Histograms emit cumulative
// `_bucket{le=...}` lines for their non-empty buckets plus the
// mandatory `+Inf` bucket, `_sum`, and `_count`; sparse bucket
// boundaries are valid because the counts are cumulative.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %v\n", f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.order {
			if err := writeChild(w, f, key); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeChild renders one (family, label set) child.
func writeChild(w io.Writer, f *family, key string) error {
	switch m := f.items[key].(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, wrapLabels(key), m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, wrapLabels(key), m.Value())
		return err
	case *Histogram:
		var s HistSnapshot
		m.Snapshot(&s)
		var cum uint64
		for i := range s.Counts {
			if s.Counts[i] == 0 {
				continue
			}
			cum += s.Counts[i]
			_, hi := BucketBounds(i)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, joinLabels(key, fmt.Sprintf(`le="%d"`, hi-1)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, joinLabels(key, `le="+Inf"`), s.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, wrapLabels(key), s.Sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, wrapLabels(key), s.Count)
		return err
	}
	return nil
}

// wrapLabels renders a label-set key as `{key}` or nothing when empty.
func wrapLabels(key string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "}"
}

// joinLabels appends extra to a label-set key inside braces.
func joinLabels(key, extra string) string {
	if key == "" {
		return "{" + extra + "}"
	}
	return "{" + key + "," + extra + "}"
}

// Families returns the registered family names, sorted — a stable view
// for tests and debugging.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}
