// Package obs is the observability layer of the serving tier: a
// dependency-free Prometheus text-format metrics registry, request-ID
// tracing with per-stage timings, structured request logging, and the
// pprof/expvar debug sidecar. Every serving daemon (caltrain-serve,
// caltrain-router, the shard daemons) wires through it, so one scrape
// config and one request ID cover the whole deployment tree.
//
// The package deliberately imports nothing beyond the standard library:
// the serving tier must not grow a client_golang dependency for a text
// format this small, and the registry's surface is exactly what the
// tier needs — counters, gauges, and cumulative histograms with
// HELP/TYPE lines, rendered in exposition format 0.0.4.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's TYPE line value.
type Kind string

// Metric family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one rendered line of a metric family: optional name suffix
// (histograms emit "_bucket", "_sum", "_count"), labels, and the value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: a name, its HELP text, its TYPE, and a
// collect function evaluated at scrape time. Collect returning no
// samples suppresses the family entirely for that scrape (its HELP/TYPE
// lines included), so conditional metrics — ingest gauges on a
// read-only daemon — simply vanish instead of reporting zeros that
// would read as "a WAL exists and is empty". A stat a JSON status body
// also reports is declared once, by a tagged field of that body's
// struct: see Fields.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Collect func() []Sample
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. It implements http.Handler — mount it as the
// scrape endpoint. Registration order is preserved in the output.
type Registry struct {
	mu       sync.Mutex
	families []*Family
	byName   map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// Register adds a family, validating its name, kind, and help text and
// rejecting duplicates.
func (r *Registry) Register(f *Family) error {
	if f == nil || f.Collect == nil {
		return fmt.Errorf("obs: family needs a collect function")
	}
	if !metricNameRe.MatchString(f.Name) {
		return fmt.Errorf("obs: bad metric name %q", f.Name)
	}
	switch f.Kind {
	case KindCounter, KindGauge, KindHistogram:
	default:
		return fmt.Errorf("obs: family %s: unknown kind %q", f.Name, f.Kind)
	}
	if strings.ContainsAny(f.Help, "\n") {
		return fmt.Errorf("obs: family %s: help text must be one line", f.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[f.Name] {
		return fmt.Errorf("obs: family %s registered twice", f.Name)
	}
	r.byName[f.Name] = true
	r.families = append(r.families, f)
	return nil
}

// MustRegister is Register, panicking on error — registration happens
// at construction with literal names, so an error is a programming bug.
func (r *Registry) MustRegister(fs ...*Family) {
	for _, f := range fs {
		if err := r.Register(f); err != nil {
			panic(err)
		}
	}
}

// Collect evaluates the named family now and returns its samples — how
// a JSON status page reports the same numbers the scrape does, from the
// family's one declaration. An unregistered name collects nothing.
func (r *Registry) Collect(name string) []Sample {
	r.mu.Lock()
	var found *Family
	for _, f := range r.families {
		if f.Name == name {
			found = f
			break
		}
	}
	r.mu.Unlock()
	if found == nil {
		return nil
	}
	return found.Collect()
}

// WriteText renders every family in exposition format 0.0.4.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	families := make([]*Family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	for _, f := range families {
		samples := f.Collect()
		if len(samples) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, escapeHelp(f.Help), f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range samples {
			if err := writeSample(w, f.Name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// ContentType is the Content-Type of the exposition format the registry
// renders.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP implements http.Handler: the scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	// Rendering failures past the header are unrecoverable; ignore.
	_ = r.WriteText(w)
}

func writeSample(w io.Writer, name string, s Sample) error {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(s.Suffix)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(s)
}

// CounterFunc builds a counter family whose single sample is read from
// fn at scrape time — the natural fit for the serving tier's existing
// atomic counters.
func CounterFunc(name, help string, fn func() float64) *Family {
	return &Family{Name: name, Help: help, Kind: KindCounter, Collect: func() []Sample {
		return []Sample{{Value: fn()}}
	}}
}

// GaugeFunc builds a gauge family whose single sample is read from fn
// at scrape time.
func GaugeFunc(name, help string, fn func() float64) *Family {
	return &Family{Name: name, Help: help, Kind: KindGauge, Collect: func() []Sample {
		return []Sample{{Value: fn()}}
	}}
}

// Fields builds one family per field of T tagged metric:"<name>", its
// HELP the field's help:"…" tag: a counter when the name ends in
// _total, a gauge otherwise. Each samples that field of what read
// returns at scrape time. Every family is absent while read returns
// nil, and one tagged metric:"<name>,omitzero" while its field reads
// zero. The tagged field is the stat's one declaration: the JSON body
// that encodes T and the scrape report the same number. A tag on a
// field that is not a number is a programming bug, and panics.
func Fields[T any](read func() *T) []*Family {
	var out []*Family
	for _, f := range reflect.VisibleFields(reflect.TypeFor[T]()) {
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		name, opt, _ := strings.Cut(tag, ",")
		if opt != "" && opt != "omitzero" {
			panic(fmt.Sprintf("obs: field %s: unknown metric option %q", f.Name, opt))
		}
		if !f.Type.ConvertibleTo(float64Type) {
			panic(fmt.Sprintf("obs: field %s (%s) is not a number", f.Name, f.Type))
		}
		kind := KindGauge
		if strings.HasSuffix(name, "_total") {
			kind = KindCounter
		}
		out = append(out, SamplesFunc(name, f.Tag.Get("help"), kind, func() []Sample {
			p := read()
			if p == nil {
				return nil
			}
			v := reflect.ValueOf(p).Elem().FieldByIndex(f.Index)
			if opt == "omitzero" && v.IsZero() {
				return nil
			}
			return []Sample{{Value: v.Convert(float64Type).Float()}}
		}))
	}
	return out
}

var float64Type = reflect.TypeFor[float64]()

// SamplesFunc builds a family of the given kind whose samples are
// produced whole by fn at scrape time — for labeled or conditional
// metrics (per-shard gauges, ingest stats on a daemon that may be
// read-only). Returning nil suppresses the family for that scrape.
func SamplesFunc(name, help string, kind Kind, fn func() []Sample) *Family {
	return &Family{Name: name, Help: help, Kind: kind, Collect: fn}
}

// Bucket is one cumulative histogram bucket: Count observations took at
// most UpperBound (in the metric's unit, conventionally seconds). The
// +Inf bucket is implicit — the renderer emits it from the snapshot's
// Count.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// HistogramSnapshot is a histogram family's state at scrape time:
// cumulative buckets in ascending bound order, the total observation
// count, and the sum of observations.
type HistogramSnapshot struct {
	Buckets []Bucket
	Count   uint64
	Sum     float64
}

// HistogramFunc builds a histogram family from a snapshot function
// evaluated at scrape time. Buckets must be cumulative and ascending;
// the le="+Inf" bucket and the _count series are emitted from Count.
func HistogramFunc(name, help string, fn func() HistogramSnapshot) *Family {
	return &Family{Name: name, Help: help, Kind: KindHistogram, Collect: func() []Sample {
		snap := fn()
		out := make([]Sample, 0, len(snap.Buckets)+3)
		for _, b := range snap.Buckets {
			out = append(out, Sample{
				Suffix: "_bucket",
				Labels: []Label{{Name: "le", Value: formatValue(b.UpperBound)}},
				Value:  float64(b.Count),
			})
		}
		out = append(out, Sample{
			Suffix: "_bucket",
			Labels: []Label{{Name: "le", Value: "+Inf"}},
			Value:  float64(snap.Count),
		})
		out = append(out,
			Sample{Suffix: "_sum", Value: snap.Sum},
			Sample{Suffix: "_count", Value: float64(snap.Count)})
		return out
	}}
}

// CounterVec is a set of monotonically increasing counters keyed by one
// label — how the serving tier counts request errors by envelope code.
// Inc is safe for concurrent use.
type CounterVec struct {
	name  string
	help  string
	label string

	mu       sync.RWMutex
	children map[string]*atomic.Uint64
}

// NewCounterVec creates a counter family keyed by the given label name.
func NewCounterVec(name, help, label string) *CounterVec {
	if !metricNameRe.MatchString(name) || !labelNameRe.MatchString(label) {
		panic(fmt.Sprintf("obs: bad counter vec name %q / label %q", name, label))
	}
	return &CounterVec{name: name, help: help, label: label, children: make(map[string]*atomic.Uint64)}
}

// Inc increments the counter for the given label value.
func (v *CounterVec) Inc(value string) { v.Add(value, 1) }

// Add increments the counter for the given label value by n.
func (v *CounterVec) Add(value string, n uint64) {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c == nil {
		v.mu.Lock()
		if c = v.children[value]; c == nil {
			c = new(atomic.Uint64)
			v.children[value] = c
		}
		v.mu.Unlock()
	}
	c.Add(n)
}

// Value reads the counter for the given label value (0 if never
// incremented).
func (v *CounterVec) Value(value string) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c := v.children[value]; c != nil {
		return c.Load()
	}
	return 0
}

// Total sums the counters over every label value.
func (v *CounterVec) Total() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var sum uint64
	for _, c := range v.children {
		sum += c.Load()
	}
	return sum
}

// Family renders the vec as a registerable family; samples are sorted
// by label value for a stable exposition.
func (v *CounterVec) Family() *Family {
	return &Family{Name: v.name, Help: v.help, Kind: KindCounter, Collect: func() []Sample {
		v.mu.RLock()
		values := make([]string, 0, len(v.children))
		for val := range v.children {
			values = append(values, val)
		}
		v.mu.RUnlock()
		sort.Strings(values)
		out := make([]Sample, 0, len(values))
		for _, val := range values {
			out = append(out, Sample{
				Labels: []Label{{Name: v.label, Value: val}},
				Value:  float64(v.Value(val)),
			})
		}
		return out
	}}
}
