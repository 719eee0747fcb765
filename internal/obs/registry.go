// Package obs is the observability substrate of the reproduction: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms with Prometheus text exposition) and a per-query Trace that
// records timed spans and renders as an EXPLAIN ANALYZE-style tree.
//
// The registry is safe for concurrent use: instruments are lock-free atomics
// on the hot path, and registration is idempotent (asking for an existing
// series returns it). Every instrument method is safe on a nil receiver, so
// uninstrumented components pay only a nil check.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value. Safe on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds (the Prometheus "le" convention); an implicit +Inf bucket catches
// everything else.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // one per upper bound, plus +Inf at the end
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// DefLatencyBuckets spans 100µs to 10s, the useful range for in-process
// query latencies measured in seconds.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up)+1)}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations. Safe on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values. Safe on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// series is one exposition line: an instrument plus its label pairs.
type series struct {
	labels []string // key, value, key, value, ...
	ctr    *Counter
	gge    *Gauge
	hst    *Histogram
}

// family groups series sharing a metric name (one HELP/TYPE block).
type family struct {
	name, help, typ string
	series          []*series
	byLabel         map[string]*series
}

// Registry holds named instruments and renders them in the Prometheus text
// exposition format. The zero value is not usable; construct with
// NewRegistry. All methods are safe for concurrent use.
//
// A Registry is a view over a shared instrument store: Sub derives a
// registry that stamps fixed base labels onto every instrument registered
// through it while writing into the same exposition, which is how one
// process serving many cubes gets a per-cube label dimension on shared
// metric families.
type Registry struct {
	core *registryCore
	base []string // label pairs prepended to every registration
}

// registryCore is the instrument store shared by a registry and all its
// Sub views.
type registryCore struct {
	mu      sync.Mutex
	ordered []*family
	byName  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{core: &registryCore{byName: make(map[string]*family)}}
}

// Sub returns a registry view that adds the given label key/value pairs to
// every instrument registered through it. The returned registry shares the
// parent's instrument store, so WriteText on either renders both. Safe on a
// nil receiver (returns nil).
func (r *Registry) Sub(labels ...string) *Registry {
	if r == nil {
		return nil
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	base := append(append([]string(nil), r.base...), labels...)
	return &Registry{core: r.core, base: base}
}

func labelKey(labels []string) string { return strings.Join(labels, "\x00") }

func (c *registryCore) family(name, help, typ string) *family {
	f, ok := c.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*series)}
		c.byName[name] = f
		c.ordered = append(c.ordered, f)
	}
	return f
}

// lookup returns the series for name and labels, creating it — and its
// instrument of the given type, under the registry lock, so two first uses
// racing each other share one instrument — on first use.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []string) *series {
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	if len(r.base) > 0 {
		labels = append(append([]string(nil), r.base...), labels...)
	}
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.family(name, help, typ)
	lk := labelKey(labels)
	s, ok := f.byLabel[lk]
	if !ok {
		s = &series{labels: append([]string(nil), labels...)}
		f.byLabel[lk] = s
		f.series = append(f.series, s)
	}
	switch {
	case typ == "counter" && s.ctr == nil:
		s.ctr = &Counter{}
	case typ == "gauge" && s.gge == nil:
		s.gge = &Gauge{}
	case typ == "histogram" && s.hst == nil:
		s.hst = newHistogram(buckets)
	}
	return s
}

// Counter registers (or returns the existing) counter with the given name
// and label key/value pairs. Safe on a nil receiver, which yields a nil
// (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "counter", nil, labels).ctr
}

// Gauge registers (or returns the existing) gauge. Safe on a nil receiver.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "gauge", nil, labels).gge
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (nil means DefLatencyBuckets). Safe on a nil receiver.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "histogram", buckets, labels).hst
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels formats {k="v",...}; extra appends one more pair (for "le").
func renderLabels(labels []string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, labels[i], labelEscaper.Replace(labels[i+1]))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, labelEscaper.Replace(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders every registered instrument in the Prometheus text
// exposition format (version 0.0.4). Safe on a nil receiver (writes
// nothing).
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.Lock()
	fams := append([]*family(nil), c.ordered...)
	snap := make([][]*series, len(fams))
	for i, f := range fams {
		snap[i] = append([]*series(nil), f.series...)
	}
	c.mu.Unlock()
	for i, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range snap[i] {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.ctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels, "", ""), s.ctr.Value())
		return err
	case s.gge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels, "", ""), s.gge.Value())
		return err
	case s.hst != nil:
		h := s.hst
		cum := uint64(0)
		for i, up := range h.upper {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, renderLabels(s.labels, "le", formatFloat(up)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.upper)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, renderLabels(s.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, renderLabels(s.labels, "", ""), formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n",
			f.name, renderLabels(s.labels, "", ""), h.Count())
		return err
	}
	return nil
}
