package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpans bounds a single trace so a pathological plan tree cannot balloon
// the response; spans beyond the cap are counted, not recorded. The same
// bound caps span subtrees accepted from the wire.
const MaxSpans = 2048

// traceIDs hands out process-unique trace IDs. The high bits are seeded from
// the process start time so IDs from restarted processes don't collide in a
// shared query log.
var traceIDs atomic.Uint64

func init() {
	traceIDs.Store(uint64(time.Now().UnixNano()) << 20)
}

// NewTraceID returns a fresh process-unique trace identifier.
func NewTraceID() uint64 { return traceIDs.Add(1) }

// FormatTraceID renders a trace ID the way the query log and API expose it.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// Span is one timed region of a trace, recorded in the shape the trace is
// served as: API responses and the query log marshal it to JSON, and the
// cluster wire protocol carries shard-side subtrees of it.
//
// A span a trace opened is live: it is the execution context of the work
// under it, which opens children with Start and annotates itself with
// SetAttr, AddAttr and SetLabel until End. Its writes take the trace mutex,
// so any number of goroutines may open children of the same parent (child
// order then reflects attach order). A nil *Span means untraced: every
// method no-ops and Start returns nil, so instrumented code calls
// unconditionally. A span that no trace opened — one decoded from the wire
// or built as a literal — is data only.
type Span struct {
	Name       string           `json:"name"`
	DurationUS int64            `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	// Labels are string annotations (cube, view). They ride in API
	// responses and the query log but not the binary wire protocol, whose
	// span payload is pinned by codec goldens; shard-side subtrees carry
	// cost attrs only and identity labels are stamped by the serving tier.
	Labels   map[string]string `json:"labels,omitempty"`
	Children []*Span           `json:"children,omitempty"`

	t     *Trace // the recording trace; nil for a span no trace opened
	start time.Time
	ended bool
}

// lock takes the recording trace's mutex, reporting false (and taking
// nothing) for a nil span or one no trace opened.
func (s *Span) lock() bool {
	if s == nil || s.t == nil {
		return false
	}
	s.t.mu.Lock()
	return true
}

// Start opens a child span under s, or returns nil when s is nil or the
// trace is at its span cap (the drop is counted). Sibling children may be
// opened from different goroutines.
func (s *Span) Start(name string) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	t, start := s.t, time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans >= MaxSpans {
		t.dropped++
		return nil
	}
	c := &Span{Name: name, t: t, start: start}
	s.Children = append(s.Children, c)
	t.spans++
	return c
}

// SetAttr sets (or replaces) an integer annotation. Safe on nil.
func (s *Span) SetAttr(key string, v int64) {
	if !s.lock() {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] = v
	s.t.mu.Unlock()
}

// AddAttr accumulates into an integer annotation. Safe on nil.
func (s *Span) AddAttr(key string, v int64) {
	if !s.lock() {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] += v
	s.t.mu.Unlock()
}

// SetLabel sets (or replaces) a string annotation. Safe on nil.
func (s *Span) SetLabel(key, val string) {
	if !s.lock() {
		return
	}
	if s.Labels == nil {
		s.Labels = make(map[string]string)
	}
	s.Labels[key] = val
	s.t.mu.Unlock()
}

// End closes the span, recording its duration. Ending twice keeps the first
// duration; siblings may end in any order, from any goroutine. Safe on nil.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	s.endLocked(d)
	s.t.mu.Unlock()
}

// endLocked records duration d unless the span already ended. Caller holds
// the trace mutex.
func (s *Span) endLocked(d time.Duration) {
	if !s.ended {
		s.ended, s.DurationUS = true, d.Microseconds()
	}
}

// Graft attaches a copy of an already-finished span subtree (one decoded
// from a shard response) under s, node by node: names, durations and
// children are copied, and each copy shares its node's attr and label maps,
// which must not change afterwards. The copies, like n, are data only. They
// count toward the trace's span cap, and the nodes over it are dropped (and
// counted). Safe on a nil receiver and a nil node.
func (s *Span) Graft(n *Span) {
	if n == nil || !s.lock() {
		return
	}
	defer s.t.mu.Unlock()
	s.t.graftLocked(s, n)
}

// graftLocked copies n's subtree under parent. Caller holds t.mu.
func (t *Trace) graftLocked(parent, n *Span) {
	if t.spans >= MaxSpans {
		t.dropped += n.count()
		return
	}
	c := &Span{Name: n.Name, DurationUS: n.DurationUS, Attrs: n.Attrs, Labels: n.Labels, ended: true}
	parent.Children = append(parent.Children, c)
	t.spans++
	for _, child := range n.Children {
		t.graftLocked(c, child)
	}
}

// Trace records the timed span tree of one query execution. A nil *Trace is
// a valid no-op tracer: its Root is nil, so instrumented code calls
// unconditionally.
//
// Traces are safe for concurrent use: spans attach under the trace mutex,
// and sibling spans may be recorded from any number of goroutines, so a
// traced query keeps its full scatter parallelism. The tree is read (Tree,
// String) by the goroutine that owns the query, once the work under the
// root has returned.
type Trace struct {
	id uint64

	mu      sync.Mutex
	root    Span
	spans   int
	dropped int
}

// NewTrace starts a trace whose root span has the given name and assigns it
// a fresh process-unique trace ID.
func NewTrace(name string) *Trace {
	t := &Trace{id: NewTraceID(), spans: 1}
	t.root = Span{Name: name, t: t, start: time.Now()}
	return t
}

// ID returns the trace's process-unique identifier. Safe on nil (returns 0).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Root returns the root span, the execution context of the traced work, or
// nil for a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &t.root
}

// Start opens a child span directly under the root. Safe on a nil receiver
// (returns a nil span).
func (t *Trace) Start(name string) *Span { return t.Root().Start(name) }

// Finish closes the root span and any still-open descendants. Safe on nil.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var close func(s *Span)
	close = func(s *Span) {
		s.endLocked(now.Sub(s.start))
		for _, c := range s.Children {
			close(c)
		}
	}
	close(&t.root)
}

// Dropped returns how many spans were discarded to honour the trace size
// cap. Safe on nil.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns how many spans the trace holds (including the root). Safe
// on nil.
func (t *Trace) Spans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Tree returns the recorded span tree, rooted at the root span. Safe on nil
// (returns nil).
func (t *Trace) Tree() *Span { return t.Root() }

// Label returns the named string annotation on the node or, failing that,
// the first occurrence in its subtree (pre-order); "" when absent. Safe on
// nil.
func (n *Span) Label(key string) string {
	if n == nil {
		return ""
	}
	if v, ok := n.Labels[key]; ok {
		return v
	}
	for _, c := range n.Children {
		if v := c.Label(key); v != "" {
			return v
		}
	}
	return ""
}

// count returns the number of nodes in the subtree.
func (n *Span) count() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.count()
	}
	return total
}

// SumAttr totals the named attribute over the node and its subtree. Safe on
// nil.
func (n *Span) SumAttr(key string) int64 {
	if n == nil {
		return 0
	}
	total := n.Attrs[key]
	for _, c := range n.Children {
		total += c.SumAttr(key)
	}
	return total
}

// MaxAttr returns the largest value of the named attribute over the node
// and its subtree, 0 when the attribute never appears. Safe on nil. Use it
// for attributes that annotate rather than accumulate (e.g. measure_width).
func (n *Span) MaxAttr(key string) int64 {
	if n == nil {
		return 0
	}
	best := n.Attrs[key]
	for _, c := range n.Children {
		if v := c.MaxAttr(key); v > best {
			best = v
		}
	}
	return best
}

// Find returns the first node (pre-order) whose name starts with the given
// prefix, or nil. Safe on nil.
func (n *Span) Find(prefix string) *Span {
	if n == nil {
		return nil
	}
	if strings.HasPrefix(n.Name, prefix) {
		return n
	}
	for _, c := range n.Children {
		if got := c.Find(prefix); got != nil {
			return got
		}
	}
	return nil
}

// String renders the trace as an EXPLAIN ANALYZE-style indented tree
// (RenderNode), noting the spans dropped over the cap. Safe on nil.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := RenderNode(&t.root)
	if t.dropped > 0 {
		out += fmt.Sprintf("(%d spans dropped over the %d-span cap)\n", t.dropped, MaxSpans)
	}
	return out
}

// sortedKeys returns a map's keys in sorted order, for stable rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RenderNode renders a span tree in the same indented style String
// uses, for clients that receive trees rather than live traces (cubectl
// trace). Safe on nil (returns "").
func RenderNode(n *Span) string {
	var b strings.Builder
	renderNode(&b, n, 0)
	return b.String()
}

func renderNode(b *strings.Builder, n *Span, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s (%s)", n.Name, (time.Duration(n.DurationUS) * time.Microsecond).String())
	for _, k := range sortedKeys(n.Labels) {
		fmt.Fprintf(b, " %s=%s", k, n.Labels[k])
	}
	for _, k := range sortedKeys(n.Attrs) {
		fmt.Fprintf(b, " %s=%d", k, n.Attrs[k])
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}
