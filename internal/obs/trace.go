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

// maxSpans is the historical internal name.
const maxSpans = MaxSpans

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

// Attr is one integer annotation on a span (cells read, modelled ops, cache
// hit flags, ...). Integer-only attrs keep spans allocation-light on the hot
// path.
type Attr struct {
	Key string
	Val int64
}

// Label is one string annotation on a span — identity rather than cost
// (cube name, view name). Labels are kept apart from the integer Attrs so
// the hot-path attr slice stays allocation-light and the wire codec (which
// carries Attrs only) is unchanged; labels are a serving-tier annotation
// stamped onto locally owned traces.
type Label struct {
	Key, Val string
}

// Span is one timed region of a trace. Spans form an explicit tree: each
// span carries its parent and a trace-scoped ID, and children attach under
// the trace mutex — so any number of goroutines may open children of the
// same parent concurrently (there is no implicit "current span" stack).
// All methods are safe on a nil receiver so untraced executions cost only
// nil checks.
type Span struct {
	t      *Trace
	id     uint64
	parent *Span
	name   string
	start  time.Time

	// Guarded by t.mu.
	dur      time.Duration
	ended    bool
	attrs    []Attr
	labels   []Label
	children []*Span
}

// ID returns the span's trace-scoped identifier (the root span is 1).
// Safe on nil (returns 0).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// ParentID returns the parent span's ID, or 0 for the root. Safe on nil.
func (s *Span) ParentID() uint64 {
	if s == nil || s.parent == nil {
		return 0
	}
	return s.parent.id
}

// Name returns the span name. Safe on nil.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start opens a child span under s. Concurrency-safe: sibling children may
// be opened from different goroutines (child order then reflects attach
// order). Safe on a nil receiver (returns nil).
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.startChild(s, name)
}

// SetAttr sets (or replaces) an integer annotation. Safe on nil.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// SetLabel sets (or replaces) a string annotation. Safe on nil.
func (s *Span) SetLabel(key, val string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.labels {
		if s.labels[i].Key == key {
			s.labels[i].Val = val
			return
		}
	}
	s.labels = append(s.labels, Label{Key: key, Val: val})
}

// AddAttr accumulates into an integer annotation. Safe on nil.
func (s *Span) AddAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val += v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// End closes the span, recording its duration. Ending twice keeps the first
// duration. Unlike the old stack model there is no ordering requirement:
// sibling spans may end in any order, from any goroutine. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = d
	}
	s.t.mu.Unlock()
}

// Graft attaches an already-finished span subtree (e.g. one decoded from a
// shard response) under s. Durations and attributes are taken verbatim; the
// grafted spans count toward the trace's span cap, and anything over the cap
// is dropped (and counted). Safe on nil receivers and a nil node.
func (s *Span) Graft(n *SpanNode) {
	if s == nil || n == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.graftLocked(s, n)
}

// Trace records the timed span tree of one query execution. A nil *Trace is
// a valid no-op tracer: Start returns nil and every span method no-ops, so
// instrumented code calls unconditionally.
//
// Traces are safe for concurrent use: spans carry explicit parents, child
// attachment is atomic under the trace mutex, and sibling spans may be
// recorded from any number of goroutines — a traced query keeps its full
// scatter parallelism.
type Trace struct {
	id uint64

	mu      sync.Mutex
	root    *Span
	nextID  uint64
	spans   int
	dropped int
}

// NewTrace starts a trace whose root span has the given name and assigns it
// a fresh process-unique trace ID.
func NewTrace(name string) *Trace {
	t := &Trace{id: NewTraceID(), nextID: 1, spans: 1}
	t.root = &Span{t: t, id: 1, name: name, start: time.Now()}
	return t
}

// ID returns the trace's process-unique identifier. Safe on nil (returns 0).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// startChild attaches a new child span under parent.
func (t *Trace) startChild(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	start := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans >= maxSpans {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{t: t, id: t.nextID, parent: parent, name: name, start: start}
	parent.children = append(parent.children, s)
	t.spans++
	return s
}

// Start opens a child span directly under the root. Code that nests deeper
// derives children from the returned span (Span.Start) or threads an
// ExecCtx. Safe on a nil receiver (returns a nil span).
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.startChild(t.root, name)
}

// graftLocked converts a SpanNode subtree into spans under parent. Caller
// holds t.mu.
func (t *Trace) graftLocked(parent *Span, n *SpanNode) {
	if t.spans >= maxSpans {
		t.dropped += n.count()
		return
	}
	t.nextID++
	s := &Span{
		t:      t,
		id:     t.nextID,
		parent: parent,
		name:   n.Name,
		dur:    time.Duration(n.DurationUS) * time.Microsecond,
		ended:  true,
	}
	if len(n.Attrs) > 0 {
		s.attrs = make([]Attr, 0, len(n.Attrs))
		for _, k := range sortedAttrKeys(n.Attrs) {
			s.attrs = append(s.attrs, Attr{Key: k, Val: n.Attrs[k]})
		}
	}
	if len(n.Labels) > 0 {
		s.labels = make([]Label, 0, len(n.Labels))
		for _, k := range sortedLabelKeys(n.Labels) {
			s.labels = append(s.labels, Label{Key: k, Val: n.Labels[k]})
		}
	}
	parent.children = append(parent.children, s)
	t.spans++
	for _, c := range n.Children {
		t.graftLocked(s, c)
	}
}

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
		if !s.ended {
			s.ended = true
			s.dur = now.Sub(s.start)
		}
		for _, c := range s.children {
			close(c)
		}
	}
	close(t.root)
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

// Root returns the root span, or nil for a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SpanNode is the JSON-able shape of one span; Tree converts a trace into
// it for API responses, and the cluster wire protocol carries shard-side
// subtrees in exactly this shape.
type SpanNode struct {
	Name       string           `json:"name"`
	DurationUS int64            `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	// Labels are string annotations (cube, view). They ride in API
	// responses and the query log but not the binary wire protocol, whose
	// span payload is pinned by codec goldens; shard-side subtrees carry
	// cost attrs only and identity labels are stamped by the serving tier.
	Labels   map[string]string `json:"labels,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// Label returns the named string annotation on the node or, failing that,
// the first occurrence in its subtree (pre-order); "" when absent. Safe on
// nil.
func (n *SpanNode) Label(key string) string {
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
func (n *SpanNode) count() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.count()
	}
	return total
}

// Tree renders the trace as a SpanNode tree. Safe on nil (returns nil).
func (t *Trace) Tree() *SpanNode {
	if t == nil || t.root == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return toNode(t.root)
}

func toNode(s *Span) *SpanNode {
	n := &SpanNode{Name: s.name, DurationUS: s.dur.Microseconds()}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.Key] = a.Val
		}
	}
	if len(s.labels) > 0 {
		n.Labels = make(map[string]string, len(s.labels))
		for _, l := range s.labels {
			n.Labels[l.Key] = l.Val
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, toNode(c))
	}
	return n
}

// SumAttr totals the named attribute over the node and its subtree. Safe on
// nil.
func (n *SpanNode) SumAttr(key string) int64 {
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
func (n *SpanNode) MaxAttr(key string) int64 {
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
func (n *SpanNode) Find(prefix string) *SpanNode {
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

// String renders the trace as an EXPLAIN ANALYZE-style indented tree. Safe
// on nil.
func (t *Trace) String() string {
	if t == nil || t.root == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	renderSpan(&b, t.root, 0)
	if t.dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped over the %d-span cap)\n", t.dropped, maxSpans)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s (%s)", s.name, s.dur.Round(time.Microsecond))
	for _, l := range s.labels {
		fmt.Fprintf(b, " %s=%s", l.Key, l.Val)
	}
	for _, a := range s.attrs {
		fmt.Fprintf(b, " %s=%d", a.Key, a.Val)
	}
	b.WriteByte('\n')
	for _, c := range s.children {
		renderSpan(b, c, depth+1)
	}
}

// sortedAttrKeys returns a node's attr keys in sorted order, for stable
// rendering and canonical wire encoding.
func sortedAttrKeys(attrs map[string]int64) []string {
	if len(attrs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedLabelKeys returns a node's label keys in sorted order for stable
// rendering.
func sortedLabelKeys(labels map[string]string) []string {
	if len(labels) == 0 {
		return nil
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RenderNode renders a SpanNode tree in the same indented style String
// uses, for clients that receive trees rather than live traces (cubectl
// trace). Safe on nil (returns "").
func RenderNode(n *SpanNode) string {
	var b strings.Builder
	renderNode(&b, n, 0)
	return b.String()
}

func renderNode(b *strings.Builder, n *SpanNode, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s (%s)", n.Name, (time.Duration(n.DurationUS) * time.Microsecond).String())
	for _, k := range sortedLabelKeys(n.Labels) {
		fmt.Fprintf(b, " %s=%s", k, n.Labels[k])
	}
	for _, k := range sortedAttrKeys(n.Attrs) {
		fmt.Fprintf(b, " %s=%d", k, n.Attrs[k])
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}
