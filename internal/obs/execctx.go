package obs

// ExecCtx is the per-query execution context threaded explicitly through
// the read path (assembly planning/execution, range aggregation, store
// reads). It carries everything a single query execution is allowed to
// write to — today the query's trace and the span new work should nest
// under — so the engines themselves hold only immutable planning state and
// any number of queries can execute concurrently without sharing mutable
// per-query fields.
//
// A nil *ExecCtx is valid and means "untraced": Start returns a nil span
// and every span method no-ops, so instrumented code calls unconditionally.
// Shared instruments (metrics counters, histograms) are deliberately NOT
// part of the context: they are lock-free atomics attached to each engine
// once at wiring time and are safe to hit from any goroutine.
type ExecCtx struct {
	// Trace collects this query's span tree; nil when the query is
	// untraced.
	Trace *Trace

	// span is the parent new spans attach under; nil means the trace
	// root. Derived contexts (Under) set it so nested work — possibly on
	// other goroutines — lands under the span that spawned it.
	span *Span
}

// Traced returns an execution context recording into t. A nil t yields a
// context whose spans are all no-ops.
func Traced(t *Trace) *ExecCtx { return &ExecCtx{Trace: t} }

// Start opens a span on the context's trace, nested under the context's
// current span (or the trace root). Safe on a nil receiver (and on a
// context with a nil trace): it returns a nil span.
func (x *ExecCtx) Start(name string) *Span {
	if x == nil {
		return nil
	}
	if x.span != nil {
		return x.span.Start(name)
	}
	return x.Trace.Start(name)
}

// Under derives a context whose spans nest beneath sp. Pass the derived
// context into sub-work — including work forked onto other goroutines; span
// attachment is concurrency-safe — so the trace tree mirrors the call tree.
// Deriving from a nil context, a context without a trace, or under a nil
// span (e.g. one dropped over the span cap) returns x unchanged.
func (x *ExecCtx) Under(sp *Span) *ExecCtx {
	if x == nil || x.Trace == nil || sp == nil {
		return x
	}
	return &ExecCtx{Trace: x.Trace, span: sp}
}

// Tracing reports whether the context carries a live trace. Safe on a nil
// receiver. Spans attach atomically under the trace mutex, so traced reads
// fan out exactly like untraced ones.
func (x *ExecCtx) Tracing() bool { return x != nil && x.Trace != nil }
