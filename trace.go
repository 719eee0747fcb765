package viewcube

import (
	"encoding/json"

	"viewcube/internal/obs"
)

// QueryTrace is the recorded execution of one traced query: a tree of timed
// spans (plan lookup, per-element assembly steps, store reads with cache
// outcomes, range aggregation) annotated with cell and operation counts. It
// renders as an EXPLAIN ANALYZE-style tree via String, and marshals to JSON
// as the span tree ({name, duration_us, attrs, children}).
type QueryTrace struct {
	t *obs.Trace
}

// String renders the trace as an indented span tree.
func (qt *QueryTrace) String() string {
	if qt == nil {
		return ""
	}
	return qt.t.String()
}

// TraceID renders the trace's process-unique identifier the way the query
// log exposes it.
func (qt *QueryTrace) TraceID() string {
	if qt == nil {
		return ""
	}
	return obs.FormatTraceID(qt.t.ID())
}

// SetLabel stamps a string annotation (cube or view identity, typically)
// onto the trace's root span. Labels render in String, marshal under
// "labels" in the JSON tree and ride into the query log with sampled
// traces. Safe on nil.
func (qt *QueryTrace) SetLabel(key, val string) { qt.Tree().SetLabel(key, val) }

// Tree returns the recorded span tree: its root span, under which the read
// ran. Safe on nil.
func (qt *QueryTrace) Tree() *obs.Span {
	if qt == nil {
		return nil
	}
	return qt.t.Tree()
}

// MarshalJSON encodes the span tree.
func (qt *QueryTrace) MarshalJSON() ([]byte, error) { return json.Marshal(qt.Tree()) }

// Ops totals the modelled add/subtract operations recorded across the span
// tree. For a traced view-element query it equals the plan cost reported by
// Explain for the same materialised set.
func (qt *QueryTrace) Ops() int64 { return qt.Tree().SumAttr("ops") }

// CellsRead totals the stored-element cells fetched during execution.
func (qt *QueryTrace) CellsRead() int64 { return qt.Tree().SumAttr("cells") }

// CacheHitTrace builds the minimal trace of a query answered from the
// serving tier's result cache: one already-finished root span labelled
// result_cache=hit, with no ops, cells or plan spans — the logged cost of a
// hit is genuinely zero work. Serving layers return it when an explicitly
// traced (or sampled) query is satisfied without executing.
func CacheHitTrace(name string) *QueryTrace {
	t := obs.NewTrace(name)
	t.Root().SetLabel("result_cache", "hit")
	t.Finish()
	return &QueryTrace{t: t}
}
