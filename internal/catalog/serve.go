package catalog

import (
	"bytes"
	"sort"
	"strings"

	"viewcube"
	"viewcube/internal/rescache"
)

// This file is the catalog's cached read path: Lease.ServeGroupBy /
// ServeRangeSum / ServeQuery answer through the entry's result cache when
// the registry has one enabled (EnableResultCache), falling back to the
// handle directly otherwise. The HTTP server's handlers route every read
// through these methods, so all of them share one caching discipline.
//
// Keys are formed from the *resolved* query shape (after view aliases
// rewrite to underlying dimension names), so every view over a cube shares
// one entry per underlying query. What an entry holds is the response body
// itself — the engine's columnar Result encoded once, on the miss — so a
// hit is the cached bytes written out; the only per-view part of a response
// (a SQL answer's aliased column names) is spliced around them by the
// caller, which never mutates the cached value.
//
// A body is encoded into the lease's Scratch, and the Result it was encoded
// from is released as the read returns: nothing but the bytes outlives it, so
// the assembled view goes back to the scratch pool. With no cache the answer's
// Body is that buffer — valid until the next Serve* call on the lease, or until the
// buffer's owner reuses it; with one, the miss copies it once and the entry,
// the caller and every coalesced waiter hold the copy.
//
// Invalidation is two-tier, under the one epoch contract of rescache: the
// registry's lifecycle operations (Load/Unload/Rebuild, and catalog
// hot-reload on top of them) invalidate explicitly on generation changes,
// and every read first syncs the cache against the handle's data version —
// which Update/Optimize/Reconfigure and ingest publishes already move — so
// in-generation mutations invalidate without the write path knowing this
// cache exists.

// Answer is the result of one read, in the one form it is served in. A
// group-by's Body is its whole JSON response ({"ale":17,...} and the
// encoder's trailing newline); a SQL answer's Body is the JSON value of
// "rows", with Columns (underlying names — the caller aliases them per view)
// and Agg (the query-log label) beside it; a range's answer is Sum. Cached
// answers are shared across callers and must be treated as read-only.
type Answer struct {
	Body    []byte
	Columns []string
	Agg     string
	Sum     float64
}

// answerCache instantiates the generic cache at the catalog's answer type.
type answerCache = rescache.Cache[string, Answer]

// newAnswerCache builds an entry's cache: the caller's bounds, with an answer
// sized by what is resident — its body (an exact copy, see serve), plus the
// struct and its column names.
func newAnswerCache(opt rescache.Options) *answerCache {
	opt.Size = func(v any) int {
		a := v.(Answer)
		n := 64 + len(a.Body)
		for _, c := range a.Columns {
			n += len(c) + 16
		}
		return n
	}
	return rescache.New[string, Answer](opt)
}

// groupByKey is the canonical cache key of a resolved group-by.
func groupByKey(resolved []string) string {
	return "groupby\x00" + strings.Join(resolved, ",")
}

// rangeKey renders resolved ranges canonically (dimensions sorted).
func rangeKey(resolved map[string]viewcube.ValueRange) string {
	dims := make([]string, 0, len(resolved))
	for dim := range resolved {
		dims = append(dims, dim)
	}
	sort.Strings(dims)
	var b strings.Builder
	b.WriteString("range")
	for _, dim := range dims {
		r := resolved[dim]
		b.WriteByte(0)
		b.WriteString(dim)
		b.WriteByte(0)
		b.WriteString(r.Lo)
		b.WriteByte(0)
		b.WriteString(r.Hi)
	}
	return b.String()
}

// sync aligns the cache's epoch with the handle's data version, which every
// in-generation mutation moves — locked update, optimize, reconfigure,
// published ingest merge — so answers invalidate without the write path
// knowing this cache exists. Reading it takes no engine lock, so a hit never
// waits out a merge.
func (l *Lease) sync() { l.cache.SyncUpstream(l.Handle.DataVersion()) }

// Cached reports whether this lease serves through a result cache.
func (l *Lease) Cached() bool { return l.cache != nil }

// ResultCacheStats snapshots the entry's result-cache counters (zero value
// when no cache is enabled).
func (l *Lease) ResultCacheStats() rescache.Stats { return l.cache.Stats() }

// serve is the one cached-or-direct read behind ServeGroupBy, ServeRangeSum
// and ServeQuery. With no cache it is read() and a nil hit. Otherwise it
// syncs the cache, answers key() from it — running read at most once, on a
// computing miss — and, for a traced query, labels the trace: the one place
// result-cache trace labelling lives. key and name (the root-span name of a
// hit's zero-op trace) are built only on the paths that use them.
func (l *Lease) serve(traced bool, key, name func() string, read func() (Answer, *viewcube.QueryTrace, error)) (Answer, *viewcube.QueryTrace, *bool, error) {
	if l.cache == nil {
		ans, tr, err := read()
		return ans, tr, nil, err
	}
	l.sync()
	var tr *viewcube.QueryTrace
	ans, hit, err := l.cache.GetOrCompute(key(), func() (Answer, error) {
		ans, t, err := read()
		tr = t // captured out-of-band: traces are per-request, never cached
		// The entry and every coalesced waiter outlive the caller's scratch.
		ans.Body = bytes.Clone(ans.Body)
		return ans, err
	})
	if err != nil {
		return Answer{}, nil, &hit, err
	}
	if traced {
		if hit || tr == nil {
			// Served from cache, or coalesced onto another caller's flight
			// (whose trace belongs to that caller): the zero-op hit trace.
			tr = viewcube.CacheHitTrace(name())
		} else {
			tr.SetLabel("result_cache", "miss")
		}
	}
	return ans, tr, &hit, nil
}

// ServeGroupBy answers a group-by over the resolved (underlying-name) keep
// list through the result cache. hit is nil when no cache is enabled,
// otherwise whether the underlying query was skipped. When traced, the
// returned trace is the real execution tree on a computing miss (labelled
// result_cache=miss), or a zero-op CacheHitTrace on a hit or coalesced
// wait. The answer's Body is read-only: shared with the cache, or — with no
// cache — the lease's Scratch itself, which the next Serve* call overwrites.
func (l *Lease) ServeGroupBy(traced bool, resolved ...string) (Answer, *viewcube.QueryTrace, *bool, error) {
	return l.serve(traced,
		func() string { return groupByKey(resolved) },
		func() string { return "groupby " + strings.Join(resolved, ",") },
		func() (Answer, *viewcube.QueryTrace, error) {
			res, tr, err := l.Handle.GroupBy(traced, resolved...)
			if err != nil {
				return Answer{}, nil, err
			}
			defer res.Release()
			body, err := res.AppendGroupsJSON(l.Scratch[:0])
			if err != nil {
				return Answer{}, tr, err
			}
			l.Scratch = append(body, '\n')
			return Answer{Body: l.Scratch}, tr, nil
		})
}

// ServeRangeSum answers a range-SUM over resolved ranges through the result
// cache; semantics as ServeGroupBy.
func (l *Lease) ServeRangeSum(traced bool, resolved map[string]viewcube.ValueRange) (float64, *viewcube.QueryTrace, *bool, error) {
	ans, tr, hit, err := l.serve(traced,
		func() string { return rangeKey(resolved) },
		func() string { return "range" },
		func() (Answer, *viewcube.QueryTrace, error) {
			sum, tr, err := l.Handle.RangeSum(traced, resolved)
			return Answer{Sum: sum}, tr, err
		})
	return ans.Sum, tr, hit, err
}

// ServeQuery answers a rewritten (underlying-name) SQL statement through
// the result cache; semantics as ServeGroupBy.
func (l *Lease) ServeQuery(traced bool, sql string) (Answer, *viewcube.QueryTrace, *bool, error) {
	return l.serve(traced,
		func() string { return "query\x00" + sql },
		func() string { return "query" },
		func() (Answer, *viewcube.QueryTrace, error) {
			res, tr, err := l.Handle.Query(traced, sql)
			if err != nil {
				return Answer{}, nil, err
			}
			defer res.Release()
			body, err := res.AppendRowsJSON(l.Scratch[:0])
			if err != nil {
				return Answer{}, tr, err
			}
			l.Scratch = body
			return Answer{Body: body, Columns: res.Columns(), Agg: res.AggLabel()}, tr, nil
		})
}
