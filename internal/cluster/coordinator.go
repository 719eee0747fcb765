package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"viewcube"
	"viewcube/internal/obs"
	"viewcube/internal/rescache"
)

// ErrOverloaded is returned when admission control sheds a query: every
// in-flight slot stayed busy for the whole queue wait. Callers should back
// off; the HTTP face maps it to 429.
var ErrOverloaded = errors.New("cluster: overloaded")

// ErrUnavailable is returned when no shard at all answered — the whole
// tier is unreachable, not just degraded. The HTTP face maps it to 503.
var ErrUnavailable = errors.New("cluster: unavailable")

// Shard is one member of the serving tier: a name (stable across restarts,
// used in errors, metrics and PartialResult), a transport to reach it, and
// optionally more transports to replicas holding the same partition.
// Requests balance across the copies by least-outstanding count, and the
// retry and hedge paths deliberately go to a *different* copy than the one
// that is slow or failing, so a speculative duplicate races a real second
// machine instead of re-queueing behind the same straggler.
type Shard struct {
	Name     string
	Client   ShardClient
	Replicas []ShardClient
}

// Options tunes the coordinator's failure handling.
type Options struct {
	// Timeout bounds each attempt at each shard. 0 defaults to 2s.
	Timeout time.Duration
	// Retries is how many times a failed shard call is re-sent after the
	// first attempt. Negative disables retries; 0 defaults to 2.
	Retries int
	// Backoff is the base of the exponential retry backoff (doubled per
	// attempt, ±50% jitter). 0 defaults to 10ms.
	Backoff time.Duration
	// MaxBackoff caps one backoff sleep. 0 defaults to 1s.
	MaxBackoff time.Duration
	// HedgeQuantile, in (0,1), launches a speculative duplicate request
	// when an attempt outlives that quantile of the shard's recent
	// latencies (the tail-at-scale defence: the duplicate races the
	// straggler and the first answer wins — correct here because shard
	// reads are idempotent). 0 disables hedging.
	HedgeQuantile float64
	// HedgeAfter is the static hedge delay used until a shard has enough
	// latency samples for the quantile. 0 means no hedging until then.
	HedgeAfter time.Duration
	// HedgeMin floors the adaptive hedge delay so a burst of fast
	// responses cannot make the coordinator hedge everything. 0 defaults
	// to 1ms.
	HedgeMin time.Duration
	// Metrics receives the viewcube_cluster_* instruments. nil gives the
	// coordinator a private registry, reachable via Registry.
	Metrics *viewcube.Metrics
	// Seed seeds the jitter source; 0 uses a fixed default, which is fine
	// because jitter only decorrelates retry storms.
	Seed int64
	// TraceSampleRate turns on always-on sampled tracing: approximately
	// this fraction of queries (deterministically, every Nth) runs with a
	// full distributed trace, recorded into the query log. 0 disables
	// sampling; a query asked for with traced always traces.
	TraceSampleRate float64
	// QueryLog, when non-nil, receives one entry per coordinator query
	// (shape, duration, per-shard costs, trace ID when sampled).
	QueryLog *obs.QueryLog
	// MaxInFlight bounds concurrently admitted queries; queries beyond the
	// bound queue for up to QueueTimeout and are then shed with
	// ErrOverloaded. 0 disables admission control.
	MaxInFlight int
	// QueueTimeout bounds how long an over-limit query waits for a slot
	// before being shed. 0 defaults to 100ms.
	QueueTimeout time.Duration
	// Cache, when non-nil, enables the coordinator result cache: complete
	// merged answers are cached under the epoch-invalidation discipline of
	// internal/rescache and identical concurrent queries coalesce onto one
	// scatter. The Size field is ignored (the coordinator installs its own
	// answer sizer). Degraded partial answers are never stored, and traced
	// queries bypass the cache. Invalidation is twofold: explicit via
	// InvalidateResults (reshards, reloads), and automatic via the epoch
	// piggyback — every complete answer carries each shard's data version,
	// and a change in the sum invalidates cached answers on the next query.
	Cache *rescache.Options
}

// PartialResult names the shards that contributed nothing to a degraded
// answer. A nil PartialResult means the answer is exact.
type PartialResult struct {
	// Missing lists unreachable shard names in shard order.
	Missing []string `json:"missing"`
	// Errs records the final error per missing shard.
	Errs map[string]string `json:"errors,omitempty"`
}

// Complete reports whether every shard contributed.
func (p *PartialResult) Complete() bool { return p == nil || len(p.Missing) == 0 }

// Coordinator answers group-by, total and range-sum queries by scattering
// them across shard clients and combining the partial aggregates exactly
// (SUM is distributive, so per-key addition in fixed shard order reproduces
// the single-machine answer bit for bit). Failure handling per shard: a
// deadline per attempt, bounded retries with jittered exponential backoff,
// and optional hedged requests once an attempt outlives the shard's recent
// latency quantile. Its two read seams, GroupByResult and SumResult, take
// allowPartial (degrade instead of failing) and traced as arguments; without
// allowPartial an answer is exact or it fails.
//
// A Coordinator is safe for concurrent use.
type Coordinator struct {
	shards  []Shard
	reps    []*replicaSet
	opts    Options
	met     *obs.ClusterMetrics
	reg     *obs.Registry
	lat     []*latRing
	sampler *obs.Sampler
	qlog    *obs.QueryLog
	lim     *limiter
	cache   *rescache.Cache[string, cachedAnswer]

	rmu sync.Mutex
	rng *rand.Rand
}

// NewCoordinator builds a coordinator over the given shards. Shard names
// must be unique and non-empty.
func NewCoordinator(shards []Shard, opts Options) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s.Name == "" {
			return nil, fmt.Errorf("cluster: shard with empty name")
		}
		if s.Client == nil {
			return nil, fmt.Errorf("cluster: shard %s has no client", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		for i, r := range s.Replicas {
			if r == nil {
				return nil, fmt.Errorf("cluster: shard %s replica %d has no client", s.Name, i)
			}
		}
	}
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff == 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = time.Second
	}
	if opts.HedgeMin == 0 {
		opts.HedgeMin = time.Millisecond
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	var reg *obs.Registry
	if opts.Metrics != nil {
		reg = opts.Metrics.Registry()
	} else {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		shards:  shards,
		reps:    make([]*replicaSet, len(shards)),
		opts:    opts,
		met:     obs.NewClusterMetrics(reg),
		reg:     reg,
		lat:     make([]*latRing, len(shards)),
		sampler: obs.NewSampler(opts.TraceSampleRate),
		qlog:    opts.QueryLog,
		lim:     newLimiter(opts.MaxInFlight, opts.QueueTimeout, obs.NewAdmissionMetrics(reg)),
		rng:     rand.New(rand.NewSource(seed)),
	}
	for i := range c.lat {
		c.lat[i] = &latRing{}
	}
	for i := range shards {
		c.reps[i] = newReplicaSet(shards[i])
	}
	if opts.Cache != nil {
		copt := *opts.Cache
		copt.Size = answerSize
		c.cache = rescache.New[string, cachedAnswer](copt)
		c.cache.SetMetrics(obs.NewCacheMetrics(reg, obs.ResultCachePrefix))
	}
	c.met.ShardsKnown.Set(int64(len(shards)))
	return c, nil
}

// Registry exposes the coordinator's instrument registry (for a /metrics
// surface).
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// ShardNames lists the configured shards in shard order.
func (c *Coordinator) ShardNames() []string {
	names := make([]string, len(c.shards))
	for i, s := range c.shards {
		names[i] = s.Name
	}
	return names
}

// Close closes every shard client, replicas included.
func (c *Coordinator) Close() error {
	var first error
	for _, rs := range c.reps {
		if err := rs.closeAll(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Cached reports whether the coordinator result cache is enabled.
func (c *Coordinator) Cached() bool { return c.cache != nil }

// InvalidateResults drops every cached merged answer and bumps the cache
// epoch, so answers computed before the call can never be served after it.
// Call it after mutating the shard tier (updates, reloads, reshards).
// Returns the new epoch; no-op (returning 0) without a cache.
func (c *Coordinator) InvalidateResults() uint64 { return c.cache.Invalidate() }

// ResultCacheStats snapshots the coordinator result cache counters (zero
// without a cache).
func (c *Coordinator) ResultCacheStats() rescache.Stats { return c.cache.Stats() }

// GroupByResult merges per-shard GROUP BY partials into one columnar Result
// — the form the HTTP face encodes and the result cache holds. Without
// allowPartial it fails if any shard is unreachable after retries; with it,
// shards still unreachable are dropped from the merge and named in the
// PartialResult, and the error is non-nil only for query errors or when no
// shard at all answered. traced runs the query under a full distributed
// trace (which bypasses the cache): the scatter fans out concurrently (span
// attachment is concurrency-safe), every leg records its retries, hedging
// and group count on a "shard <name>" span, and each shard's own span
// subtree — plan-cache hits, Haar ops, store reads — is stitched underneath
// it, so the tree prices the whole cluster query.
func (c *Coordinator) GroupByResult(ctx context.Context, allowPartial, traced bool, keep ...string) (*viewcube.Result, *PartialResult, *obs.Trace, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace("cluster groupby " + strings.Join(keep, ","))
		defer tr.Finish()
	}
	a, err := c.answer(ctx, allowPartial, tr, &Request{Kind: KindGroupBy, Keep: keep})
	return a.res, a.part, tr, err
}

// SumResult is GroupByResult's counterpart for the sum kinds: the total
// when ranges is nil, a range sum (lexicographic bounds — see
// Engine.RangeSumWithin) otherwise. allowPartial and traced mean what they
// mean there.
func (c *Coordinator) SumResult(ctx context.Context, allowPartial, traced bool, ranges map[string]viewcube.ValueRange) (float64, *PartialResult, *obs.Trace, error) {
	req := &Request{Kind: KindTotal}
	if ranges != nil {
		req = rangeRequest(ranges)
	}
	var tr *obs.Trace
	if traced {
		name := "cluster total"
		if ranges != nil {
			name = "cluster range " + requestShape(req)
		}
		tr = obs.NewTrace(name)
		defer tr.Finish()
	}
	a, err := c.answer(ctx, allowPartial, tr, req)
	return a.sum, a.part, tr, err
}

// GroupBy is the exact-mode GroupByResult in map form, keyed by joined
// group key.
func (c *Coordinator) GroupBy(keep ...string) (map[string]float64, error) {
	res, _, _, err := c.GroupByResult(context.Background(), false, false, keep...)
	if err != nil {
		return nil, err
	}
	return res.Groups()
}

// RangeSum is the exact-mode, untraced SumResult over ranges. A nil map is
// a range sum over no ranges, as it always was here, not SumResult's total.
func (c *Coordinator) RangeSum(ranges map[string]viewcube.ValueRange) (float64, error) {
	if ranges == nil {
		ranges = map[string]viewcube.ValueRange{}
	}
	t, _, _, err := c.SumResult(context.Background(), false, false, ranges)
	return t, err
}

// --- scatter-gather core ---

func rangeRequest(ranges map[string]viewcube.ValueRange) *Request {
	req := &Request{Kind: KindRangeSum}
	for dim, vr := range ranges {
		req.Ranges = append(req.Ranges, DimRange{Dim: dim, Lo: vr.Lo, Hi: vr.Hi})
	}
	// Sorted ranges give a canonical encoding, so identical queries put
	// identical bytes on the wire.
	sort.Slice(req.Ranges, func(i, j int) bool { return req.Ranges[i].Dim < req.Ranges[j].Dim })
	return req
}

// answer serves req from the result cache when there is one and the query is
// untraced, and by a scatter of its own otherwise.
func (c *Coordinator) answer(ctx context.Context, allowPartial bool, tr *obs.Trace, req *Request) (cachedAnswer, error) {
	if c.cache != nil && tr == nil {
		return c.cached(ctx, allowPartial, req)
	}
	return c.scatterMerge(ctx, allowPartial, tr, req, nil)
}

// scatterMerge is one scatter and the merge of what came back.
func (c *Coordinator) scatterMerge(ctx context.Context, allowPartial bool, tr *obs.Trace, req *Request, rcHit *bool) (cachedAnswer, error) {
	resps, part, err := c.scatter(ctx, allowPartial, tr, req, rcHit)
	if err != nil {
		return cachedAnswer{}, err
	}
	return mergeAnswer(req.Kind, resps, part)
}

// --- coordinator result cache ---

// cachedAnswer is one fully merged answer: a group-by's columnar Result
// (immutable, so every caller that hits it encodes from the same one) or a
// sum.
type cachedAnswer struct {
	res  *viewcube.Result
	sum  float64
	part *PartialResult // non-nil answers are degraded and never stored
}

// answerSize estimates a merged answer's footprint for the cache's byte
// bound, and marks degraded answers uncacheable (negative size): a partial
// answer served from cache would hide shard recovery.
func answerSize(v any) int {
	a := v.(cachedAnswer)
	if a.part != nil {
		return -1
	}
	n := 64
	if a.res != nil {
		// Eight bytes a group plus the dictionaries, where the map this
		// replaced cost a key string and sixteen bytes a group.
		n += a.res.Size()
	}
	return n
}

// cacheKey is the normalized query identity: the kind plus the canonical
// request shape (sorted ranges, the kept-dimension list), split on the
// partial-mode flag so an exact-mode caller can never coalesce onto a
// flight that is allowed to return a degraded answer.
func cacheKey(req *Request, allowPartial bool) string {
	mode := "exact"
	if allowPartial {
		mode = "partial"
	}
	return req.Kind.String() + "\x00" + mode + "\x00" + requestShape(req)
}

// cached serves req through the result cache: a hit returns the stored
// merged answer without touching the shard tier — and without holding an
// admission slot, which is what lets a saturated coordinator keep
// absorbing repeat traffic. A miss scatters once; identical concurrent
// queries coalesce onto that single flight (singleflight). Only complete
// answers are stored: a degraded answer reaches its caller and any
// coalesced waiters but the next query re-tries the dead shards.
func (c *Coordinator) cached(ctx context.Context, allowPartial bool, req *Request) (cachedAnswer, error) {
	start := time.Now()
	a, hit, err := c.cache.GetOrCompute(cacheKey(req, allowPartial), func() (cachedAnswer, error) {
		return c.scatterMerge(ctx, allowPartial, nil, req, boolPtr(false))
	})
	if err == nil && hit {
		// The miss path logged and metered inside scatter; a hit still
		// counts as a query and still feeds the latency histogram and the
		// query log — with no shard legs, because no shard was asked.
		dur := time.Since(start)
		c.met.Queries.Inc()
		c.met.ObserveQuery(req.Kind.String(), dur.Seconds())
		c.logCacheHit(req, dur)
	}
	return a, err
}

// mergeAnswer folds per-shard responses into one answer in fixed shard
// order (the distributivity merge that reproduces the single-machine
// result bit for bit): viewcube.MergeResults for a group-by — index addition
// when the shards' dictionaries agree — and plain addition for a sum.
func mergeAnswer(kind Kind, resps []*Response, part *PartialResult) (cachedAnswer, error) {
	a := cachedAnswer{part: part}
	if kind == KindGroupBy {
		parts := make([]*viewcube.Result, len(resps))
		for i, r := range resps {
			if r != nil {
				parts[i] = r.Result
			}
		}
		var err error
		a.res, err = viewcube.MergeResults(parts)
		return a, err
	}
	for _, r := range resps {
		if r != nil {
			a.sum += r.Sum
		}
	}
	return a, nil
}

// logCacheHit records a result-cache hit into the query log: same shape
// fields as a scattered query, ResultCacheHit true, zero ops and no shard
// legs — by construction a hit costs one map lookup.
func (c *Coordinator) logCacheHit(req *Request, dur time.Duration) {
	if c.qlog == nil {
		return
	}
	c.qlog.Record(obs.QueryEntry{
		Kind:           req.Kind.String(),
		Shape:          requestShape(req),
		DurationUS:     dur.Microseconds(),
		ResultCacheHit: boolPtr(true),
	})
}

func boolPtr(b bool) *bool { return &b }

// outcome is one shard's final state after retries and hedging.
type outcome struct {
	resp    *Response
	err     error
	fatal   bool // a shard-side query error: deterministic, never degraded away
	retries int
	hedged  bool
	dur     time.Duration
}

// requestShape renders a request's query shape for trace names and the
// query log: the kept dimensions of a group-by, the ranges of a range-sum.
func requestShape(req *Request) string {
	switch req.Kind {
	case KindGroupBy:
		return strings.Join(req.Keep, ",")
	case KindRangeSum:
		parts := make([]string, len(req.Ranges))
		for i, vr := range req.Ranges {
			parts[i] = fmt.Sprintf("%s=[%s,%s]", vr.Dim, vr.Lo, vr.Hi)
		}
		return strings.Join(parts, " ")
	}
	return ""
}

// scatter fans req out to every shard and gathers outcomes in shard order
// (the fixed merge order that makes the combined answer bit-identical to
// a serial fan-out in shard order). Traced or not, the legs run concurrently;
// with a trace, per-shard spans are opened in shard order before the
// fan-out (deterministic child order) and each shard's returned span
// subtree is grafted under its leg. resps[i] is nil for a missing shard;
// part is non-nil iff the answer is degraded. Every query — explicit
// trace, sampled, or plain — feeds the query-latency histogram and the
// query log.
func (c *Coordinator) scatter(ctx context.Context, allowPartial bool, tr *obs.Trace, req *Request, rcHit *bool) ([]*Response, *PartialResult, error) {
	c.met.Queries.Inc()
	start := time.Now()
	if err := c.lim.acquire(ctx); err != nil {
		// Shed before any fan-out: the fast 429 is the backpressure signal.
		c.logQuery(req, nil, false, nil, nil, err, time.Since(start), rcHit)
		return nil, nil, err
	}
	defer c.lim.release()
	sampled := false
	if tr == nil && c.sampler.Sample() {
		tr = obs.NewTrace("cluster " + req.Kind.String() + " " + requestShape(req))
		sampled = true
	}
	if tr != nil && !req.Trace {
		traced := *req
		traced.Trace = true
		req = &traced
	}

	outs := make([]outcome, len(c.shards))
	spans := make([]*obs.Span, len(c.shards))
	if tr != nil {
		// Open the per-shard spans up front, in shard order, so the
		// stitched tree's children are deterministic however the legs
		// finish.
		for i := range c.shards {
			spans[i] = tr.Start("shard " + c.shards[i].Name)
		}
	}
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legStart := time.Now()
			outs[i] = c.askShard(ctx, i, req)
			outs[i].dur = time.Since(legStart)
			if sp := spans[i]; sp != nil {
				sp.SetAttr("retries", int64(outs[i].retries))
				sp.SetAttr("hedged", boolAttr(outs[i].hedged))
				sp.SetAttr("ok", boolAttr(outs[i].err == nil))
				if r := outs[i].resp; r != nil {
					sp.SetAttr("groups", int64(r.Result.Len()))
					sp.Graft(r.Spans)
				}
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	if sampled {
		tr.Finish()
	}

	resps, part, err := c.gather(allowPartial, outs)
	dur := time.Since(start)
	c.met.ObserveQuery(req.Kind.String(), dur.Seconds())
	c.logQuery(req, tr, sampled, outs, part, err, dur, rcHit)
	if err != nil {
		return nil, nil, err
	}
	if part == nil {
		// Epoch piggyback: a complete answer carries every shard's data
		// version (a shard that never changed reports none and contributes 0,
		// stably). Each is monotone, so feeding the sum to SyncUpstream invalidates
		// coordinator-cached answers exactly when some shard's state moved —
		// including streamed ingest merges the coordinator never sees as
		// requests. Degraded answers skip the sync: a missing shard's epoch
		// is unknown and summing without it would oscillate.
		var epoch uint64
		for _, r := range resps {
			epoch += r.Epoch
		}
		c.cache.SyncUpstream(epoch)
	}
	return resps, part, nil
}

// gather folds per-shard outcomes into the response list and the degraded-
// mode bookkeeping.
func (c *Coordinator) gather(allowPartial bool, outs []outcome) ([]*Response, *PartialResult, error) {
	var part *PartialResult
	live := 0
	for i, o := range outs {
		switch {
		case o.fatal:
			return nil, nil, o.err
		case o.err != nil:
			if part == nil {
				part = &PartialResult{Errs: make(map[string]string)}
			}
			part.Missing = append(part.Missing, c.shards[i].Name)
			part.Errs[c.shards[i].Name] = o.err.Error()
		default:
			live++
		}
	}
	c.met.ShardsLive.Set(int64(live))
	if live == 0 {
		return nil, nil, fmt.Errorf("%w: all %d shards unreachable; %s: %s",
			ErrUnavailable, len(c.shards), part.Missing[0], part.Errs[part.Missing[0]])
	}
	if part != nil {
		if !allowPartial {
			return nil, nil, fmt.Errorf("cluster: %d/%d shards unreachable (%s); %s",
				len(part.Missing), len(c.shards), strings.Join(part.Missing, ", "),
				part.Errs[part.Missing[0]])
		}
		c.met.Partials.Inc()
	}
	resps := make([]*Response, len(outs))
	for i := range outs {
		resps[i] = outs[i].resp
	}
	return resps, part, nil
}

// logQuery records one finished query into the query log (no-op without
// one). Sampled traces embed their full stitched tree — the raw feed for
// workload-adaptive view selection; explicit traces record only their ID
// (the caller already holds the tree).
func (c *Coordinator) logQuery(req *Request, tr *obs.Trace, sampled bool, outs []outcome, part *PartialResult, qerr error, dur time.Duration, rcHit *bool) {
	if c.qlog == nil {
		return
	}
	e := obs.QueryEntry{
		Kind:           req.Kind.String(),
		Shape:          requestShape(req),
		DurationUS:     dur.Microseconds(),
		Sampled:        sampled,
		ResultCacheHit: rcHit,
	}
	if tr != nil {
		e.TraceID = obs.FormatTraceID(tr.ID())
		tree := tr.Tree()
		e.Ops = tree.SumAttr("ops")
		if sampled {
			e.Trace = tree
		}
	}
	if qerr != nil {
		e.Error = qerr.Error()
	}
	if part != nil {
		e.MissingShards = append(e.MissingShards, part.Missing...)
	}
	for i, o := range outs {
		leg := obs.ShardLegEntry{
			Shard:      c.shards[i].Name,
			DurationUS: o.dur.Microseconds(),
			Retries:    o.retries,
			Hedged:     o.hedged,
			OK:         o.err == nil,
		}
		if o.resp != nil {
			leg.Groups = o.resp.Result.Len()
			leg.Ops = o.resp.Spans.SumAttr("ops")
		}
		e.Shards = append(e.Shards, leg)
	}
	c.qlog.Record(e)
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// askShard drives one shard to a final outcome: up to 1+Retries attempts,
// each with its own deadline and optional hedge. Each retry is steered to
// a different replica than the one that just failed, when one exists.
func (c *Coordinator) askShard(ctx context.Context, i int, req *Request) outcome {
	var o outcome
	var lastErr error
	lastRep := -1
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.met.Retries.Inc()
			o.retries++
			select {
			case <-time.After(c.backoffDelay(attempt)):
			case <-ctx.Done():
				o.err = fmt.Errorf("shard %s: %w (last attempt: %v)", c.shards[i].Name, ctx.Err(), lastErr)
				return o
			}
		}
		resp, hedged, used, err := c.attempt(ctx, i, req, lastRep)
		lastRep = used
		o.hedged = o.hedged || hedged
		if err == nil {
			if resp.Err != "" {
				// The shard executed the query and the query itself is bad
				// (unknown dimension, ...). Deterministic — retrying or
				// degrading would only hide it.
				o.err = fmt.Errorf("shard %s: %s", c.shards[i].Name, resp.Err)
				o.fatal = true
				return o
			}
			o.resp = resp
			return o
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	o.err = fmt.Errorf("shard %s: %w", c.shards[i].Name, lastErr)
	return o
}

// attempt performs one deadline-bounded exchange with shard i, hedging a
// speculative duplicate if the primary outlives the hedge delay. The first
// successful response wins; the loser is cancelled and its connection
// discarded, so its late answer cannot leak into a later exchange. The
// primary leg goes to the least-outstanding replica (skipping `avoid`, the
// replica a previous attempt just failed on); the hedge goes to a replica
// other than the primary, so the speculative duplicate races a genuinely
// different copy of the data. Returns the primary's replica index so the
// caller can steer its next retry elsewhere.
func (c *Coordinator) attempt(parent context.Context, i int, req *Request, avoid int) (resp *Response, hedged bool, primary int, err error) {
	ctx, cancel := context.WithTimeout(parent, c.opts.Timeout)
	defer cancel()

	type result struct {
		resp *Response
		err  error
		idx  int
	}
	rs := c.reps[i]
	ch := make(chan result, 2) // buffered: the losing attempt must not leak
	send := func(idx, rep int) {
		c.met.ShardCalls.Inc()
		sent := time.Now()
		r, err := rs.do(ctx, rep, req)
		c.met.RPCDuration.Observe(time.Since(sent).Seconds())
		ch <- result{r, err, idx}
	}
	start := time.Now()
	primary = rs.pick(avoid)
	go send(0, primary)
	outstanding := 1

	var hedgeC <-chan time.Time
	if d, ok := c.hedgeDelay(i); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				c.lat[i].record(time.Since(start))
				if r.idx == 1 {
					c.met.HedgeWins.Inc()
				}
				return r.resp, hedged, primary, nil
			}
			c.met.ShardErrors.Inc()
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				// Both (or the only) attempts failed; don't wait for a
				// hedge timer that can no longer help.
				return nil, hedged, primary, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			c.met.Hedges.Inc()
			outstanding++
			go send(1, rs.pick(primary))
		}
	}
}

func (c *Coordinator) backoffDelay(attempt int) time.Duration {
	d := c.opts.Backoff << (attempt - 1)
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	// ±50% jitter decorrelates retry storms across coordinators.
	c.rmu.Lock()
	f := 0.5 + c.rng.Float64()
	c.rmu.Unlock()
	return time.Duration(float64(d) * f)
}

// hedgeDelay picks the speculative-duplicate delay for shard i: the
// configured quantile of its recent latencies once enough samples exist,
// the static HedgeAfter before that, floored by HedgeMin.
func (c *Coordinator) hedgeDelay(i int) (time.Duration, bool) {
	if c.opts.HedgeQuantile <= 0 || c.opts.HedgeQuantile >= 1 {
		return 0, false
	}
	d, ok := c.lat[i].quantile(c.opts.HedgeQuantile)
	if !ok {
		if c.opts.HedgeAfter <= 0 {
			return 0, false
		}
		d = c.opts.HedgeAfter
	}
	if d < c.opts.HedgeMin {
		d = c.opts.HedgeMin
	}
	return d, true
}

// latRing keeps a shard's recent attempt latencies for the hedge quantile.
type latRing struct {
	mu   sync.Mutex
	buf  [64]time.Duration
	n    int // filled entries
	next int // ring cursor
}

// minHedgeSamples is how many observations a shard needs before the
// adaptive quantile replaces the static HedgeAfter delay.
const minHedgeSamples = 8

func (r *latRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

func (r *latRing) quantile(q float64) (time.Duration, bool) {
	r.mu.Lock()
	n := r.n
	if n < minHedgeSamples {
		r.mu.Unlock()
		return 0, false
	}
	tmp := make([]time.Duration, n)
	copy(tmp, r.buf[:n])
	r.mu.Unlock()
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(q * float64(n-1))
	return tmp[idx], true
}
