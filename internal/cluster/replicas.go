package cluster

import (
	"context"
	"sync/atomic"
	"time"

	"viewcube/internal/obs"
)

// replicaSet is the set of interchangeable transports for one shard: the
// primary client plus any configured replicas, all serving the same
// partition of the data. Requests are balanced by least-outstanding count
// (with a rotating tie-break so an idle tier still spreads load), and a
// retry asks for a replica *different* from the one that just failed or
// timed out, since re-asking a struggling copy rarely helps.
type replicaSet struct {
	clients     []ShardClient
	outstanding []atomic.Int64
	rr          atomic.Uint64 // rotating tie-break cursor
}

func newReplicaSet(s Shard) *replicaSet {
	clients := make([]ShardClient, 0, 1+len(s.Replicas))
	clients = append(clients, s.Client)
	clients = append(clients, s.Replicas...)
	return &replicaSet{
		clients:     clients,
		outstanding: make([]atomic.Int64, len(clients)),
	}
}

// pick chooses the replica with the fewest outstanding calls, skipping
// `avoid` (pass -1 to consider all) unless it is the only copy. Ties go to
// a rotating cursor so equally-loaded replicas share work instead of the
// first one taking everything.
func (rs *replicaSet) pick(avoid int) int {
	n := len(rs.clients)
	if n == 1 {
		return 0
	}
	start := int(rs.rr.Add(1)) % n
	best, bestLoad := -1, int64(0)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if i == avoid {
			continue
		}
		load := rs.outstanding[i].Load()
		if best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// do sends one call through replica rep, tracking its outstanding count for
// the balancer.
func (rs *replicaSet) do(ctx context.Context, rep int, req *Request) (*Response, error) {
	rs.outstanding[rep].Add(1)
	defer rs.outstanding[rep].Add(-1)
	return rs.clients[rep].Do(ctx, req)
}

// closeAll closes every replica client, returning the first error.
func (rs *replicaSet) closeAll() error {
	var first error
	for _, cl := range rs.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// limiter is the coordinator's admission valve: a semaphore of MaxInFlight
// slots with a bounded queue wait. A query that cannot get a slot within
// QueueTimeout is shed with ErrOverloaded instead of piling onto a
// saturated shard tier — fast failure is the backpressure signal. A nil
// limiter admits everything.
type limiter struct {
	sem     chan struct{}
	timeout time.Duration
	met     *obs.AdmissionMetrics
}

func newLimiter(maxInFlight int, queueTimeout time.Duration, met *obs.AdmissionMetrics) *limiter {
	if maxInFlight <= 0 {
		return nil
	}
	if queueTimeout <= 0 {
		queueTimeout = 100 * time.Millisecond
	}
	return &limiter{
		sem:     make(chan struct{}, maxInFlight),
		timeout: queueTimeout,
		met:     met,
	}
}

// acquire takes a slot, queueing up to the timeout. Returns ErrOverloaded
// when the queue wait expires, or the caller's context error if it is
// cancelled first. Nil-safe: no limiter means free admission.
func (l *limiter) acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	select {
	case l.sem <- struct{}{}:
		l.met.InFlight.Add(1)
		return nil
	default:
	}
	// Slow path: all slots busy — queue with a deadline.
	l.met.Queued.Inc()
	t := time.NewTimer(l.timeout)
	defer t.Stop()
	select {
	case l.sem <- struct{}{}:
		l.met.InFlight.Add(1)
		return nil
	case <-t.C:
		l.met.Rejected.Inc()
		return ErrOverloaded
	case <-ctx.Done():
		l.met.Rejected.Inc()
		return ctx.Err()
	}
}

func (l *limiter) release() {
	if l == nil {
		return
	}
	l.met.InFlight.Add(-1)
	<-l.sem
}
