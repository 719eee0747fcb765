package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// QueryEntry is one line of the query analytics log: the query's shape and
// cost profile, in exactly the form future workload-adaptive view selection
// wants to mine. Trace is only set for sampled queries (and is the stitched
// cluster tree for coordinator queries).
type QueryEntry struct {
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`
	// Cube and View name the catalog entry (and, when the query came in
	// through a declarative view, the view) that served the query. Both are
	// empty for engines served outside a catalog.
	Cube       string `json:"cube,omitempty"`
	View       string `json:"view,omitempty"`
	Shape      string `json:"shape"`
	DurationUS int64  `json:"duration_us"`
	Epoch      uint64 `json:"epoch,omitempty"`
	// SnapshotEpoch is the ingest snapshot generation the query read from
	// (zero when the cube has no streaming ingest path): queries racing a
	// merge can be told apart by this field moving.
	SnapshotEpoch uint64 `json:"snapshot_epoch,omitempty"`
	PlanCacheHit  *bool  `json:"plan_cache_hit,omitempty"`
	// ResultCacheHit is set (either way) only when the serving path had a
	// result cache wired; a hit's Ops/Cells are zero by construction.
	ResultCacheHit *bool `json:"result_cache_hit,omitempty"`
	Ops            int64 `json:"ops,omitempty"`
	Cells          int64 `json:"cells,omitempty"`
	// Agg and MeasureWidth identify the aggregate function and the
	// measure-vector component width of the serving engine, so log mining
	// can distinguish SUM queries from AVG/VAR queries over a vector cube.
	// Scalar SUM queries leave both empty (width 1 is implied).
	Agg           string          `json:"agg,omitempty"`
	MeasureWidth  int             `json:"measure_width,omitempty"`
	TraceID       string          `json:"trace_id,omitempty"`
	Sampled       bool            `json:"sampled,omitempty"`
	Error         string          `json:"error,omitempty"`
	MissingShards []string        `json:"missing_shards,omitempty"`
	Shards        []ShardLegEntry `json:"shards,omitempty"`
	Trace         *Span           `json:"trace,omitempty"`
}

// ShardLegEntry is the per-shard cost breakdown of one cluster query.
type ShardLegEntry struct {
	Shard      string `json:"shard"`
	DurationUS int64  `json:"duration_us"`
	Retries    int    `json:"retries,omitempty"`
	OK         bool   `json:"ok"`
	Ops        int64  `json:"ops,omitempty"`
	Groups     int    `json:"groups,omitempty"`
}

// QueryLogOptions configures a QueryLog.
type QueryLogOptions struct {
	// RingSize bounds the in-memory ring served by /querylog. Defaults to
	// 256.
	RingSize int
	// Path, when non-empty, appends each entry as one JSON line to this
	// file, rotating by size.
	Path string
	// MaxBytes triggers rotation of the log file once it exceeds this
	// size. Defaults to 8 MiB.
	MaxBytes int64
}

// QueryLog records completed queries into a bounded in-memory ring and,
// optionally, a rotating JSONL file. All methods are safe for concurrent
// use and safe on a nil receiver, so serving paths log unconditionally.
type QueryLog struct {
	opt QueryLogOptions

	mu      sync.Mutex
	ring    []QueryEntry
	next    int
	total   uint64
	f       *os.File
	written int64
}

// NewQueryLog opens a query log. With an empty Path the log is purely
// in-memory.
func NewQueryLog(opt QueryLogOptions) (*QueryLog, error) {
	if opt.RingSize <= 0 {
		opt.RingSize = 256
	}
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = 8 << 20
	}
	l := &QueryLog{opt: opt, ring: make([]QueryEntry, 0, opt.RingSize)}
	if opt.Path != "" {
		if err := l.openFile(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *QueryLog) openFile() error {
	f, err := os.OpenFile(l.opt.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("querylog: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("querylog: %w", err)
	}
	l.f = f
	l.written = st.Size()
	return nil
}

// Record appends one entry. File write errors are swallowed (the ring still
// records): the query log must never fail a query. Safe on nil.
func (l *QueryLog) Record(e QueryEntry) {
	if l == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < l.opt.RingSize {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % l.opt.RingSize
	}
	l.total++
	if l.f == nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	if l.written+int64(len(line)) > l.opt.MaxBytes {
		l.rotateLocked()
	}
	if l.f != nil {
		if n, err := l.f.Write(line); err == nil {
			l.written += int64(n)
		}
	}
}

// rotateLocked renames the live file to <path>.1 (replacing any previous
// rotation) and starts a fresh file. Caller holds l.mu.
func (l *QueryLog) rotateLocked() {
	l.f.Close()
	l.f = nil
	l.written = 0
	os.Rename(l.opt.Path, l.opt.Path+".1")
	f, err := os.OpenFile(l.opt.Path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	l.f = f
}

// Recent returns up to n of the most recent entries, newest first. n <= 0
// means all retained entries. Safe on nil (returns nil).
func (l *QueryLog) Recent(n int) []QueryEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.ring)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]QueryEntry, 0, n)
	// Newest entry is just before l.next once the ring has wrapped, or at
	// len-1 while it is still filling.
	newest := l.next - 1
	if len(l.ring) < l.opt.RingSize {
		newest = len(l.ring) - 1
	}
	for i := 0; i < n; i++ {
		idx := (newest - i + size) % size
		out = append(out, l.ring[idx])
	}
	return out
}

// Total reports how many entries have ever been recorded (including ones
// the ring has evicted). Safe on nil.
func (l *QueryLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Close flushes and closes the backing file, if any. Safe on nil.
func (l *QueryLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
