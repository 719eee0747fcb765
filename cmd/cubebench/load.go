package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the load generator and the scrape around it. Readers are
// closed-loop: each connection sends its next query when the previous
// answer has been read, as dashboards and the coordinator's callers do. The
// only open-loop client is the ingest writer, paced on a fixed schedule and
// timed from when each batch was due.

// conn is one keep-alive HTTP connection with a reusable body buffer.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and returns the body (valid until the next call).
func (c *conn) do(b *bench, method, url, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(b.ctx, method, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	return c.buf.Bytes(), nil
}

// reader is one closed-loop connection walking the seeded sequence: every
// stride-th operation from its offset.
type reader struct {
	conn    *conn
	next    int
	stride  int
	query   []int32   // population index per completed operation
	latency []float64 // milliseconds, same order
	bytes   int64
	failed  int
	firstEr error
	last    time.Time // completion of the last operation
	// tick, when set, receives the completion time of every
	// readsPerBatch-th read: the ingest writer's schedule.
	tick chan<- time.Time
}

// run sends operations until stop reports true. Static workloads require
// every answer to repeat the bytes verified at warm-up; under ingest, where
// answers grow as deltas merge, range sums are always bounded by the
// oracle's base and all-batches answers and every 16th grouped answer is parsed
// and bounded too.
func (r *reader) run(b *bench, w *workload, t *topology, stop func() bool) {
	for ; !stop() && b.ctx.Err() == nil; r.next += r.stride {
		i := r.next
		qi := w.seq[i%len(w.seq)]
		q := w.pop[qi]
		start := time.Now()
		body, err := r.conn.do(b, q.method, "http://"+t.front+q.path, q.body)
		r.last = time.Now()
		if err == nil {
			r.bytes += int64(len(body))
			switch {
			case !w.ingest:
				if !bytes.Equal(body, q.wantBody) {
					err = fmt.Errorf("answer differs from the verified one: %.120s", body)
				}
			case q.kind == opRange || i%16 == 0:
				err = w.oracles[q.cube].check(q, body, q.want, w.upper[qi])
			}
		}
		if err != nil {
			r.failed++
			if r.firstEr == nil {
				r.firstEr = fmt.Errorf("%s %s: %w", q.method, q.path, err)
			}
			continue
		}
		r.query = append(r.query, int32(qi))
		r.latency = append(r.latency, float64(r.last.Sub(start).Nanoseconds())/1e6)
		if r.tick != nil && len(r.latency)%readsPerBatch == 0 {
			r.tick <- r.last
		}
	}
}

// writerResult is what the ingest writer observed. Times are measured from
// when each batch was due — the completion of the read that triggered it —
// so a stall charges every batch it delayed.
type writerResult struct {
	sent     int
	ackMs    []float64 // unflushed batches: due -> acknowledged
	freshMs  []float64 // flushed batches: due -> visible to readers
	lateMs   []float64 // due -> actually sent
	liveMax  float64   // most snapshot generations alive at any ack
	failed   int
	firstErr error
	elapsed  time.Duration
}

// write posts the next batch for every tick until the channel closes. It is
// open-loop with respect to the server: ticks queue while a post is in
// flight, and the next batch is timed from its tick.
func (b *bench) write(w *workload, t *topology, ticks <-chan time.Time) *writerResult {
	r := &writerResult{}
	c := newConn()
	defer c.close()
	start := time.Now()
	url := "http://" + t.front + "/ingest"
	for due := range ticks {
		i := r.sent
		if i == len(w.batches)-1 { // the last one closes the run
			r.failed++
			r.firstErr = fmt.Errorf("ran out of the %d batches generated for this run", len(w.batches)-1)
			break
		}
		sent := time.Now()
		body, err := c.do(b, "POST", url, string(w.batches[i].body))
		done := time.Now()
		r.sent++
		var ack struct {
			Rows   int `json:"rows"`
			Ingest struct {
				Live float64 `json:"live"`
			} `json:"ingest"`
		}
		if err == nil {
			if err = json.Unmarshal(body, &ack); err == nil && ack.Rows != ingestRows {
				err = fmt.Errorf("acknowledged %d rows of %d", ack.Rows, ingestRows)
			}
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("POST /ingest batch %d: %w", i, err)
			}
			continue
		}
		r.liveMax = max(r.liveMax, ack.Ingest.Live)
		r.lateMs = append(r.lateMs, float64(sent.Sub(due).Nanoseconds())/1e6)
		if (i+1)%ingestFlush == 0 {
			r.freshMs = append(r.freshMs, float64(done.Sub(due).Nanoseconds())/1e6)
		} else {
			r.ackMs = append(r.ackMs, float64(done.Sub(due).Nanoseconds())/1e6)
		}
	}
	for range ticks { // a writer that stopped early must not block the reader
	}
	r.elapsed = time.Since(start)
	return r
}

// nodeSnap is one scrape of one server process.
type nodeSnap struct {
	prom  promText
	mem   memStats
	cpu   float64 // user+system seconds so far
	stats []nodeStats
}

// nodeStats is what the benchmark reads from a /stats document (one per
// cube) or, on a coordinator, from /shards.
type nodeStats struct {
	StorageCells float64 `json:"storage_cells"`
	Elements     float64 `json:"materialized_elements"`
	ResultCache  struct {
		Hits, Misses, Evictions, Invalidations, Bytes float64
	} `json:"result_cache"`
}

func (b *bench) snapshot(t *topology) ([]nodeSnap, error) {
	snaps := make([]nodeSnap, len(t.nodes))
	for i, n := range t.nodes {
		s := &snaps[i]
		text, err := b.get("http://" + n.addr + "/metrics")
		if err != nil {
			return nil, err
		}
		if s.prom, err = parseProm(text); err != nil {
			return nil, err
		}
		if n.heap {
			text, err := b.get("http://" + n.addr + "/debug/pprof/heap?debug=1")
			if err != nil {
				return nil, err
			}
			if s.mem, err = parseMemStats(text); err != nil {
				return nil, err
			}
		}
		for _, p := range n.statsPaths {
			data, err := b.get("http://" + n.addr + p)
			if err != nil {
				return nil, err
			}
			s.stats = append(s.stats, nodeStats{})
			if err := json.Unmarshal(data, &s.stats[len(s.stats)-1]); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
		}
		if s.cpu, err = cpuSeconds(n.child.cmd.Process.Pid); err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// phase is everything measured over one timed phase.
type phase struct {
	wall       float64   // seconds readers were running (calibration pauses excluded)
	kernels    []float64 // seconds each calibration sample took
	readers    []*reader
	writer     *writerResult
	before     []nodeSnap
	after      []nodeSnap
	rssMB      []float64 // VmHWM per node at the end
	liveMB     float64   // heap still in use after a forced collection, summed over nodes that report it
	clientCPU  float64   // generator user+system seconds over the phase
	postFailed int       // wrong answers in the after-flush check (ingest)
	postChecks int
}

// windowLength is how long readers run between two calibration samples.
const windowLength = 300 * time.Millisecond

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs the timed phase: scrape, drive the load for the given
// seconds, scrape again. The scrapes are outside the timed window.
func (b *bench) measure(w *workload, t *topology, seconds float64) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = b.snapshot(t); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	p.readers = make([]*reader, w.conns)
	for k := range p.readers {
		p.readers[k] = &reader{conn: newConn(), next: k, stride: w.conns}
		defer p.readers[k].conn.close()
	}
	var writerDone sync.WaitGroup
	var ticks chan time.Time
	if w.ingest {
		// The writer runs beside the reader, on the reader's count. The
		// buffer holds every tick a run can produce, so a slow ack never
		// blocks a read.
		ticks = make(chan time.Time, len(w.batches)+1)
		p.readers[0].tick = ticks
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			p.writer = b.write(w, t, ticks)
		}()
	}
	// Readers run in windows with the calibration kernel between them, so
	// the kernel samples the machine's speed all along the phase (calib.go).
	calibrate() // the first call pays for cold caches
	p.kernels = append(p.kernels, calibrate().Seconds())
	for time.Now().Before(end) && b.ctx.Err() == nil {
		wstart := time.Now()
		until := wstart.Add(windowLength)
		if until.After(end) {
			until = end
		}
		stop := func() bool { return !time.Now().Before(until) }
		var wg sync.WaitGroup
		for _, r := range p.readers {
			wg.Add(1)
			go func(r *reader) {
				defer wg.Done()
				r.run(b, w, t, stop)
			}(r)
		}
		wg.Wait()
		wend := wstart
		for _, r := range p.readers {
			if r.last.After(wend) {
				wend = r.last
			}
		}
		p.wall += wend.Sub(wstart).Seconds()
		p.kernels = append(p.kernels, calibrate().Seconds())
	}
	if ticks != nil {
		close(ticks)
	}
	writerDone.Wait()
	p.clientCPU = selfCPU() - cpu0
	if err := b.failed(); err != nil {
		return nil, err
	}
	if p.after, err = b.snapshot(t); err != nil {
		return nil, err
	}
	if w.ingest {
		if err := b.checkAfterFlush(w, t, p); err != nil {
			return nil, err
		}
	}
	for _, n := range t.nodes {
		mb, err := peakRSSMB(n.child.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		p.rssMB = append(p.rssMB, mb)
		if !n.heap {
			continue
		}
		// gc=1 makes the handler collect before it reads MemStats, so
		// HeapAlloc is what the process retains, not what the collector's
		// pacing happened to leave.
		// Twice: sync.Pool contents survive one collection in the victim
		// cache, and how full the pools are is an accident of timing.
		url := "http://" + n.addr + "/debug/pprof/heap?gc=1&debug=1"
		if _, err := b.get(url); err != nil {
			return nil, err
		}
		text, err := b.get(url)
		if err != nil {
			return nil, err
		}
		m, err := parseMemStats(text)
		if err != nil {
			return nil, err
		}
		p.liveMB += float64(m.heapAlloc) / (1 << 20)
	}
	return p, nil
}

// checkAfterFlush posts the closing batch with flush:true and then requires
// exact answers: the grand total and every 8th distinct query must equal base
// rows plus every acknowledged delta. The closing batch also publishes a
// snapshot, so the result cache holds exactly these answers when the live
// heap is read afterwards, whatever the timed phase left in it.
func (b *bench) checkAfterFlush(w *workload, t *topology, p *phase) error {
	if p.writer.failed > 0 {
		return nil // which deltas were applied is unknown, and the run has failed already
	}
	closing := w.batches[len(w.batches)-1]
	if _, err := b.request("POST", "http://"+t.front+"/ingest", closing.body); err != nil {
		return fmt.Errorf("closing batch: %w", err)
	}
	w.oracles[0].apply(w.batches[:p.writer.sent])
	w.oracles[0].apply([]ingestBatch{closing})
	lo, hi := fullBox(w.cubes[0])
	total := &querySpec{kind: opGroupBy, lo: lo, hi: hi}
	total.render(w.cubes[0], "", rawView(w.cubes[0]))
	checks := []*querySpec{total}
	finals := []answer{w.oracles[0].answer(total)}
	for i := 0; i < len(w.pop); i += 8 {
		checks, finals = append(checks, w.pop[i]), append(finals, w.oracles[0].answer(w.pop[i]))
	}
	for i, q := range checks {
		p.postChecks++
		body, err := b.request(q.method, "http://"+t.front+q.path, []byte(q.body))
		if err != nil {
			return fmt.Errorf("after-flush %s %s: %w", q.method, q.path, err)
		}
		if err := w.oracles[0].check(q, body, finals[i], finals[i]); err != nil {
			p.postFailed++
			fmt.Fprintf(os.Stderr, "cubebench: %s: wrong answer after flush to %s %s %s: %v\n", w.name, q.method, q.path, q.body, err)
		}
	}
	return nil
}

// latencies gathers every reader's samples, sorted, optionally only those
// of queries keep accepts.
func (p *phase) latencies(w *workload, keep func(*querySpec) bool) []float64 {
	var out []float64
	for _, r := range p.readers {
		for i, ms := range r.latency {
			if keep == nil || keep(w.pop[r.query[i]]) {
				out = append(out, ms)
			}
		}
	}
	sort.Float64s(out)
	return out
}
