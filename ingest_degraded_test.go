package viewcube

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// faultyEngine is an Engine whose deltas fail to apply once fail is set, so
// a merge fails the way an engine fault would.
type faultyEngine struct {
	*Engine
	fail *atomic.Bool
}

func (f faultyEngine) applyDeltaRaw(vals []float64, idx []int) error {
	if f.fail.Load() {
		return errors.New("injected apply failure")
	}
	return f.Engine.applyDeltaRaw(vals, idx)
}

func (f faultyEngine) snapshot() (faultyEngine, error) {
	g, err := f.Engine.snapshot()
	return faultyEngine{g, f.fail}, err
}

// TestIngestMergeFailureDegrades: a merge whose apply fails does not panic.
// Ingest turns degraded: Flush and later appends fail with
// ErrIngestDegraded, readers keep the generation published last, the stats
// and the viewcube_ingest_degraded gauge say so, and DisableIngest reports
// it.
func TestIngestMergeFailureDegrades(t *testing.T) {
	s := internalSafeEngine(t)
	fail := new(atomic.Bool)
	g := &guard[faultyEngine]{eng: faultyEngine{s.eng, fail}}
	if err := g.EnableIngest(IngestOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cell := []int{0, 0, 0}
	add := func(v float64) error { return g.write([]float64{v}, cell, nil) }
	total := func() float64 {
		t.Helper()
		e, release := g.reader()
		defer release()
		v, err := e.totalInner(nil, struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if err := add(5); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	published := total()
	degraded := func() int64 { return g.eng.metrics().ingest.Degraded.Value() }
	if degraded() != 0 || g.IngestStats().Degraded != "" {
		t.Fatal("healthy ingest reports degraded")
	}

	fail.Store(true)
	if err := add(7); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); !errors.Is(err, ErrIngestDegraded) {
		t.Fatalf("Flush after a failed merge: %v, want ErrIngestDegraded", err)
	}
	if got := total(); got != published {
		t.Fatalf("readers see %v, want the last published %v", got, published)
	}
	if err := add(1); !errors.Is(err, ErrIngestDegraded) {
		t.Fatalf("append after a failed merge: %v, want ErrIngestDegraded", err)
	}
	if degraded() != 1 || g.IngestStats().Degraded == "" {
		t.Fatalf("gauge %d, stats %q: want degraded", degraded(), g.IngestStats().Degraded)
	}
	if err := g.DisableIngest(); !errors.Is(err, ErrIngestDegraded) {
		t.Fatalf("DisableIngest: %v, want ErrIngestDegraded", err)
	}
}
