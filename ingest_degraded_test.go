package viewcube

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestIngestMergeFailureDegrades: a merge whose apply fails does not panic.
// Ingest turns degraded: Flush and later appends fail with
// ErrIngestDegraded, readers keep the generation published last, the stats
// and the viewcube_ingest_degraded gauge say so, and DisableIngest reports
// it. The fault is the engine's own check: a delta of the wrong width,
// appended straight to the runtime past the write path's admission, fails
// to apply at the merge.
func TestIngestMergeFailureDegrades(t *testing.T) {
	s := internalSafeEngine(t)
	g := s
	if err := g.EnableIngest(IngestOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cell := []int{0, 0, 0}
	add := func(v float64) error { return g.write([]float64{v}, cell) }
	total := func() float64 {
		t.Helper()
		e, snap := g.reader()
		defer g.release(snap)
		a, err := e.exec(nil, ask{r: &totalRead})
		if err != nil {
			t.Fatal(err)
		}
		return a.v
	}
	if err := add(5); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	published := total()
	degraded := func() int64 { return g.core.met.ingest.Degraded.Value() }
	if degraded() != 0 || g.IngestStats().Degraded != "" {
		t.Fatal("healthy ingest reports degraded")
	}

	// A fresh cell, so the bad delta coalesces with nothing.
	if err := g.ing.Load().ingestAppend([]float64{7, 7}, []int{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	err := g.Flush()
	if !errors.Is(err, ErrIngestDegraded) {
		t.Fatalf("Flush after a failed merge: %v, want ErrIngestDegraded", err)
	}
	if !strings.Contains(err.Error(), "delta width") {
		t.Fatalf("Flush after a failed merge: %v, want the engine's delta width check", err)
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
