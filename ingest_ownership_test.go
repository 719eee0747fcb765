// Who owns a generation's arrays under ingest (DESIGN §10, §16): a publish
// lends the base engine's own arrays to the new generation, and every writer
// of stored cells copies them first (Engine.own). These tests pin a
// generation across each kind of write and require its answers to stay put,
// and count the stored sets an ingesting cube keeps resident.
package viewcube

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"viewcube/internal/ingest"
	"viewcube/internal/workload"
)

// TestIngestResidencyAtRest: an ingesting cube holds one stored set at
// rest — the current generation's, which the base engine reads until its
// next write. A reader pinning a superseded generation keeps a second one
// alive until its Release.
func TestIngestResidencyAtRest(t *testing.T) {
	build := func(width3 bool) func(t *testing.T) *SafeEngine {
		return func(t *testing.T) *SafeEngine {
			tbl, err := workload.SalesTable(rand.New(rand.NewSource(3)), 8, 4, 16, 500)
			if err != nil {
				t.Fatal(err)
			}
			var eng *Engine
			if width3 {
				eng, err = NewAggEngine(&Table{t: tbl}, EngineOptions{})
			} else {
				var c *Cube
				if c, err = FromTable(tbl); err == nil {
					eng, err = c.NewEngine(EngineOptions{})
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			eng.Cube().ReleaseCells()
			w := eng.core.cube.NewWorkload()
			for _, keep := range [][]string{{"product"}, {"region", "day"}} {
				if err := w.AddViewKeeping(1, keep...); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Optimize(w); err != nil {
				t.Fatal(err)
			}
			return eng.Safe()
		}
	}
	t.Run("SafeEngine", func(t *testing.T) { residencyAtRest(t, build(false)(t)) })
	t.Run("SafeEngineWidth3", func(t *testing.T) { residencyAtRest(t, build(true)(t)) })
}

func residencyAtRest(t *testing.T, s *SafeEngine) {
	stored := s.StorageCells()
	if n := s.MaterializedElements(); n < 2 {
		t.Fatalf("fixture: %d stored elements, want a set of several", n)
	}
	resident := func(what string, sets int) {
		t.Helper()
		got := s.ResidentCells()
		if got != sets*stored {
			t.Fatalf("%s: %d resident cells, want %d × the stored %d", what, got, sets, stored)
		}
		if g := s.core.met.resident.Value(); g != int64(got) {
			t.Fatalf("%s: viewcube_resident_cells reads %d, ResidentCells %d", what, g, got)
		}
	}
	resident("before ingest", 1)
	if err := s.EnableIngest(IngestOptions{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	defer s.DisableIngest()
	resident("ingest enabled", 1)
	merge := func() {
		t.Helper()
		if err := s.Update(2, 1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	merge()
	resident("after Flush, no reader pinned", 1)

	snap := s.ing.Load().lc.Acquire()
	merge()
	resident("a reader pinning the superseded generation", 2)
	snap.Release()
	resident("after that reader's Release", 1)
	merge()
	resident("after a further merge", 1)
}

// TestIngestPinnedGenerationSurvivesWrites: a reader pins a generation whose
// arrays the base engine reads, then the base writes — a merge, an Optimize
// under ingest (migration plus a forced republish), a locked Update after
// DisableIngest, or a WAL replay as ingest is enabled again. The pinned
// generation must answer exactly as before, and a cube that was not handed
// over must keep its cells in step with the engine. Run under -race by CI's
// concurrency step.
func TestIngestPinnedGenerationSurvivesWrites(t *testing.T) {
	t.Run("SafeEngine", func(t *testing.T) { pinnedGenerationSurvivesWrites(t, false) })
	t.Run("SafeEngineWidth3", func(t *testing.T) { pinnedGenerationSurvivesWrites(t, true) })
}

// pinnedAnswer is what a pinned generation is asked before and after a
// write.
type pinnedAnswer struct {
	groups []float64 // GroupBy("product") cells
	sum    float64   // RangeSum over days d1..d2
	total  float64
}

func askGeneration(t *testing.T, e *core) pinnedAnswer {
	t.Helper()
	g, err := e.exec(nil, ask{r: &groupByRead, form: viewForm, keep: []string{"product"}})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.exec(nil, ask{r: &rangeRead, boxed: true, ranges: map[string]ValueRange{"day": {Lo: "d1", Hi: "d2"}}})
	if err != nil {
		t.Fatal(err)
	}
	total, err := e.exec(nil, ask{r: &totalRead})
	if err != nil {
		t.Fatal(err)
	}
	return pinnedAnswer{slices.Clone(g.view.Data()), sum.v, total.v}
}

func pinnedGenerationSurvivesWrites(t *testing.T, width3 bool) {
	cell := map[string]string{"product": "bock", "region": "east", "day": "d2"}
	type step struct {
		name string
		// write runs with the generation current at its start pinned; it
		// leaves ingest enabled.
		write func(t *testing.T, s *SafeEngine)
	}
	update := func(t *testing.T, s *SafeEngine, v float64) {
		t.Helper()
		if err := s.UpdateValue(v, cell); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	enable := func(t *testing.T, s *SafeEngine, opts IngestOptions) {
		t.Helper()
		opts.Interval = time.Hour // only Flush merges
		if err := s.EnableIngest(opts); err != nil {
			t.Fatal(err)
		}
	}
	steps := []step{
		{"merge", func(t *testing.T, s *SafeEngine) { update(t, s, 3) }},
		{"Optimize", func(t *testing.T, s *SafeEngine) {
			w := s.Cube().NewWorkload()
			if err := w.AddViewKeeping(1, "product"); err != nil {
				t.Fatal(err)
			}
			if err := s.Optimize(w); err != nil {
				t.Fatal(err)
			}
			if locked(s, func(e *core) bool { _, ok := e.st.Get(e.cube.space.Root()); return ok }) {
				t.Fatal("fixture: Optimize kept the root element")
			}
			update(t, s, 4) // a merge after the migration
		}},
		{"DisableIngest+Update", func(t *testing.T, s *SafeEngine) {
			if err := s.DisableIngest(); err != nil {
				t.Fatal(err)
			}
			update(t, s, 5) // the locked write path
			enable(t, s, IngestOptions{})
		}},
		{"EnableIngest+WALReplay", func(t *testing.T, s *SafeEngine) {
			// A log left with one delta not yet in the engine: replaying it
			// writes stored cells before the first generation publishes.
			path := filepath.Join(t.TempDir(), "cube.wal")
			wal, err := ingest.OpenWAL(path, ingest.WALOptions{}, func(ingest.Delta) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			idx, err := s.core.resolveUpdateIndex(cell)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wal.Append(ingest.Delta{Idx: idx, Vals: s.core.observation(6)}); err != nil {
				t.Fatal(err)
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.DisableIngest(); err != nil {
				t.Fatal(err)
			}
			enable(t, s, IngestOptions{WALPath: path})
			if got := s.IngestStats().WALReplayed; got != 1 {
				t.Fatalf("replayed %d deltas, want 1", got)
			}
		}},
	}
	for _, handOver := range []bool{false, true} {
		var s *SafeEngine // the 8-row cube
		if width3 {
			s = internalStatsEngine(t, EngineOptions{})
		} else {
			s = internalSafeEngine(t)
		}
		if handOver {
			s.Cube().ReleaseCells()
		}
		enable(t, s, IngestOptions{})
		for _, st := range steps {
			snap := s.ing.Load().lc.Acquire()
			before := askGeneration(t, snap.Payload())
			st.write(t, s)
			if after := askGeneration(t, snap.Payload()); !slices.Equal(after.groups, before.groups) ||
				after.sum != before.sum || after.total != before.total {
				t.Errorf("hand-over %v, %s: the pinned generation answered %+v, then %+v", handOver, st.name, before, after)
			}
			snap.Release()
			total, err := s.Total()
			if err != nil {
				t.Fatal(err)
			}
			if total == before.total {
				t.Fatalf("hand-over %v, %s: the total stayed %g, want the write visible", handOver, st.name, total)
			}
			if !handOver {
				if c := locked(s, func(e *core) float64 { return e.cube.Total() }); c != total {
					t.Fatalf("%s: Cube.Total() = %g, the engine's Total() = %g", st.name, c, total)
				}
			}
		}
		if err := s.DisableIngest(); err != nil {
			t.Fatal(err)
		}
	}
}
