package viewcube

import (
	"path/filepath"
	"strings"
	"testing"

	"viewcube/internal/ingest"
)

// A cell is a sum of finite deltas, so it can overflow to ±Inf, and every
// answer covering it then fails to encode. The engine keeps Σ|v| of what its
// cube took in below relation.MaxMass and rejects the delta that would pass
// it, on every write path.

func twoCellEngine(t *testing.T) *Engine {
	t.Helper()
	cube, err := Load(strings.NewReader("a,b,m\nx,p,1\ny,q,2\n"), "m")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func wantPast(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "past") {
		t.Fatalf("%s: err %v, want a rejection naming the bound", what, err)
	}
}

func TestMassBoundUpdate(t *testing.T) {
	eng := twoCellEngine(t)
	if err := eng.Update(8e307, 0, 0); err != nil {
		t.Fatal(err)
	}
	wantPast(t, "second Update", eng.Update(8e307, 0, 0))
	wantPast(t, "UpdateValue", eng.UpdateValue(8e307, map[string]string{"a": "y", "b": "q"}))
	total, err := eng.Total()
	if err != nil || total != 8e307+3 {
		t.Fatalf("total %v, %v: the rejected deltas must leave the cells alone", total, err)
	}
	s := eng.Safe()
	wantPast(t, "SafeEngine.Update", s.Update(-8e307, 1, 1))
	if err := s.Update(1, 1, 1); err != nil {
		t.Fatalf("a delta within the bound: %v", err)
	}
	if err := eng.Update(0, 5, 5); err == nil {
		t.Fatal("a bad index must still fail, zero delta or not")
	}
}

// TestMassBoundIngest: a streamed delta is bounded when it is appended, not
// when its batch merges, and a WAL record past the bound fails the replay
// with its sequence number instead of being applied.
func TestMassBoundIngest(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "mass.wal")
	s := twoCellEngine(t).Safe()
	if err := s.EnableIngest(IngestOptions{WALPath: wal}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(6e307, 0, 0); err != nil {
		t.Fatal(err)
	}
	wantPast(t, "ingest append", s.Update(6e307, 0, 0))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if total, err := s.Total(); err != nil || total != 6e307+3 {
		t.Fatalf("total %v, %v", total, err)
	}
	if err := s.DisableIngest(); err != nil {
		t.Fatal(err)
	}

	// A crafted record: the WAL holds the accepted delta and one more.
	w, err := ingest.OpenWAL(wal, ingest.WALOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ingest.Delta{Idx: []int{1, 1}, Vals: []float64{6e307}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	err = twoCellEngine(t).Safe().EnableIngest(IngestOptions{WALPath: wal})
	if err == nil || !strings.Contains(err.Error(), "seq 2") || !strings.Contains(err.Error(), "past") {
		t.Fatalf("replay: err %v, want the second record's rejection", err)
	}
}

// TestMassBoundAgg: a measure-vector cube bounds Σv² too.
func TestMassBoundAgg(t *testing.T) {
	tbl, err := NewTable([]string{"a"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"x", "y"} {
		if err := tbl.Append([]string{v}, 1); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := NewAggEngine(tbl, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantPast(t, "an observation whose square overflows", agg.Update(1e160, 0))
	if err := agg.Update(1e150, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]string{"z"}, 1e200); err != nil {
		t.Fatal(err)
	}
	_, err = NewAggEngine(tbl, EngineOptions{})
	wantPast(t, "a relation whose Σv² overflows", err)
}
