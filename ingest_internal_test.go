// Internal proofs of the non-blocking guarantees: these tests hold the
// SafeEngine's write lock directly — something no public API can do — and
// assert the paths that claim to be lock-free really are. With ingest
// enabled, readers pin snapshots and appends go through the buffer, so
// both must complete while the lock is held; zero-delta updates skip the
// lock on either write path.
package viewcube

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

const ingestInternalCSV = `product,region,day,sales
ale,east,d1,10
ale,west,d1,5
ale,east,d2,2
bock,east,d1,7
bock,west,d2,4
cider,west,d3,3
cider,east,d3,1
stout,east,d4,6
`

func internalSafeEngine(t *testing.T) *SafeEngine {
	t.Helper()
	c, err := Load(strings.NewReader(ingestInternalCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	// ReselectEvery 0: reselectIfDue's unlocked fast path never needs s.mu,
	// so a read's only possible lock contact is the reader() pin itself.
	eng, err := c.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Safe()
}

// mustFinish fails the test if fn does not return within the deadline while
// the caller deliberately holds the engine write lock. unlock releases it
// before Fatal so cleanup can proceed.
func mustFinish(t *testing.T, what string, unlock func(), fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		unlock()
		t.Fatalf("%s blocked on the held write lock", what)
	}
}

// safeReads lists every SafeEngine read as (name, answer) rows; a TraceX row
// names the untraced read whose answer it must reproduce bit-for-bit. Views
// are projected to their group maps so answers compare with DeepEqual.
func safeReads(s *SafeEngine) []struct {
	name, same string
	read       func() (any, error)
} {
	groups := func(v *View, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		return v.Groups()
	}
	days := map[string]ValueRange{"day": {Lo: "d1", Hi: "d2"}}
	const sql = "SELECT SUM(sales) GROUP BY product WHERE day BETWEEN 'd1' AND 'd3'"
	type within struct {
		sum float64
		ok  bool
	}
	return []struct {
		name, same string
		read       func() (any, error)
	}{
		{"View", "", func() (any, error) {
			el, err := s.eng.cube.ViewKeeping("region")
			if err != nil {
				return nil, err
			}
			return groups(s.View(el))
		}},
		{"GroupBy", "", func() (any, error) { return groups(s.GroupBy("product")) }},
		{"GroupByWhere", "", func() (any, error) { return groups(s.GroupByWhere([]string{"product"}, days)) }},
		{"Total", "", func() (any, error) { return s.Total() }},
		{"RangeSum", "", func() (any, error) { return s.RangeSum(days) }},
		{"RangeSumWithin", "", func() (any, error) {
			sum, ok, err := s.RangeSumWithin(days)
			return within{sum, ok}, err
		}},
		{"RangeSumIndex", "", func() (any, error) { return s.RangeSumIndex([]int{0, 0, 0}, []int{2, 2, 2}) }},
		{"Query", "", func() (any, error) { return s.Query(sql) }},
		{"TraceQuery", "Query", func() (any, error) {
			res, _, err := s.TraceQuery(sql)
			return res, err
		}},
		{"TraceGroupBy", "GroupBy", func() (any, error) {
			v, _, err := s.TraceGroupBy("product")
			return groups(v, err)
		}},
		{"TraceTotal", "Total", func() (any, error) {
			total, _, err := s.TraceTotal()
			return total, err
		}},
		{"TraceRangeSum", "RangeSum", func() (any, error) {
			sum, _, err := s.TraceRangeSum(days)
			return sum, err
		}},
		{"TraceRangeSumWithin", "RangeSumWithin", func() (any, error) {
			sum, ok, _, err := s.TraceRangeSumWithin(days)
			return within{sum, ok}, err
		}},
		{"Explain", "", func() (any, error) { return s.Explain(s.eng.cube.GrandTotal()) }},
		{"ExplainGroupBy", "", func() (any, error) { return s.ExplainGroupBy("product") }},
	}
}

// TestIngestReadersIgnoreWriteLock is the barrier test for the MVCC
// contract: with the write lock held (as the merger or a reconfiguration
// would), every snapshot-pinned read — each SafeEngine read method, traced
// and untraced, and both explains — and streamed appends all complete, and
// each read returns exactly what it returned before the lock was taken.
func TestIngestReadersIgnoreWriteLock(t *testing.T) {
	s := internalSafeEngine(t)
	if err := s.EnableIngest(IngestOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer s.DisableIngest()
	if err := s.UpdateValue(5, map[string]string{
		"product": "ale", "region": "east", "day": "d2",
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Unlocked answers. Each read runs twice so the second (kept) answer is
	// the plan-cache-warm one an explain renders under the lock too.
	reads := safeReads(s)
	want := make(map[string]any, len(reads))
	for _, r := range reads {
		for i := 0; i < 2; i++ {
			got, err := r.read()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			want[r.name] = got
		}
	}
	if want["Total"] != 43.0 {
		t.Fatalf("total = %v, want 43", want["Total"])
	}
	for _, r := range reads {
		if r.same != "" && !reflect.DeepEqual(want[r.name], want[r.same]) {
			t.Fatalf("%s answered %v, %s answered %v", r.name, want[r.name], r.same, want[r.same])
		}
	}

	s.mu.Lock()
	unlock := s.mu.Unlock

	for _, r := range reads {
		var (
			got any
			err error
		)
		mustFinish(t, "snapshot-pinned "+r.name, unlock, func() { got, err = r.read() })
		if err != nil {
			unlock()
			t.Fatalf("%s under held write lock: %v", r.name, err)
		}
		if !reflect.DeepEqual(got, want[r.name]) {
			unlock()
			t.Fatalf("%s under held write lock = %v, want %v", r.name, got, want[r.name])
		}
	}

	// Appends acknowledge without the lock too; visibility waits for the
	// merger, which needs the lock we hold — so no Flush here.
	var upErr error
	mustFinish(t, "streamed append", unlock, func() {
		upErr = s.Update(2, 0, 0, 0)
	})
	if upErr != nil {
		unlock()
		t.Fatal(upErr)
	}
	var zeroErr error
	mustFinish(t, "zero-delta streamed update", unlock, func() {
		zeroErr = s.Update(0, 0, 0, 0)
	})
	if zeroErr != nil {
		unlock()
		t.Fatal(zeroErr)
	}

	s.mu.Unlock()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	total, err := s.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 45 { // 38 + 5 + 2
		t.Fatalf("total after unlock+flush = %g, want 45", total)
	}
}

// TestZeroDeltaUpdateIgnoresWriteLock pins the satellite bugfix on the
// locked write path: without ingest, a zero-delta Update/UpdateValue
// validates and returns without ever taking the write lock.
func TestZeroDeltaUpdateIgnoresWriteLock(t *testing.T) {
	s := internalSafeEngine(t)
	s.mu.Lock()
	unlock := s.mu.Unlock

	var idxErr error
	mustFinish(t, "zero-delta Update", unlock, func() {
		idxErr = s.Update(0, 0, 0, 0)
	})
	if idxErr != nil {
		unlock()
		t.Fatal(idxErr)
	}
	var valErr error
	mustFinish(t, "zero-delta UpdateValue", unlock, func() {
		valErr = s.UpdateValue(0, map[string]string{
			"product": "ale", "region": "east", "day": "d2",
		})
	})
	if valErr != nil {
		unlock()
		t.Fatal(valErr)
	}
	// Validation still runs lock-free.
	var badErr error
	mustFinish(t, "zero-delta Update with bad index", unlock, func() {
		badErr = s.Update(0, 99, 0, 0)
	})
	if badErr == nil {
		unlock()
		t.Fatal("zero-delta update with out-of-range index must fail")
	}
	s.mu.Unlock()
}
