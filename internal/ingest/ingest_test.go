package ingest

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cube.wal")
	w, err := OpenWAL(path, WALOptions{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := []Delta{
		{Idx: []int{1, 2}, Vals: []float64{3.5}},
		{Idx: []int{0, 7}, Vals: []float64{-1, 2, 1}},
		{Idx: []int{4, 4}, Vals: []float64{0.25}},
	}
	for i := range want {
		seq, err := w.Append(want[i])
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, i+1)
		}
		want[i].Seq = seq
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	var got []Delta
	w2, err := OpenWAL(path, WALOptions{}, func(d Delta) error {
		got = append(got, d)
		return nil
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
	if w2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", w2.LastSeq())
	}
	if seq, err := w2.Append(Delta{Idx: []int{9}, Vals: []float64{1}}); err != nil || seq != 4 {
		t.Fatalf("append after recovery: seq=%d err=%v, want 4", seq, err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cube.wal")
	w, err := OpenWAL(path, WALOptions{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(Delta{Idx: []int{i}, Vals: []float64{float64(i)}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the tail: chop the last record mid-payload.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	var replayed int
	w2, err := OpenWAL(path, WALOptions{}, func(Delta) error {
		replayed++
		return nil
	})
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if replayed != 4 {
		t.Fatalf("replayed %d records, want 4 (torn fifth dropped)", replayed)
	}
	if w2.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", w2.LastSeq())
	}
	// Appends continue cleanly after truncation, and a fresh scan sees them.
	if _, err := w2.Append(Delta{Idx: []int{9}, Vals: []float64{9}}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	replayed = 0
	w3, err := OpenWAL(path, WALOptions{}, func(Delta) error {
		replayed++
		return nil
	})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer w3.Close()
	if replayed != 5 {
		t.Fatalf("replayed %d records after repair+append, want 5", replayed)
	}
}

func TestWALCorruptRecordTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cube.wal")
	w, err := OpenWAL(path, WALOptions{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(Delta{Idx: []int{i}, Vals: []float64{1}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Flip a payload byte in the last record; its CRC must reject it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var replayed int
	w2, err := OpenWAL(path, WALOptions{}, func(Delta) error {
		replayed++
		return nil
	})
	if err != nil {
		t.Fatalf("reopen corrupt: %v", err)
	}
	defer w2.Close()
	if replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (corrupt third dropped)", replayed)
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("hello world, definitely not a WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path, WALOptions{}, nil); err == nil {
		t.Fatal("expected error opening non-WAL file")
	}
}

func TestBufferCoalescesAndDrainsInOrder(t *testing.T) {
	b := NewBuffer(0)
	adds := []Delta{
		{Seq: 1, Idx: []int{0, 0}, Vals: []float64{1}},
		{Seq: 2, Idx: []int{1, 1}, Vals: []float64{2}},
		{Seq: 3, Idx: []int{0, 0}, Vals: []float64{3}},
		{Seq: 4, Idx: []int{2, 2}, Vals: []float64{4}},
	}
	for _, d := range adds {
		if err := b.Add(d); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	batch := b.Drain()
	if batch.Watermark != 4 {
		t.Fatalf("watermark = %d, want 4", batch.Watermark)
	}
	want := []Delta{
		{Idx: []int{0, 0}, Vals: []float64{4}},
		{Idx: []int{1, 1}, Vals: []float64{2}},
		{Idx: []int{2, 2}, Vals: []float64{4}},
	}
	if !reflect.DeepEqual(batch.Deltas, want) {
		t.Fatalf("drained %+v, want %+v", batch.Deltas, want)
	}
	st := b.Stats()
	if st.Added != 4 || st.Coalesced != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want Added=4 Coalesced=1 Pending=0", st)
	}
	// A second drain is empty but keeps the watermark.
	if again := b.Drain(); len(again.Deltas) != 0 || again.Watermark != 4 {
		t.Fatalf("second drain = %+v, want empty with watermark 4", again)
	}
}

func TestBufferDoesNotAliasCaller(t *testing.T) {
	b := NewBuffer(0)
	idx := []int{3, 1}
	vals := []float64{5}
	if err := b.Add(Delta{Seq: 1, Idx: idx, Vals: vals}); err != nil {
		t.Fatal(err)
	}
	idx[0], vals[0] = 99, 99
	batch := b.Drain()
	if batch.Deltas[0].Idx[0] != 3 || batch.Deltas[0].Vals[0] != 5 {
		t.Fatalf("buffer aliased caller slices: %+v", batch.Deltas[0])
	}
}

func TestBufferBackpressure(t *testing.T) {
	b := NewBuffer(2)
	must := func(d Delta) {
		t.Helper()
		if err := b.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	must(Delta{Seq: 1, Idx: []int{0}, Vals: []float64{1}})
	must(Delta{Seq: 2, Idx: []int{1}, Vals: []float64{1}})
	// Coalescing into a dirty cell never blocks, even at capacity.
	must(Delta{Seq: 3, Idx: []int{0}, Vals: []float64{1}})

	unblocked := make(chan error, 1)
	go func() {
		unblocked <- b.Add(Delta{Seq: 4, Idx: []int{2}, Vals: []float64{1}})
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("Add of a new cell at capacity returned early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	batch := b.Drain()
	if len(batch.Deltas) != 2 {
		t.Fatalf("drained %d cells, want 2", len(batch.Deltas))
	}
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("blocked Add failed after drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Add still blocked after drain made room")
	}
	if got := b.Drain(); got.Watermark != 4 || len(got.Deltas) != 1 {
		t.Fatalf("post-unblock drain = %+v, want 1 cell at watermark 4", got)
	}
	if st := b.Stats(); st.Blocked == 0 {
		t.Fatalf("stats = %+v, want Blocked > 0", st)
	}
}

func TestBufferClose(t *testing.T) {
	b := NewBuffer(1)
	if err := b.Add(Delta{Seq: 1, Idx: []int{0}, Vals: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- b.Add(Delta{Seq: 2, Idx: []int{1}, Vals: []float64{1}})
	}()
	time.Sleep(20 * time.Millisecond)
	b.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("blocked Add after Close = %v, want ErrClosed", err)
	}
	if err := b.Add(Delta{Seq: 3, Idx: []int{2}, Vals: []float64{1}}); err != ErrClosed {
		t.Fatalf("Add after Close = %v, want ErrClosed", err)
	}
	// Pending cells remain drainable for shutdown flush.
	if batch := b.Drain(); len(batch.Deltas) != 1 {
		t.Fatalf("drain after close got %d cells, want 1", len(batch.Deltas))
	}
}

func TestBufferDirtySignal(t *testing.T) {
	b := NewBuffer(0)
	select {
	case <-b.Dirty():
		t.Fatal("dirty signalled on empty buffer")
	default:
	}
	if err := b.Add(Delta{Seq: 1, Idx: []int{0}, Vals: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Dirty():
	case <-time.After(time.Second):
		t.Fatal("no dirty signal after Add")
	}
}

func TestLifecyclePublishDrainRetire(t *testing.T) {
	type retirement struct {
		epoch   uint64
		payload string
	}
	var mu sync.Mutex
	var retired []retirement
	lc := NewLifecycle("gen1", func(epoch uint64, payload string) {
		mu.Lock()
		retired = append(retired, retirement{epoch, payload})
		mu.Unlock()
	})
	retiredSoFar := func() []retirement {
		mu.Lock()
		defer mu.Unlock()
		return append([]retirement(nil), retired...)
	}
	if lc.Current() != 1 {
		t.Fatalf("initial epoch = %d, want 1", lc.Current())
	}

	s1 := lc.Acquire()
	if s1.Payload() != "gen1" || s1.Epoch() != 1 {
		t.Fatalf("acquired %q@%d, want gen1@1", s1.Payload(), s1.Epoch())
	}
	s1b := lc.Acquire() // a second reader of the same generation

	// Publishing while s1 is pinned drains rather than retires.
	if epoch := lc.Publish("gen2"); epoch != 2 {
		t.Fatalf("publish = %d, want 2", epoch)
	}
	if got := retiredSoFar(); len(got) != 0 {
		t.Fatalf("epoch 1 retired while still pinned: %v", got)
	}
	st := lc.Stats()
	if st.Epoch != 2 || st.Live != 2 || st.Pinned != 0 {
		t.Fatalf("stats = %+v, want Epoch=2 Live=2 Pinned=0", st)
	}

	// The pinned readers still see their generation, and the first of them
	// to let go does not retire it.
	if s1.Payload() != "gen1" {
		t.Fatalf("pinned snapshot payload changed to %q", s1.Payload())
	}
	s1.Release()
	if got := retiredSoFar(); len(got) != 0 {
		t.Fatalf("epoch 1 retired with a reader still pinning it: %v", got)
	}
	if s1b.Payload() != "gen1" {
		t.Fatalf("pinned snapshot payload changed to %q", s1b.Payload())
	}
	// The last Release hands the payload to the hook.
	s1b.Release()
	if got := retiredSoFar(); !reflect.DeepEqual(got, []retirement{{1, "gen1"}}) {
		t.Fatalf("retired = %v, want [{1 gen1}]", got)
	}
	st = lc.Stats()
	if st.Live != 1 || st.Retired != 1 {
		t.Fatalf("stats = %+v, want Live=1 Retired=1", st)
	}

	// An unpinned superseded generation retires at publish time.
	lc.Publish("gen3")
	want := []retirement{{1, "gen1"}, {2, "gen2"}}
	if got := retiredSoFar(); !reflect.DeepEqual(got, want) {
		t.Fatalf("retired = %v, want %v", got, want)
	}

	// Pins of a generation that already retired its predecessor, released
	// after further publishes, hand each payload over exactly once.
	s3 := lc.Acquire()
	lc.Publish("gen4")
	lc.Publish("gen5")
	want = append(want, retirement{4, "gen4"})
	if got := retiredSoFar(); !reflect.DeepEqual(got, want) {
		t.Fatalf("retired = %v, want %v", got, want)
	}
	s3.Release()
	want = append(want, retirement{3, "gen3"})
	if got := retiredSoFar(); !reflect.DeepEqual(got, want) {
		t.Fatalf("retired = %v, want %v", got, want)
	}
	if st := lc.Stats(); st.Live != 1 || st.Retired != 4 {
		t.Fatalf("stats = %+v, want Live=1 Retired=4", st)
	}
}

func TestLifecycleConcurrentAcquire(t *testing.T) {
	lc := NewLifecycle(0, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := lc.Acquire()
				if s.Epoch() == 0 {
					t.Error("acquired epoch 0")
				}
				s.Release()
			}
		}()
	}
	for i := 1; i <= 100; i++ {
		lc.Publish(i)
	}
	close(stop)
	wg.Wait()
	st := lc.Stats()
	if st.Epoch != 101 {
		t.Fatalf("epoch = %d, want 101", st.Epoch)
	}
	if st.Live != 1 {
		t.Fatalf("live = %d after all releases, want 1", st.Live)
	}
}
