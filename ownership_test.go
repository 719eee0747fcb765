package viewcube

// Who owns an array (DESIGN §10): the engine adopts the cube's cells as its
// root element, a server hands the cube's reference over, and through every
// way the materialised set and the cells can change — locked updates,
// reselections that drop the root and bring it back, ingest merges, a WAL
// replay — each delta reaches each array exactly once.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"viewcube/internal/ndarray"
)

// heapAlloc is what the process retains: two collections, because sync.Pool
// contents survive one in the victim cache.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// bigCube fills a 64×128×128 cube (1<<20 cells) sparsely.
func bigCube(t *testing.T) *Cube {
	t.Helper()
	c, err := NewCube([]string{"a", "b", "c"}, []int{64, 128, 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		c.Add(float64(i%7+1), i%64, (i*7)%128, (i*13)%128)
	}
	return c
}

// TestResidencyEngine: attaching an engine costs no second copy of the cells,
// and after the hand-over and an Optimize at budget 1.0 (which drops the root
// element) the process holds the selected set — Vol(cube) cells — not the
// selected set and the raw cube.
func TestResidencyEngine(t *testing.T) {
	base := heapAlloc()
	cube := bigCube(t)
	cells := uint64(cube.Volume()) * 8
	before := heapAlloc()
	eng, err := cube.NewEngine(EngineOptions{StorageBudget: cube.Volume()})
	if err != nil {
		t.Fatal(err)
	}
	if grew := int64(heapAlloc()) - int64(before); grew > 1<<20 {
		t.Fatalf("NewEngine over a %d-byte cube grew the heap by %d bytes, want < 1 MiB", cells, grew)
	}
	if got := eng.Safe().ResidentCells(); got != cube.Volume() {
		t.Fatalf("resident cells %d after NewEngine, want the cube's %d", got, cube.Volume())
	}
	cube.ReleaseCells()
	w := cube.NewWorkload()
	if err := w.AddViewKeeping(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Optimize(w); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.core.st.Get(cube.space.Root()); ok {
		t.Fatal("fixture: Optimize kept the root element")
	}
	if held := heapAlloc() - base; float64(held) > 1.15*float64(cells) {
		t.Fatalf("after hand-over and Optimize the process holds %d bytes, want < 1.15 × the cube's %d", held, cells)
	}
	if got := eng.Safe().ResidentCells(); got != eng.StorageCells() || got > cube.Volume() {
		t.Fatalf("resident cells %d, stored %d, cube %d", got, eng.StorageCells(), cube.Volume())
	}
	runtime.KeepAlive(eng)
}

// TestResidencyAggEngine: the vector store adopts the three planes it was
// built from.
func TestResidencyAggEngine(t *testing.T) {
	tbl, err := NewTable([]string{"a", "b", "c"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		row := []string{fmt.Sprintf("a%02d", i%64), fmt.Sprintf("b%03d", i), fmt.Sprintf("c%03d", (i*5)%128)}
		if err := tbl.Append(row, float64(i%9)); err != nil {
			t.Fatal(err)
		}
	}
	before := heapAlloc()
	agg, err := NewAggEngine(tbl, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	planes := int64(agg.Width() * agg.Cube().Volume() * 8)
	if agg.Cube().Volume() != 1<<20 {
		t.Fatalf("fixture: %d cells", agg.Cube().Volume())
	}
	if over := int64(heapAlloc()) - int64(before) - planes; over > planes/10 {
		t.Fatalf("NewAggEngine holds %d bytes beyond its %d bytes of planes, want < 10%%", over, planes)
	}
	if got, want := agg.Safe().ResidentCells(), agg.StorageCells(); got != want {
		t.Fatalf("resident cells %d, stored %d", got, want)
	}
	runtime.KeepAlive(agg)
}

// ownership is one differential trial: an engine of either kind, the cells it
// should hold by brute-force replay of every delta (width planes, plane-major)
// and the ways to look at what it does hold.
type ownership struct {
	t        *testing.T
	rng      *rand.Rand
	shape    []int
	width    int
	ref      []float64
	cube     *Cube
	handover bool
	weight   float64 // the next workload's frequency: each reselection outweighs the last

	update   func(v float64, idx []int) error // v is a delta (scalar) or an observation (vector)
	optimize func(w *Workload) error
	flush    func() error
	rootView func() []float64 // the root element as the current reader assembles it
	stored   func() bool      // the root element is in the base store
}

func (o *ownership) offset(idx []int) int {
	off := 0
	for m, i := range idx {
		off = off*o.shape[m] + i
	}
	return off
}

// apply is the brute-force side of one update.
func (o *ownership) apply(v float64, idx []int) {
	off, plane := o.offset(idx), len(o.ref)/o.width
	if o.width == 1 {
		o.ref[off] += v
		return
	}
	o.ref[off] += v
	o.ref[plane+off] += v * v
	o.ref[2*plane+off]++
}

func (o *ownership) check(step string) {
	o.t.Helper()
	if got := o.rootView(); !slices.Equal(got, o.ref) {
		o.t.Fatalf("%s: the root view differs from the replayed deltas", step)
	}
	if o.handover {
		return
	}
	idx := make([]int, len(o.shape))
	for off := 0; off < len(o.ref)/o.width; off++ {
		for m, rest := len(idx)-1, off; m >= 0; m-- {
			idx[m], rest = rest%o.shape[m], rest/o.shape[m]
		}
		if got := o.cube.At(idx...); got != o.ref[off] {
			o.t.Fatalf("%s: Cube.At(%v) = %v, the replayed deltas give %v", step, idx, got, o.ref[off])
		}
	}
}

// steps runs n random steps — updates (a zero delta among them), a reselection
// that drops the root, one that brings it back, a flush — checking after each,
// and reports whether the root both left and returned.
func (o *ownership) steps(phase string, n int) (left, returned bool) {
	o.t.Helper()
	dims := o.cube.Dimensions()
	for i := 0; i < n; i++ {
		step := fmt.Sprintf("%s step %d", phase, i)
		switch k := o.rng.Intn(10); {
		case k < 6:
			idx := make([]int, len(o.shape))
			for m := range idx {
				idx[m] = o.rng.Intn(o.shape[m])
			}
			v := float64(o.rng.Intn(11) - 5)
			if err := o.update(v, idx); err != nil {
				o.t.Fatalf("%s: update: %v", step, err)
			}
			if v != 0 || o.width > 1 {
				o.apply(v, idx)
			}
			step += " update"
		case k < 8:
			w := o.cube.NewWorkload()
			o.weight *= 100
			if err := w.AddViewKeeping(o.weight, dims[o.rng.Intn(len(dims))]); err != nil {
				o.t.Fatal(err)
			}
			if err := o.optimize(w); err != nil {
				o.t.Fatalf("%s: optimize: %v", step, err)
			}
			left = left || !o.stored()
			step += " optimize (root leaves)"
		default:
			w := o.cube.NewWorkload()
			o.weight *= 100
			if err := w.Add(o.cube.Root(), o.weight); err != nil {
				o.t.Fatal(err)
			}
			wasOut := !o.stored()
			if err := o.optimize(w); err != nil {
				o.t.Fatalf("%s: optimize: %v", step, err)
			}
			returned = returned || wasOut && o.stored()
			step += " optimize (root returns)"
		}
		if err := o.flush(); err != nil {
			o.t.Fatal(err)
		}
		o.check(step)
	}
	return left, returned
}

// scalarTrial wires a trial over a SafeEngine.
func scalarTrial(o *ownership, data []float64, diskDir string) *SafeEngine {
	o.t.Helper()
	cube, err := NewCubeFromData([]string{"a", "b", "c"}, o.shape, slices.Clone(data))
	if err != nil {
		o.t.Fatal(err)
	}
	eng, err := cube.NewEngine(EngineOptions{DiskDir: diskDir})
	if err != nil {
		o.t.Fatal(err)
	}
	if o.handover {
		cube.ReleaseCells()
	}
	s := eng.Safe()
	o.cube, o.width = cube, 1
	o.update = func(v float64, idx []int) error { return s.Update(v, idx...) }
	o.optimize = func(w *Workload) error {
		// Half the time through Reconfigure: both ways into a reselection
		// must see the same ownership.
		if o.rng.Intn(2) == 0 {
			return s.Optimize(w)
		}
		for _, ent := range w.entries {
			eng.core.inner.Observe(ent.rect, ent.freq)
		}
		_, err := s.Reconfigure()
		return err
	}
	o.flush = s.Flush
	o.stored = func() bool { _, ok := eng.core.st.Get(cube.space.Root()); return ok }
	o.rootView = func() []float64 {
		e, snap := s.reader()
		defer s.release(snap)
		arr, err := e.inner.Assembler().Answer(nil, cube.space.Root())
		if err != nil {
			o.t.Fatal(err)
		}
		defer ndarray.Recycle(arr)
		return slices.Clone(arr.Data())
	}
	return s
}

func TestOwnershipDifferentialScalar(t *testing.T) {
	for _, tc := range []struct {
		name           string
		disk, handover bool
	}{{"mem", false, false}, {"mem-handover", false, true}, {"disk", true, false}, {"disk-handover", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			o := &ownership{t: t, rng: rng, shape: []int{8, 4, 4}, handover: tc.handover, weight: 1}
			o.ref = make([]float64, 128)
			for i := range o.ref {
				o.ref[i] = float64(rng.Intn(9))
			}
			dir := ""
			if tc.disk {
				dir = t.TempDir()
			}
			s := scalarTrial(o, o.ref, dir)
			o.check("after NewEngine")
			left, returned := o.steps("locked", 60)
			if !left || !returned {
				t.Fatalf("fixture: root left %v, returned %v", left, returned)
			}
			if tc.disk {
				return // ingest needs the in-memory store
			}

			// Streaming ingest through a WAL: merges publish snapshot generations.
			atEnable := slices.Clone(o.ref)
			wal := filepath.Join(t.TempDir(), "own.wal")
			if err := s.EnableIngest(IngestOptions{WALPath: wal}); err != nil {
				t.Fatal(err)
			}
			o.steps("ingest", 60)
			if err := s.DisableIngest(); err != nil {
				t.Fatal(err)
			}
			o.check("after DisableIngest")

			// A crash: a fresh engine over the cells as they were when the WAL
			// began, and the WAL replayed into it.
			s = scalarTrial(o, atEnable, "")
			if err := s.EnableIngest(IngestOptions{WALPath: wal}); err != nil {
				t.Fatal(err)
			}
			defer s.DisableIngest()
			if s.IngestStats().WALReplayed == 0 {
				t.Fatal("fixture: nothing replayed")
			}
			o.check("after WAL replay")
			o.steps("replayed", 30)
		})
	}
}

func TestOwnershipDifferentialAgg(t *testing.T) {
	for _, handover := range []bool{false, true} {
		t.Run(fmt.Sprintf("handover=%v", handover), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			o := &ownership{t: t, rng: rng, shape: []int{4, 4, 2}, width: 3, handover: handover, weight: 1}
			o.ref = make([]float64, 3*32)
			dims := []string{"a", "b", "c"}
			var rows [][]string
			var measures []float64
			value := func(idx []int) []string {
				return []string{fmt.Sprint("a", idx[0]), fmt.Sprint("b", idx[1]), fmt.Sprint("c", idx[2])}
			}
			observe := func(v float64, idx []int) {
				rows, measures = append(rows, value(idx)), append(measures, v)
			}
			for off := 0; off < 32; off++ { // every member of every dictionary occurs
				idx := []int{off / 8, off / 2 % 4, off % 2}
				v := float64(rng.Intn(7))
				observe(v, idx)
				o.apply(v, idx)
			}
			build := func() *SafeEngine {
				tbl, err := NewTable(dims, "m")
				if err != nil {
					t.Fatal(err)
				}
				for i, row := range rows {
					if err := tbl.Append(row, measures[i]); err != nil {
						t.Fatal(err)
					}
				}
				agg, err := NewAggEngine(tbl, EngineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if handover {
					agg.Cube().ReleaseCells()
				}
				s := agg.Safe()
				o.cube = agg.Cube()
				o.update = func(v float64, idx []int) error { return s.Update(v, idx...) }
				o.optimize = s.Optimize
				o.flush = s.Flush
				o.stored = func() bool { _, ok := agg.core.st.Get(o.cube.space.Root()); return ok }
				o.rootView = func() []float64 {
					e, snap := s.reader()
					defer s.release(snap)
					arr, err := e.inner.Assembler().Answer(nil, o.cube.space.Root())
					if err != nil {
						t.Fatal(err)
					}
					defer ndarray.Recycle(arr)
					return slices.Clone(arr.Data())
				}
				return s
			}
			s := build()
			o.check("after NewAggEngine")
			locked := o.update
			o.update = func(v float64, idx []int) error { observe(v, idx); return locked(v, idx) }
			if left, returned := o.steps("locked", 60); !left || !returned {
				t.Fatalf("fixture: root left %v, returned %v", left, returned)
			}

			wal := filepath.Join(t.TempDir(), "own.wal")
			if err := s.EnableIngest(IngestOptions{WALPath: wal}); err != nil {
				t.Fatal(err)
			}
			o.update = locked // the WAL holds these: the rebuilt table must not
			o.steps("ingest", 60)
			if err := s.DisableIngest(); err != nil {
				t.Fatal(err)
			}
			o.check("after DisableIngest")

			s = build() // the crash: the table as it was when the WAL began
			if err := s.EnableIngest(IngestOptions{WALPath: wal}); err != nil {
				t.Fatal(err)
			}
			defer s.DisableIngest()
			if s.IngestStats().WALReplayed == 0 {
				t.Fatal("fixture: nothing replayed")
			}
			o.check("after WAL replay")
			o.steps("replayed", 30)
		})
	}
}

// TestTwoEnginesOneCube: the second engine over a cube works on its own copy
// of the cells, so each engine equals its own history — and the cube follows
// the first.
func TestTwoEnginesOneCube(t *testing.T) {
	cube, err := NewCube([]string{"a", "b"}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	cube.Set(3, 1, 2)
	first, err := cube.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := cube.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rootOf := func(e *Engine) *ndarray.Array { a, _ := e.core.st.Get(cube.space.Root()); return a }
	if rootOf(first) != cube.data || rootOf(second) == cube.data {
		t.Fatal("the first engine adopts the cube's array, the second copies it")
	}
	at := func(e *Engine) float64 {
		v, err := e.View(cube.Root())
		if err != nil {
			t.Fatal(err)
		}
		return v.At(1, 2)
	}
	if err := second.Update(10, 1, 2); err != nil {
		t.Fatal(err)
	}
	if at(first) != 3 || at(second) != 13 || cube.At(1, 2) != 3 {
		t.Fatalf("after updating the second engine: first %v, second %v, cube %v; want 3, 13, 3", at(first), at(second), cube.At(1, 2))
	}
	if err := first.Update(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	// With the first engine's root dropped the cube is an array of its own
	// again, kept by the first engine alone.
	w := cube.NewWorkload()
	if err := w.AddViewKeeping(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := first.Optimize(w); err != nil {
		t.Fatal(err)
	}
	if err := first.Update(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := second.Update(10, 1, 2); err != nil {
		t.Fatal(err)
	}
	if at(first) != 5 || at(second) != 23 || cube.At(1, 2) != 5 {
		t.Fatalf("first %v, second %v, cube %v; want 5, 23, 5", at(first), at(second), cube.At(1, 2))
	}
}

// TestHandedOverCubeAccessors: every reader and writer of the cells fails by
// naming ReleaseCells — never a nil dereference — and the engine goes on.
func TestHandedOverCubeAccessors(t *testing.T) {
	cube, err := NewCube([]string{"a", "b"}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "ReleaseCells") || !strings.Contains(msg, name) {
				t.Errorf("%s: panic %q does not name the accessor and ReleaseCells", name, msg)
			}
		}()
		fn()
	}
	mustPanic("ReleaseCells before NewEngine", cube.ReleaseCells)
	cube.Set(4, 1, 1)
	eng, err := cube.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube.ReleaseCells()
	cube.ReleaseCells() // again: nothing left to drop
	mustPanic("Cube.At", func() { cube.At(0, 0) })
	mustPanic("Cube.Total", func() { cube.Total() })
	mustPanic("Cube.Add", func() { cube.Add(1, 0, 0) })
	mustPanic("Cube.Set", func() { cube.Set(1, 0, 0) })
	if _, err := cube.NewEngine(EngineOptions{}); err == nil || !strings.Contains(err.Error(), "Cube.NewEngine after ReleaseCells") {
		t.Errorf("NewEngine: %v", err)
	}
	if err := eng.Update(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if total, err := eng.Total(); err != nil || total != 5 {
		t.Fatalf("engine total %v, %v; want 5", total, err)
	}
	if cube.Volume() != 4 || len(cube.Dimensions()) != 2 {
		t.Fatal("the cube's metadata went with its cells")
	}
}
