package viewcube

// A handed-over cube whose root is sparse is held as its nonzeros (DESIGN
// §19). These tests pin that it answers every read bit for bit like a twin
// that keeps its cells attached (and so dense), before and after every kind
// of write, and that its reads never densify it.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"viewcube/internal/assembly"
)

var (
	sparseDims  = []string{"a", "b", "c", "d"}
	sparseShape = []int{8, 4, 8, 4}
)

// sparseCube builds a cube of the given four extents with nnz nonzero cells
// from seed: integer, real and negative measures through the relation, and
// −0 cells set directly (a −0 row would sum into +0).
func sparseCube(t *testing.T, seed int64, shape []int, nnz int) *Cube {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl, err := NewTable(sparseDims, "m")
	if err != nil {
		t.Fatal(err)
	}
	offs := rng.Perm(shape[0] * shape[1] * shape[2] * shape[3])[:nnz]
	// The first cells walk the diagonal and cover every member, so each
	// dictionary fills its power-of-two domain.
	cover := slices.Max(shape)
	for i := 0; i < cover; i++ {
		offs[i] = ((i%shape[0]*shape[1]+i%shape[1])*shape[2]+i%shape[2])*shape[3] + i%shape[3]
	}
	var negZero [][]int
	for i, off := range offs {
		idx := make([]int, 4)
		for m, rest := 3, off; m >= 0; m-- {
			idx[m], rest = rest%shape[m], rest/shape[m]
		}
		var v float64
		switch rng.Intn(4) {
		case 0:
			v = float64(rng.Intn(1000) + 1)
		case 1:
			v = rng.NormFloat64() * 1e3
		case 2:
			v = -rng.ExpFloat64() * 10
		default:
			if i >= cover {
				negZero = append(negZero, idx)
				continue
			}
			v = 1
		}
		row := make([]string, 4)
		for m, c := range idx {
			row[m] = fmt.Sprintf("%s%02d", sparseDims[m], c)
		}
		if err := tbl.Append(row, v); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := FromRelation(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cube.Shape(), shape) {
		t.Fatalf("fixture: shape %v", cube.Shape())
	}
	for _, idx := range negZero {
		cube.Set(math.Copysign(0, -1), idx...)
	}
	return cube
}

// sparseRoot reports whether the engine holds its root as its nonzeros.
func sparseRoot(e *Engine) bool {
	ms, ok := e.core.st.(*assembly.MemStore)
	if !ok {
		return false
	}
	_, ok = ms.GetSparse(e.core.cube.space.Root())
	return ok
}

// readBits answers a seeded mix of reads — every group-by, random ranges,
// grouped ranges, SQL and the total — as the bits of every number returned.
func readBits(s *SafeEngine, seed int64) ([]uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for mask := 0; mask < 1<<len(sparseDims); mask++ {
		var keep []string
		for m, d := range sparseDims {
			if mask>>m&1 == 1 {
				keep = append(keep, d)
			}
		}
		v, err := s.GroupBy(keep...)
		if err != nil {
			return nil, err
		}
		add(v.Data()...)
	}
	shape := sparseShape
	member := func(m, code int) string { return fmt.Sprintf("%s%02d", sparseDims[m], code) }
	for i := 0; i < 40; i++ {
		lo, ext := make([]int, 4), make([]int, 4)
		for m, n := range shape {
			lo[m] = rng.Intn(n)
			ext[m] = 1 + rng.Intn(n-lo[m])
		}
		sum, err := s.RangeSumIndex(lo, ext)
		if err != nil {
			return nil, err
		}
		add(sum)

		keep := sparseDims[rng.Intn(4)]
		ranges := map[string]ValueRange{}
		for m, d := range sparseDims {
			if d != keep && rng.Intn(2) == 0 {
				ranges[d] = ValueRange{Lo: member(m, lo[m]), Hi: member(m, lo[m]+ext[m]-1)}
			}
		}
		v, err := s.GroupByWhere([]string{keep}, ranges)
		if err != nil {
			return nil, err
		}
		add(v.Data()...)
	}
	for _, sql := range []string{
		"SELECT SUM(m) GROUP BY a, c",
		"SELECT SUM(m) GROUP BY d WHERE b BETWEEN 'b01' AND 'b03'",
		"SELECT SUM(m) WHERE a BETWEEN 'a03' AND 'a06' AND c BETWEEN 'c00' AND 'c01'",
	} {
		res, err := s.Query(sql)
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			add(row.Values...)
		}
	}
	total, err := s.Total()
	if err != nil {
		return nil, err
	}
	add(total)
	return out, nil
}

func mustReadBits(t *testing.T, s *SafeEngine, seed int64) []uint64 {
	t.Helper()
	out, err := readBits(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sparsePair is a handed-over engine and its attached twin over equal cubes.
type sparsePair struct {
	t                *testing.T
	handed, attached *Engine
	hs, as           *SafeEngine
	reads            int64
}

func newSparsePair(t *testing.T, seed int64, nnz int, budget float64) *sparsePair {
	t.Helper()
	p := &sparsePair{t: t}
	for i, e := range []**Engine{&p.handed, &p.attached} {
		cube := sparseCube(t, seed, sparseShape, nnz)
		eng, err := cube.NewEngine(EngineOptions{StorageBudget: int(budget * float64(cube.Volume()))})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cube.ReleaseCells()
		}
		*e = eng
	}
	p.hs, p.as = p.handed.Safe(), p.attached.Safe()
	return p
}

func (p *sparsePair) check(step string) {
	p.t.Helper()
	p.reads++
	got, want := mustReadBits(p.t, p.hs, p.reads), mustReadBits(p.t, p.as, p.reads)
	if len(got) != len(want) {
		p.t.Fatalf("%s: %d numbers against the twin's %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			p.t.Fatalf("%s: number %d is %v (bits %#x), the attached twin says %v (bits %#x)",
				step, i, math.Float64frombits(got[i]), got[i], math.Float64frombits(want[i]), want[i])
		}
	}
}

func (p *sparsePair) both(step string, fn func(s *SafeEngine) error) {
	p.t.Helper()
	for _, s := range []*SafeEngine{p.hs, p.as} {
		if err := fn(s); err != nil {
			p.t.Fatalf("%s: %v", step, err)
		}
	}
	p.check(step)
}

func TestSparseRootDifferential(t *testing.T) {
	const vol = 8 * 4 * 8 * 4
	for _, every := range []int{32, 8, 4} {
		nnz := vol / every
		t.Run(fmt.Sprintf("density=1/%d", every), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(every)))
			update := func(s *SafeEngine) error {
				idx := make([]int, 4)
				for m, n := range sparseShape {
					idx[m] = rng.Intn(n)
				}
				return s.Update(rng.NormFloat64()*100, idx...)
			}

			// Writes: locked updates, then streaming ingest and its merges.
			p := newSparsePair(t, int64(every), nnz, 1)
			if got, want := sparseRoot(p.handed), every >= 8; got != want {
				t.Fatalf("handed-over root held sparse %v, want %v", got, want)
			}
			if sparseRoot(p.attached) {
				t.Fatal("an attached cube's root went sparse")
			}
			if got, want := p.hs.StorageCells(), p.as.StorageCells(); got != want || p.hs.ResidentCells() != got {
				t.Fatalf("storage cells %d (resident %d), the twin stores %d", got, p.hs.ResidentCells(), want)
			}
			p.check("handed over")
			seed := rng.Int63()
			p.both("update", func(s *SafeEngine) error {
				rng.Seed(seed) // the same delta on both sides
				return update(s)
			})
			if sparseRoot(p.handed) {
				t.Fatal("the root stayed sparse after a write")
			}
			p.both("enable ingest", func(s *SafeEngine) error { return s.EnableIngest(IngestOptions{}) })
			for i := 0; i < 3; i++ {
				seed := rng.Int63()
				p.both(fmt.Sprintf("ingest merge %d", i), func(s *SafeEngine) error {
					rng.Seed(seed)
					for j := 0; j < 20; j++ {
						if err := update(s); err != nil {
							return err
						}
					}
					return s.Flush()
				})
			}
			p.both("disable ingest", func(s *SafeEngine) error { return s.DisableIngest() })

			// Ingest straight from a sparse root: its first snapshot
			// generation reads the root before any write.
			p = newSparsePair(t, int64(every), nnz, 1)
			p.both("ingest from a sparse root", func(s *SafeEngine) error { return s.EnableIngest(IngestOptions{}) })
			p.both("disable ingest", func(s *SafeEngine) error { return s.DisableIngest() })

			// Reselection from a sparse root at budgets 1 and 2.
			for _, budget := range []float64{1, 2} {
				p := newSparsePair(t, int64(every), nnz, budget)
				weight := 1.0
				optimize := func(step string, keep ...string) {
					weight *= 100
					p.both(step, func(s *SafeEngine) error {
						w := s.core.cube.NewWorkload()
						if err := w.AddViewKeeping(weight, keep...); err != nil {
							return err
						}
						return s.Optimize(w)
					})
				}
				optimize(fmt.Sprintf("optimize at budget %v", budget), "a", "c")
				optimize("reselect", "d")
				seed := rng.Int63()
				p.both("update after reselection", func(s *SafeEngine) error {
					rng.Seed(seed)
					return update(s)
				})
				if sparseRoot(p.handed) {
					t.Fatal("the root stayed sparse after a write")
				}
			}
		})
	}
}

// TestSparseRootReadAllocs: no read path densifies a sparse root. On a
// handed-over 1/16-dense cube of 2^20 cells every read assembles from the
// nonzeros, so a round of reads allocates less than the 8 MiB dense root.
func TestSparseRootReadAllocs(t *testing.T) {
	shape := []int{64, 32, 32, 16}
	cube := sparseCube(t, 16, shape, 1<<20/16)
	eng, err := cube.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube.ReleaseCells()
	if !sparseRoot(eng) {
		t.Fatal("fixture: the root is not sparse")
	}
	s := eng.Safe()
	read := func() {
		for _, keep := range [][]string{{"a"}, {"b", "d"}, {"a", "b", "c"}, {}} {
			r, _, err := s.GroupByResult(false, keep...)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
		if _, err := s.RangeSumIndex([]int{2, 1, 0, 3}, []int{9, 6, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Query("SELECT SUM(m) GROUP BY c WHERE a BETWEEN 'a02' AND 'a09'"); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the plan cache, the range elements and the scratch pool
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	dense := uint64(8 * cube.Volume())
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= dense {
		t.Fatalf("a round of reads allocates %d bytes, the dense root takes %d: a read densified it", per, dense)
	}
	if !sparseRoot(eng) {
		t.Fatal("a read made the root dense")
	}
}

// TestSparseRootConcurrentReads: many readers share one sparse root; each
// answers what the attached twin does.
func TestSparseRootConcurrentReads(t *testing.T) {
	p := newSparsePair(t, 3, 8*4*8*4/16, 1)
	if !sparseRoot(p.handed) {
		t.Fatal("fixture: the root is not sparse")
	}
	want := mustReadBits(t, p.as, 1)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := readBits(p.hs, 1); err != nil {
				errs <- err.Error()
			} else if !slices.Equal(got, want) {
				errs <- "a concurrent reader's answers differ from the attached twin's"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
