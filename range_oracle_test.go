package viewcube

// One differential oracle for every range read: RangeSum, RangeSumWithin and
// GroupByWhere on scalar engines, and on measure-vector engines RangeAgg,
// filtered SQL and the SUM reads of the SUM plane, each compared with ==
// against a brute-force scan of the integer
// cells, over every stored set an engine can hold — and, through the
// contraction kernel itself, over the wavelet basis, which no engine
// selects.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/relation"
	"viewcube/internal/velement"
)

// oracleCube is a random relation over four dimensions with integer
// measures, and its cells as a dense tensor over the dictionary codes.
type oracleCube struct {
	dims  []string
	cards []int     // dictionary cardinalities
	sum   []float64 // Σv per cell, row-major over cards
	count []float64 // tuples per cell
	tbl   *Table
}

func (o *oracleCube) member(m, code int) string { return fmt.Sprintf("%s%02d", o.dims[m], code) }

// newOracleCube draws rows tuples; every member appears at least once, so
// each dictionary holds exactly cards[m] values. vals draws a measure.
func newOracleCube(t *testing.T, seed int64, cards []int, rows int, vals func(*rand.Rand) float64) *oracleCube {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	o := &oracleCube{dims: []string{"a", "b", "c", "d"}, cards: cards}
	vol := 1
	for _, n := range cards {
		vol *= n
	}
	o.sum, o.count = make([]float64, vol), make([]float64, vol)
	tbl, err := NewTable(o.dims, "m")
	if err != nil {
		t.Fatal(err)
	}
	cover := 0
	for _, n := range cards {
		cover = max(cover, n)
	}
	for i := 0; i < max(rows, cover); i++ {
		idx, row, off := make([]int, 4), make([]string, 4), 0
		for m, n := range cards {
			idx[m] = rng.Intn(n)
			if i < cover {
				idx[m] = i % n
			}
			row[m] = o.member(m, idx[m])
			off = off*n + idx[m]
		}
		v := vals(rng)
		if err := tbl.Append(row, v); err != nil {
			t.Fatal(err)
		}
		o.sum[off] += v
		o.count[off]++
	}
	o.tbl = tbl
	return o
}

// scan is the brute-force answer over the box [lo, lo+ext) of codes,
// grouped by the kept dimensions (row-major over their cardinalities).
func (o *oracleCube) scan(cells []float64, lo, ext []int, keep []bool) []float64 {
	groups := 1
	for m, n := range o.cards {
		if keep[m] {
			groups *= n
		}
	}
	out := make([]float64, groups)
	idx := make([]int, 4)
	for off := range cells {
		rest := off
		for m := 3; m >= 0; m-- {
			idx[m], rest = rest%o.cards[m], rest/o.cards[m]
		}
		g, in := 0, true
		for m, n := range o.cards {
			if keep[m] {
				g = g*n + idx[m]
			} else if idx[m] < lo[m] || idx[m] >= lo[m]+ext[m] {
				in = false
			}
		}
		if in {
			out[g] += cells[off]
		}
	}
	return out
}

// oracleQuery is one drawn read: a box over 1–4 filtered dimensions and,
// for the grouped reads, a random set of kept dimensions the filter leaves
// alone.
type oracleQuery struct {
	lo, ext []int
	ranges  map[string]ValueRange
	keep    []bool
	keepBy  []string
}

func (o *oracleCube) draw(rng *rand.Rand) oracleQuery {
	q := oracleQuery{lo: make([]int, 4), ext: make([]int, 4), ranges: map[string]ValueRange{}, keep: make([]bool, 4)}
	filtered := rng.Perm(4)[:1+rng.Intn(4)]
	for m, n := range o.cards {
		q.ext[m] = n
	}
	for _, m := range filtered {
		n := o.cards[m]
		q.lo[m] = rng.Intn(n)
		q.ext[m] = 1 + rng.Intn(n-q.lo[m])
		q.ranges[o.dims[m]] = ValueRange{Lo: o.member(m, q.lo[m]), Hi: o.member(m, q.lo[m]+q.ext[m]-1)}
	}
	for m := range o.cards {
		if _, f := q.ranges[o.dims[m]]; !f && rng.Intn(2) == 0 {
			q.keep[m] = true
			q.keepBy = append(q.keepBy, o.dims[m])
		}
	}
	return q
}

// storedSet names one way of arriving at an engine's materialised set.
type storedSet struct {
	name   string
	budget float64 // StorageBudget as a multiple of the cube volume
	// handOver releases the cube's cells after attaching (the root may then
	// be held as its nonzeros); optimize lists the workloads applied in
	// order.
	handOver bool
	optimize [][]string
}

var oracleSets = []storedSet{
	{name: "dense root"},
	{name: "sparse root", handOver: true},
	{name: "algorithm 1 basis", optimize: [][]string{{"a", "c"}}},
	{name: "algorithm 2 at budget 2", budget: 2, optimize: [][]string{{"b"}, {"a", "d"}}},
	{name: "rootless re-optimize", handOver: true, optimize: [][]string{{"a"}, {"b", "c"}}},
}

func (s storedSet) workloads(c *Cube, t *testing.T) []*Workload {
	var out []*Workload
	for i, keep := range s.optimize {
		w := c.NewWorkload()
		if err := w.AddViewKeeping(float64(10*(i+1)), keep...); err != nil {
			t.Fatal(err)
		}
		if err := w.AddViewKeeping(1); err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func (o *oracleCube) scalarEngine(t *testing.T, s storedSet) *Engine {
	t.Helper()
	cube, err := FromRelation(o.tbl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(EngineOptions{StorageBudget: int(s.budget * float64(cube.Volume()))})
	if err != nil {
		t.Fatal(err)
	}
	if s.handOver {
		cube.ReleaseCells()
	}
	for _, w := range s.workloads(cube, t) {
		if err := eng.Optimize(w); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// checkScalar compares every scalar range read against the scan.
func (o *oracleCube) checkScalar(t *testing.T, eng *Engine, rng *rand.Rand, reads int) {
	t.Helper()
	noKeep := make([]bool, 4)
	for i := 0; i < reads; i++ {
		q := o.draw(rng)
		want := o.scan(o.sum, q.lo, q.ext, noKeep)[0]
		got, err := eng.RangeSum(q.ranges)
		if err != nil || got != want {
			t.Fatalf("RangeSum(%v) = %v (%v), scan %v", q.ranges, got, err, want)
		}
		within, ok, err := eng.RangeSumWithin(q.ranges)
		if err != nil || !ok || within != want {
			t.Fatalf("RangeSumWithin(%v) = %v, %v (%v), scan %v", q.ranges, within, ok, err, want)
		}
		groups := o.scan(o.sum, q.lo, q.ext, q.keep)
		v, err := eng.GroupByWhere(q.keepBy, q.ranges)
		if err != nil {
			t.Fatalf("GroupByWhere(%v, %v): %v", q.keepBy, q.ranges, err)
		}
		o.checkGroups(t, fmt.Sprintf("GroupByWhere(%v, %v)", q.keepBy, q.ranges), v.Data(), q.keep, groups)
	}
}

// checkGroups compares a grouped answer laid out over the padded kept
// extents with the scan's groups over the cardinalities; padding groups
// must be zero.
func (o *oracleCube) checkGroups(t *testing.T, what string, data []float64, keep []bool, want []float64) {
	t.Helper()
	var shape []int
	for m, n := range o.cards {
		if keep[m] {
			shape = append(shape, 1<<bits.Len(uint(n-1)))
		}
	}
	idx := make([]int, len(shape))
	for off, got := range data {
		rest, g, real := off, 0, true
		for j := len(shape) - 1; j >= 0; j-- {
			idx[j], rest = rest%shape[j], rest/shape[j]
		}
		k := 0
		for m, n := range o.cards {
			if keep[m] {
				if idx[k] >= n {
					real = false
				}
				g = g*n + min(idx[k], n-1)
				k++
			}
		}
		w := 0.0
		if real {
			w = want[g]
		}
		if got != w {
			t.Fatalf("%s: group %v = %v, scan %v", what, idx, got, w)
		}
	}
}

// checkVector compares the measure-vector engine's range reads — RangeAgg
// SUM and COUNT, and filtered SQL — against the scans of both planes, and
// its SUM reads — GroupBy, Total, RangeSum, RangeSumIndex and GroupByWhere,
// which answer the SUM plane — against the SUM scan and the engine's own
// SUM aggregates.
func (o *oracleCube) checkVector(t *testing.T, a *Engine, rng *rand.Rand, reads int) {
	t.Helper()
	noKeep := make([]bool, 4)
	for i := 0; i < reads; i++ {
		q := o.draw(rng)
		for _, c := range []struct {
			kind  AggKind
			cells []float64
		}{{AggSum, o.sum}, {AggCount, o.count}} {
			want := o.scan(c.cells, q.lo, q.ext, noKeep)[0]
			got, err := a.RangeAgg(c.kind, q.ranges)
			if err != nil || got != want {
				t.Fatalf("RangeAgg(%v, %v) = %v (%v), scan %v", c.kind, q.ranges, got, err, want)
			}
		}
		o.checkVectorSum(t, a, q)
		sql := "SELECT SUM(m), COUNT(*)"
		for j, d := range q.keepBy {
			sql += map[bool]string{true: " GROUP BY ", false: ", "}[j == 0] + d
		}
		sep := " WHERE "
		for _, d := range o.dims {
			if r, ok := q.ranges[d]; ok {
				sql += fmt.Sprintf("%s%s BETWEEN '%s' AND '%s'", sep, d, r.Lo, r.Hi)
				sep = " AND "
			}
		}
		res, err := a.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		sums, counts := o.scan(o.sum, q.lo, q.ext, q.keep), o.scan(o.count, q.lo, q.ext, q.keep)
		rows := 0
		for _, n := range counts {
			if n > 0 {
				rows++
			}
		}
		if len(res.Rows) != rows {
			t.Fatalf("%s: %d rows, scan has %d non-empty groups", sql, len(res.Rows), rows)
		}
		for _, row := range res.Rows {
			g := 0
			for j, d := range q.keepBy {
				m, _ := a.Cube().DimIndex(d)
				var code int
				fmt.Sscanf(row.Key[j][1:], "%d", &code)
				g = g*o.cards[m] + code
			}
			if row.Values[0] != sums[g] || row.Values[1] != counts[g] {
				t.Fatalf("%s: row %v = %v, scan [%v %v]", sql, row.Key, row.Values, sums[g], counts[g])
			}
		}
	}
}

// checkVectorSum asks the measure-vector engine's SUM reads for q, each
// against the scan of the SUM plane and against GroupByAgg(AggSum) or
// RangeAgg(AggSum) of the same engine.
func (o *oracleCube) checkVectorSum(t *testing.T, a *Engine, q oracleQuery) {
	t.Helper()
	noKeep := make([]bool, 4)
	whole := make([]int, 4)
	for _, c := range []struct {
		what   string
		ranges map[string]ValueRange
		read   func() (float64, error)
	}{
		{"Total()", nil, a.Total},
		{fmt.Sprintf("RangeSum(%v)", q.ranges), q.ranges, func() (float64, error) { return a.RangeSum(q.ranges) }},
		{fmt.Sprintf("RangeSumIndex(%v, %v)", q.lo, q.ext), q.ranges, func() (float64, error) { return a.RangeSumIndex(q.lo, q.ext) }},
	} {
		lo, ext := q.lo, q.ext
		if c.ranges == nil {
			lo, ext = whole, o.cards
		}
		want := o.scan(o.sum, lo, ext, noKeep)[0]
		agg, err := a.RangeAgg(AggSum, c.ranges)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.read()
		if err != nil || got != want || got != agg {
			t.Fatalf("%s = %v (%v), scan %v, RangeAgg(AggSum) %v", c.what, got, err, want, agg)
		}
	}

	v, err := a.GroupBy(q.keepBy...)
	if err != nil {
		t.Fatalf("GroupBy(%v): %v", q.keepBy, err)
	}
	what := fmt.Sprintf("GroupBy(%v)", q.keepBy)
	o.checkGroups(t, what, v.Data(), q.keep, o.scan(o.sum, whole, o.cards, q.keep))
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := a.GroupByAgg(AggSum, q.keepBy...)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(agg) {
		t.Fatalf("%s has %d groups, GroupByAgg(AggSum) %d", what, len(groups), len(agg))
	}
	for k, got := range groups {
		if want, ok := agg[k]; !ok || got != want {
			t.Fatalf("%s: group %q = %v, GroupByAgg(AggSum) %v", what, k, got, want)
		}
	}

	v, err = a.GroupByWhere(q.keepBy, q.ranges)
	if err != nil {
		t.Fatalf("GroupByWhere(%v, %v): %v", q.keepBy, q.ranges, err)
	}
	o.checkGroups(t, fmt.Sprintf("GroupByWhere(%v, %v)", q.keepBy, q.ranges), v.Data(), q.keep, o.scan(o.sum, q.lo, q.ext, q.keep))
}

// TestRangeContractionEquivalence is the differential range oracle.
func TestRangeContractionEquivalence(t *testing.T) {
	small := func(rng *rand.Rand) float64 { return float64(rng.Intn(200) - 60) }
	cubes := []struct {
		name  string
		cards []int
		rows  int
	}{
		{"power of two", []int{8, 4, 8, 4}, 110},
		{"other cardinalities", []int{6, 5, 7, 3}, 160},
	}
	for ci, c := range cubes {
		o := newOracleCube(t, int64(ci+1), c.cards, c.rows, small)
		for si, s := range oracleSets {
			t.Run(c.name+"/width 1/"+s.name, func(t *testing.T) {
				eng := o.scalarEngine(t, s)
				if s.handOver && len(s.optimize) == 0 && !sparseRoot(eng) {
					t.Fatal("fixture: the handed-over root is not held sparse")
				}
				o.checkScalar(t, eng, rand.New(rand.NewSource(int64(10*ci+si))), 60)
			})
			t.Run(c.name+"/width 3/"+s.name, func(t *testing.T) {
				a, err := NewAggEngine(o.tbl, EngineOptions{StorageBudget: int(s.budget * float64(volumeOf(c.cards)))})
				if err != nil {
					t.Fatal(err)
				}
				if s.handOver {
					a.Cube().ReleaseCells()
				}
				for _, w := range s.workloads(a.Cube(), t) {
					if err := a.Optimize(w); err != nil {
						t.Fatal(err)
					}
				}
				o.checkVector(t, a, rand.New(rand.NewSource(int64(10*ci+si))), 30)
			})
		}
		t.Run(c.name+"/width 1/wavelet basis", func(t *testing.T) {
			o.checkWavelet(t, rand.New(rand.NewSource(int64(ci))), 60)
		})
	}

	// Σ|v| stays below 2^53 while Σ|v| · 2^(Σ log2 n_m) does not: every
	// answer is still an exact integer.
	big := func(rng *rand.Rand) float64 { return float64(1<<44 + rng.Int63n(1<<40)*2 + 1) }
	o := newOracleCube(t, 9, []int{8, 5, 4, 3}, 40, big)
	var mass float64
	for _, v := range o.sum {
		mass += math.Abs(v)
	}
	if mass >= 1<<53 || mass*float64(int(1)<<(3+3+2+2)) < 1<<53 {
		t.Fatalf("fixture: Σ|v| = %g does not straddle the bound", mass)
	}
	for si, s := range oracleSets {
		t.Run("large mass/"+s.name, func(t *testing.T) {
			o.checkScalar(t, o.scalarEngine(t, s), rand.New(rand.NewSource(int64(100+si))), 60)
		})
	}
	t.Run("large mass/wavelet basis", func(t *testing.T) {
		o.checkWavelet(t, rand.New(rand.NewSource(99)), 60)
	})
}

func volumeOf(cards []int) int {
	v := 1
	for _, n := range cards {
		v *= 1 << bits.Len(uint(n-1))
	}
	return v
}

// checkWavelet drives the contraction kernel over the cube's wavelet basis:
// ranges and grouped ranges, each against the scan.
func (o *oracleCube) checkWavelet(t *testing.T, rng *rand.Rand, reads int) {
	t.Helper()
	cube, err := FromRelation(o.tbl)
	if err != nil {
		t.Fatal(err)
	}
	space := cube.space
	st, err := assembly.MaterializeSet(space, cube.data, velement.WaveletBasis(space))
	if err != nil {
		t.Fatal(err)
	}
	eng := assembly.NewEngine(space, st)
	root, err := eng.ComputePlan(space.Root())
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, v := range cube.data.Data() {
		mass += math.Abs(v)
	}
	noKeep := make([]bool, 4)
	for i := 0; i < reads; i++ {
		q := o.draw(rng)
		var sum [1]float64
		if _, err := eng.ContractRange(nil, root, q.lo, q.ext, mass, sum[:]); err != nil || sum[0] != o.scan(o.sum, q.lo, q.ext, noKeep)[0] {
			t.Fatalf("ContractRange(%v, %v) = %v (%v), scan %v", q.lo, q.ext, sum[0], err, o.scan(o.sum, q.lo, q.ext, noKeep)[0])
		}
		lo, ext := append([]int(nil), q.lo...), append([]int(nil), q.ext...)
		for m, kept := range q.keep {
			if kept {
				lo[m], ext[m] = 0, space.Dim(m)
			}
		}
		arr, _, err := eng.ContractGrouped(nil, root, lo, ext, q.keep, 1, mass)
		if err != nil {
			t.Fatal(err)
		}
		o.checkGroups(t, fmt.Sprintf("ContractGrouped(%v, %v, keep %v)", lo, ext, q.keep), arr.Data(), q.keep, o.scan(o.sum, q.lo, q.ext, q.keep))
	}
}

// TestGroupByContractionEquivalence is the differential group-by oracle:
// every keep mask, answered by GroupBy (width 1) and by GroupByAgg SUM and
// COUNT (width 3), compared with == against the scan, over the stored sets
// of the range oracle and, through the kernel itself, the wavelet basis.
func TestGroupByContractionEquivalence(t *testing.T) {
	small := func(rng *rand.Rand) float64 { return float64(rng.Intn(200) - 60) }
	for ci, c := range []struct {
		name  string
		cards []int
		rows  int
	}{
		{"power of two", []int{8, 4, 8, 4}, 110},
		{"other cardinalities", []int{6, 5, 7, 3}, 160},
	} {
		o := newOracleCube(t, int64(ci+1), c.cards, c.rows, small)
		for _, s := range oracleSets {
			t.Run(c.name+"/width 1/"+s.name, func(t *testing.T) {
				eng := o.scalarEngine(t, s)
				for _, keep := range o.keepMasks() {
					v, err := eng.GroupBy(o.keptNames(keep)...)
					if err != nil {
						t.Fatalf("GroupBy(%v): %v", o.keptNames(keep), err)
					}
					o.checkGroups(t, fmt.Sprintf("GroupBy(%v)", o.keptNames(keep)), v.Data(), keep, o.scan(o.sum, o.whole(), o.cardsCopy(), keep))
				}
			})
			t.Run(c.name+"/width 3/"+s.name, func(t *testing.T) {
				a, err := NewAggEngine(o.tbl, EngineOptions{StorageBudget: int(s.budget * float64(volumeOf(c.cards)))})
				if err != nil {
					t.Fatal(err)
				}
				if s.handOver {
					a.Cube().ReleaseCells()
				}
				for _, w := range s.workloads(a.Cube(), t) {
					if err := a.Optimize(w); err != nil {
						t.Fatal(err)
					}
				}
				for _, keep := range o.keepMasks() {
					for _, k := range []struct {
						kind  AggKind
						cells []float64
					}{{AggSum, o.sum}, {AggCount, o.count}} {
						got, err := a.GroupByAgg(k.kind, o.keptNames(keep)...)
						if err != nil {
							t.Fatalf("GroupByAgg(%v, %v): %v", k.kind, o.keptNames(keep), err)
						}
						o.checkGroupMap(t, fmt.Sprintf("GroupByAgg(%v, %v)", k.kind, o.keptNames(keep)), got, keep, o.scan(k.cells, o.whole(), o.cardsCopy(), keep))
					}
				}
			})
		}
		t.Run(c.name+"/width 1/wavelet basis", func(t *testing.T) {
			cube, err := FromRelation(o.tbl)
			if err != nil {
				t.Fatal(err)
			}
			space := cube.space
			st, err := assembly.MaterializeSet(space, cube.data, velement.WaveletBasis(space))
			if err != nil {
				t.Fatal(err)
			}
			eng := assembly.NewEngine(space, st)
			for _, keep := range o.keepMasks() {
				el, err := cube.ViewKeeping(o.keptNames(keep)...)
				if err != nil {
					t.Fatal(err)
				}
				arr, err := assemble(eng, el.rect)
				if err != nil {
					t.Fatal(err)
				}
				o.checkGroups(t, fmt.Sprintf("Answer(%v)", el.rect), arr.Data(), keep, o.scan(o.sum, o.whole(), o.cardsCopy(), keep))
			}
		})
	}
}

// assemble plans element r with Procedure 3 over k's stored set and executes
// the plan.
func assemble(k *assembly.Engine, r freq.Rect) (*ndarray.Array, error) {
	p, err := k.ComputePlan(r)
	if err != nil {
		return nil, err
	}
	return k.Execute(nil, p)
}

// keepMasks is every subset of the dimensions, as keep masks.
func (o *oracleCube) keepMasks() [][]bool {
	var out [][]bool
	for mask := 0; mask < 1<<len(o.dims); mask++ {
		keep := make([]bool, len(o.dims))
		for m := range keep {
			keep[m] = mask&(1<<m) != 0
		}
		out = append(out, keep)
	}
	return out
}

func (o *oracleCube) keptNames(keep []bool) []string {
	var out []string
	for m, k := range keep {
		if k {
			out = append(out, o.dims[m])
		}
	}
	return out
}

// whole and cardsCopy are the box covering every cell.
func (o *oracleCube) whole() []int     { return make([]int, len(o.cards)) }
func (o *oracleCube) cardsCopy() []int { return append([]int(nil), o.cards...) }

// checkGroupMap compares a map answer keyed by member names with the scan:
// one entry per group of the cardinalities, each equal.
func (o *oracleCube) checkGroupMap(t *testing.T, what string, got map[string]float64, keep []bool, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, scan has %d", what, len(got), len(want))
	}
	key := make([]string, 0, len(o.dims))
	for g, w := range want {
		key, rest := key[:0], g
		for m := len(o.dims) - 1; m >= 0; m-- {
			if keep[m] {
				key = append([]string{o.member(m, rest%o.cards[m])}, key...)
				rest /= o.cards[m]
			}
		}
		k := strings.Join(key, string(relation.UnitSep))
		if v, ok := got[k]; !ok || v != w {
			t.Fatalf("%s: group %q = %v (present %v), scan %v", what, key, v, ok, w)
		}
	}
}
