package viewcube

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"viewcube/internal/ndarray"
	"viewcube/internal/plan"
	"viewcube/internal/relation"
)

// This file pins the columnar Result against the path it replaced, kept
// here as test-only references: the dense array exploded into a
// map[string]float64 (relation.ViewGroups / ViewGroupsVec), re-keyed with
// "/" by the /groupby handler or tabulated by sqlResult for /query, and
// reflected through encoding/json.

// refViewGroups is the retired relation.Encoding.ViewGroups.
func refViewGroups(e *relation.Encoding, view *ndarray.Array, aggregated []bool) (map[string]float64, error) {
	out := make(map[string]float64)
	var bad error
	view.Each(func(idx []int, v float64) {
		if bad != nil {
			return
		}
		var parts []string
		for m, i := range idx {
			if aggregated[m] {
				continue
			}
			val, ok := e.Dicts[m].Value(i)
			if !ok {
				if v != 0 {
					bad = fmt.Errorf("relation: nonzero padding cell at %v", idx)
				}
				return
			}
			parts = append(parts, val)
		}
		out[relation.GroupKey(parts...)] += v
	})
	return out, bad
}

// refFinalizeGroups is the retired measure-vector engine's finalizeGroups over
// ViewGroupsVec: SUM and COUNT report every group, the count-dividing kinds
// drop the empty ones.
func refFinalizeGroups(e *relation.Encoding, ma *ndarray.Array, aggregated []bool, spec plan.MeasureSpec, kind AggKind) (map[string]float64, error) {
	switch kind {
	case AggSum:
		return refViewGroups(e, ma.Plane(spec.Sum), aggregated)
	case AggCount:
		return refViewGroups(e, ma.Plane(spec.Count), aggregated)
	}
	out := make(map[string]float64)
	vec := make([]float64, spec.Width)
	comp0 := ma.Plane(0)
	var bad error
	comp0.Each(func(idx []int, _ float64) {
		var parts []string
		for m, i := range idx {
			if aggregated[m] {
				continue
			}
			val, ok := e.Dicts[m].Value(i)
			if !ok {
				for c := 0; c < spec.Width; c++ {
					if ma.Plane(c).At(idx...) != 0 {
						bad = fmt.Errorf("relation: nonzero padding cell at %v", idx)
					}
				}
				return
			}
			parts = append(parts, val)
		}
		for c := range vec {
			vec[c] = ma.Plane(c).At(idx...)
		}
		if vec[spec.Count] == 0 {
			return
		}
		if v, ok := spec.Finalize(kind, vec); ok {
			out[relation.GroupKey(parts...)] = v
		}
	})
	return out, bad
}

// refRow and refRows are the retired sqlResult and the /query handler's
// queryRow: rows sorted by group key, filtered groups with zero tuples
// skipped, a nil key rendered as [].
type refRow struct {
	Key    []string  `json:"key"`
	Values []float64 `json:"values"`
}

func refRows(aggs []AggKind, spec plan.MeasureSpec, sums, sumsqs, counts map[string]float64) []refRow {
	keySet := sums
	if counts != nil {
		keySet = counts
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	comps := make([]float64, spec.Width)
	var rows []refRow
	for _, k := range keys {
		if counts != nil && counts[k] == 0 {
			continue
		}
		row := refRow{Key: SplitGroupKey(k)}
		if row.Key == nil {
			row.Key = []string{}
		}
		for _, agg := range aggs {
			switch agg {
			case AggSum:
				row.Values = append(row.Values, sums[k])
			case AggCount:
				row.Values = append(row.Values, counts[k])
			case AggAvg:
				row.Values = append(row.Values, sums[k]/counts[k])
			case AggVar, AggStdDev:
				comps[spec.Sum], comps[spec.SumSq], comps[spec.Count] = sums[k], sumsqs[k], counts[k]
				v, _ := spec.Finalize(agg, comps)
				row.Values = append(row.Values, v)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// refGroupsJSON is what the /groupby handler wrote: keys re-joined with "/",
// through json.Encoder.
func refGroupsJSON(t *testing.T, groups map[string]float64) []byte {
	t.Helper()
	out := make(map[string]float64, len(groups))
	for k, v := range groups {
		out[strings.Join(SplitGroupKey(k), "/")] = v
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// adversarialMembers holds no "/" and no group-key separator — those make
// keys ambiguous and have their own test — but everything else that makes
// coordinate order, byte order and JSON text disagree: bytes below "/",
// quotes, backslashes, HTML characters, control bytes, U+2028, invalid
// UTF-8, multi-byte runes, and values that are prefixes of one another. (Nor
// the empty string: as a dimension's lone kept value the map path split its
// key "" back into no values at all, which is not worth reproducing.)
var adversarialMembers = []string{
	"ale", "ale-dark", "ale dark", "ale.x", "ale0", "ale~", "al", "a",
	"b\"q", "b\\q", "<b>", "a&b", "tab\there", "nl\nhere", "bell\x07", "del\x7f",
	"\u2028sep", "x\u2029", "caf\u00e9", "\u65e5\u672c", "\U0001f37a", "bad\xffutf", "\xc3", "\xe2\x82",
	"-", ".", " ", "!", "+", ",", "0", "A", "Z", "z", "~",
}

var adversarialValues = []float64{
	0, 1, -1, 2, 17, 1234567, -98765, 1 << 52, 1<<53 + 2, 1e15, 1e20, 1e21, 1e22, -1e21,
	math.Copysign(0, -1), 1e-6, 1e-7, -1e-7, 9.5e-7, 0.1 + 0.2, 1.5, -2.25, 123456.789, 1e-9, 5e-324, 1e300,
}

// randomCube draws a rank-1..4 encoded cube whose dictionaries hold 1..5
// adversarial members each, inserted in random (unsorted) order and padded
// to a power of two.
func randomCube(rng *rand.Rand) *Cube {
	rank := 1 + rng.Intn(4)
	enc := &relation.Encoding{}
	for m := 0; m < rank; m++ {
		dict := relation.NewDictionary()
		for _, i := range rng.Perm(len(adversarialMembers))[:1+rng.Intn(5)] {
			dict.Encode(adversarialMembers[i])
		}
		enc.Dimensions = append(enc.Dimensions, fmt.Sprintf("d%d", m))
		enc.Dicts = append(enc.Dicts, dict)
		enc.Shape = append(enc.Shape, dict.PaddedLen())
	}
	return &Cube{dims: enc.Dimensions, enc: enc}
}

// viewShape is the shape of the aggregated view keeping the masked
// dimensions, and the matching kept/aggregated forms.
func viewShape(c *Cube, mask int) (shape, kept []int, aggregated []bool) {
	for m := range c.dims {
		if mask>>m&1 == 1 {
			shape, kept, aggregated = append(shape, c.enc.Shape[m]), append(kept, m), append(aggregated, false)
		} else {
			shape, aggregated = append(shape, 1), append(aggregated, true)
		}
	}
	return shape, kept, aggregated
}

// fillLive sets every non-padding cell of arr from draw.
func fillLive(c *Cube, arr *ndarray.Array, draw func() float64) {
	data := arr.Data()
	for off := range data {
		live := true
		for m, i := range arr.Index(off) {
			if arr.Dim(m) > 1 && i >= c.enc.Dicts[m].Len() {
				live = false
			}
		}
		if live {
			data[off] = draw()
		}
	}
}

// TestResultJSONDifferential: for seeded random adversarial cubes and every
// keep-set, AppendGroupsJSON and AppendRowsJSON are byte-identical to
// json.Encoder over the retired map path — scalar and width-3 results, every
// aggregate kind, empty groups dropped where the old path dropped them — and
// NaN and nonzero padding are errors.
func TestResultJSONDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	value := func() float64 { return adversarialValues[rng.Intn(len(adversarialValues))] }
	spec := plan.StatsMeasure()
	cases := 0
	for cases < 2400 {
		c := randomCube(rng)
		for mask := 0; mask < 1<<len(c.dims); mask++ {
			cases++
			shape, kept, aggregated := viewShape(c, mask)

			// Scalar: the /groupby body and a SUM-only /query's rows.
			arr := ndarray.New(shape...)
			fillLive(c, arr, value)
			res, err := viewResult(c, kept, shape, arr.Data(), 1)
			if err != nil {
				t.Fatal(err)
			}
			sums, err := refViewGroups(c.enc, arr, aggregated)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.AppendGroupsJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := refGroupsJSON(t, sums); !bytes.Equal(got, want) {
				t.Fatalf("case %d scalar groups:\n got %s\nwant %s", cases, got, want)
			}
			res.aggs = []AggKind{AggSum, AggSum}
			checkRows(t, cases, res, refRows(res.aggs, plan.MeasureSpec{}, sums, nil, nil))

			// Width 3: [Σv, Σv², Σ1] with empty groups, every aggregate kind.
			ma := ndarray.NewPlanes(3, shape...)
			fillLive(c, ma.Plane(spec.Count), func() float64 { return float64(rng.Intn(4)) })
			counts := ma.Plane(spec.Count).Data()
			for off, n := range counts {
				if n > 0 {
					v := float64(rng.Intn(2000)-1000) / 8
					ma.Plane(spec.Sum).Data()[off] = v * n
					ma.Plane(spec.SumSq).Data()[off] = v*v*n + float64(rng.Intn(5))
				}
			}
			planes := make([]map[string]float64, 3)
			for comp := range planes {
				if planes[comp], err = refViewGroups(c.enc, ma.Plane(comp), aggregated); err != nil {
					t.Fatal(err)
				}
			}
			for _, kind := range []AggKind{AggSum, AggCount, AggAvg, AggVar, AggStdDev} {
				vres, err := viewResult(c, kept, shape, ma.Data(), 3)
				if err != nil {
					t.Fatal(err)
				}
				vres.spec, vres.aggs, vres.dropEmpty = spec, []AggKind{kind}, kind.NeedsCount()
				want, err := refFinalizeGroups(c.enc, ma, aggregated, spec, kind)
				if err != nil {
					t.Fatal(err)
				}
				got, err := vres.AppendGroupsJSON(nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := refGroupsJSON(t, want); !bytes.Equal(got, want) {
					t.Fatalf("case %d %v groups:\n got %s\nwant %s", cases, kind, got, want)
				}
			}
			vres, _ := viewResult(c, kept, shape, ma.Data(), 3)
			vres.spec, vres.dropEmpty = spec, true
			vres.aggs = []AggKind{AggStdDev, AggSum, AggAvg, AggCount, AggVar}
			checkRows(t, cases, vres, refRows(vres.aggs, spec, planes[spec.Sum], planes[spec.SumSq], planes[spec.Count]))
		}
	}

	// Values JSON cannot carry, and arrays that are not aggregated views.
	c := randomCube(rng)
	shape, kept, _ := viewShape(c, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		arr := ndarray.New(shape...)
		arr.Data()[0] = bad
		res, _ := viewResult(c, kept, shape, arr.Data(), 1)
		if _, err := res.AppendGroupsJSON(nil); err == nil {
			t.Errorf("AppendGroupsJSON encoded %v", bad)
		}
		if _, err := res.AppendRowsJSON(nil); err == nil {
			t.Errorf("AppendRowsJSON encoded %v", bad)
		}
	}
	for c.enc.Dicts[0].Len() == c.enc.Shape[0] {
		c = randomCube(rng) // until dimension 0 has padding
	}
	shape, kept, _ = viewShape(c, 1)
	arr := ndarray.New(shape...)
	arr.Data()[c.enc.Shape[0]-1] = 1
	res, _ := viewResult(c, kept, shape, arr.Data(), 1)
	for name, encode := range map[string]func([]byte) ([]byte, error){"groups": res.AppendGroupsJSON, "rows": res.AppendRowsJSON} {
		if _, err := encode(nil); err == nil || !strings.Contains(err.Error(), "nonzero padding cell") {
			t.Errorf("%s: nonzero padding encoded (err %v)", name, err)
		}
	}
	if _, err := res.Groups(); err == nil {
		t.Error("Groups accepted a nonzero padding cell")
	}
	if _, err := viewResult(c, kept, append([]int{1}, shape[1:]...), arr.Data()[:1], 1); err == nil {
		t.Error("newResult accepted an array that is not the kept view's shape")
	}
	checkRunForms(t)
}

// boundaryValues are the cells the encoder's number paths split on: integers
// of 1 to 17 digits and at ±(2⁵³−1) and ±2⁵³ around the in-place itoa, −0,
// the 'e' forms, and decimals, which stay with strconv.
var boundaryValues = []float64{
	7, 42, 999, 1000, 12345, 999999, 1234567, 99999999, 123456789, 1234567890, 12345678901, 123456789012,
	1234567890123, 12345678901234, 123456789012345, 1234567890123456, 12345678901234567,
	1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), math.Copysign(0, -1), 0, 1e21, -1e21, 1e-7, -1e-7,
	0.5, -0.25, 0.125, 0.29, 1.005, 2.675, 100.10, 0.001, 0.0005, 0.1 + 0.2, 999999999999.5, 1e12 + 0.5, -17,
}

// checkRunForms covers what the run-at-a-time encoder adds, on dictionaries
// chosen for it: a last key position of one member, padding on the last and
// on an outer position, every boundary value, and — by a row mask, then by
// zero counts under width-3 AVG and VAR — rows missing from the start, the
// middle and the end of a run, and a whole run missing.
func checkRunForms(t *testing.T) {
	spec := plan.StatsMeasure()
	for n, counts := range [][]int{{1}, {5}, {5, 1}, {1, 5}, {3, 4}, {4, 3}, {3, 3}, {2, 1, 3}, {3, 5, 1}, {2, 3, 5}} {
		enc := &relation.Encoding{}
		for m, count := range counts {
			dict := relation.NewDictionary()
			for i := 0; i < count; i++ {
				dict.Encode(adversarialMembers[(7*m+3*i+n)%len(adversarialMembers)])
			}
			enc.Dimensions = append(enc.Dimensions, fmt.Sprintf("d%d", m))
			enc.Dicts = append(enc.Dicts, dict)
			enc.Shape = append(enc.Shape, dict.PaddedLen())
		}
		c := &Cube{dims: enc.Dimensions, enc: enc}
		shape, kept, aggregated := viewShape(c, 1<<len(counts)-1)
		keyOf := func(arr *ndarray.Array, off int) string {
			var parts []string
			for m, i := range arr.Index(off) {
				v, _ := enc.Dicts[m].Value(i)
				parts = append(parts, v)
			}
			return relation.GroupKey(parts...)
		}
		// gone marks, run by run along the last position, the first, the
		// middle, the last or every live cell.
		lastExt, lastLive := shape[len(shape)-1], counts[len(counts)-1]
		gone := make([]bool, ndarray.New(shape...).Size())
		for run := 0; run*lastExt < len(gone); run++ {
			for j := 0; j < lastLive; j++ {
				gone[run*lastExt+j] = run%4 == 3 || j == []int{0, lastLive / 2, lastLive - 1}[run%4%3]
			}
		}

		next := n
		arr := ndarray.New(shape...)
		fillLive(c, arr, func() float64 { next++; return boundaryValues[next%len(boundaryValues)] })
		sums, err := refViewGroups(enc, arr, aggregated)
		if err != nil {
			t.Fatal(err)
		}
		for _, masked := range []bool{false, true} {
			res, err := viewResult(c, kept, shape, arr.Data(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if masked {
				res.mask = make([]bool, len(gone))
				for off := range gone {
					if res.mask[off] = !gone[off]; gone[off] {
						delete(sums, keyOf(arr, off))
					}
				}
			}
			got, err := res.AppendGroupsJSON([]byte("scratch"))
			if err != nil {
				t.Fatal(err)
			}
			if want := append([]byte("scratch"), refGroupsJSON(t, sums)...); !bytes.Equal(got, want) {
				t.Fatalf("run form %v masked %v groups:\n got %s\nwant %s", counts, masked, got, want)
			}
			if res.Len() != len(sums) {
				t.Fatalf("run form %v masked %v: Len %d, want %d", counts, masked, res.Len(), len(sums))
			}
			checkRows(t, n, res, refRows(res.aggs, plan.MeasureSpec{}, sums, nil, nil))
		}

		// Width 3 beside it: a zero count wherever the mask dropped a row.
		ma := ndarray.NewPlanes(3, shape...)
		fillLive(c, ma.Plane(spec.Count), func() float64 { next++; return float64(1 + next%3) })
		for off, cnt := range ma.Plane(spec.Count).Data() {
			if gone[off] {
				ma.Plane(spec.Count).Data()[off] = 0
			} else if cnt > 0 {
				v := float64(next%2000-1000) / 8
				next += 37
				ma.Plane(spec.Sum).Data()[off], ma.Plane(spec.SumSq).Data()[off] = v*cnt, v*v*cnt+float64(next%5)
			}
		}
		planes := make([]map[string]float64, 3)
		for comp := range planes {
			if planes[comp], err = refViewGroups(enc, ma.Plane(comp), aggregated); err != nil {
				t.Fatal(err)
			}
		}
		for _, kind := range []AggKind{AggAvg, AggVar} {
			vres, err := viewResult(c, kept, shape, ma.Data(), 3)
			if err != nil {
				t.Fatal(err)
			}
			vres.spec, vres.aggs, vres.dropEmpty = spec, []AggKind{kind}, true
			want, err := refFinalizeGroups(enc, ma, aggregated, spec, kind)
			if err != nil {
				t.Fatal(err)
			}
			got, err := vres.AppendGroupsJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := refGroupsJSON(t, want); !bytes.Equal(got, want) {
				t.Fatalf("run form %v %v groups:\n got %s\nwant %s", counts, kind, got, want)
			}
			vres.aggs = []AggKind{AggSum, kind, AggCount}
			checkRows(t, n, vres, refRows(vres.aggs, spec, planes[spec.Sum], planes[spec.SumSq], planes[spec.Count]))
		}
	}
}

func checkRows(t *testing.T, n int, res *Result, want []refRow) {
	t.Helper()
	got, err := res.AppendRowsJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("case %d rows %v:\n got %s\nwant %s", n, res.aggs, got, wantJSON)
	}
	// The library form walks the same rows.
	qr, err := res.QueryResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != len(want) {
		t.Fatalf("case %d: QueryResult has %d rows, want %d", n, len(qr.Rows), len(want))
	}
	for i, row := range qr.Rows {
		if strings.Join(row.Key, "\x00") != strings.Join(want[i].Key, "\x00") {
			t.Fatalf("case %d row %d key %q, want %q", n, i, row.Key, want[i].Key)
		}
		for j, v := range row.Values {
			if math.Float64bits(v) != math.Float64bits(want[i].Values[j]) {
				t.Fatalf("case %d row %d value %d = %v, want %v", n, i, j, v, want[i].Values[j])
			}
		}
	}
}

// TestResultGroupsSeparatorCollision: two groups whose values contain "/"
// can render the same /groupby key. The map path let one of them win by
// map-iteration order — a different answer run to run; the encoder writes
// both rows, in coordinate order, every time, and keeps keys that merely
// contain "/" in json.Encoder's order.
func TestResultGroupsSeparatorCollision(t *testing.T) {
	enc := &relation.Encoding{Dimensions: []string{"x", "y"}}
	for _, members := range [][]string{{"a", "a/b", "a/c", "a0"}, {"b/c", "c", "d", "!"}} {
		dict := relation.NewDictionary()
		for _, m := range members {
			dict.Encode(m)
		}
		enc.Dicts = append(enc.Dicts, dict)
		enc.Shape = append(enc.Shape, dict.PaddedLen())
	}
	c := &Cube{dims: enc.Dimensions, enc: enc}
	arr := ndarray.New(4, 4)
	for i := range arr.Data() {
		arr.Data()[i] = float64(i + 1)
	}
	res, err := viewResult(c, []int{0, 1}, []int{4, 4}, arr.Data(), 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := res.AppendGroupsJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	// ("a","b/c") is cell 0 → 1 and ("a/b","c") is cell 5 → 6: both present,
	// adjacent, coordinate order.
	if !bytes.Contains(first, []byte(`"a/b/c":1,"a/b/c":6`)) {
		t.Fatalf("colliding keys not both written in coordinate order: %s", first)
	}
	for i := 0; i < 20; i++ {
		again, _ := res.AppendGroupsJSON(nil)
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding changed between runs:\n%s\n%s", first, again)
		}
	}
	// Every key in byte order, as json.Encoder sorts them.
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(first))
	dec.Token()
	for dec.More() {
		k, _ := dec.Token()
		keys = append(keys, k.(string))
		dec.Token()
	}
	if len(keys) != 16 || !sort.StringsAreSorted(keys) {
		t.Fatalf("%d keys, sorted %v: %q", len(keys), sort.StringsAreSorted(keys), keys)
	}
}

// mapMerge is the retired map-based coordinator merge.
func mapMerge(parts []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, g := range parts {
		for k, v := range g {
			out[k] += v
		}
	}
	return out
}

func sameGroupsBitwise(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: group %q = %v (present %v), want %v", what, k, g, ok, w)
		}
	}
}

// TestResultMerge: Result.Groups equals the retired ViewGroups map, and
// MergeResults equals the map merge, bit for bit — for shards that share
// dictionaries (index addition), for shards whose dictionaries differ (the
// merged rows are the union of the shards' rows, not the cross product of
// the unioned dictionaries), through the wire form, and with a shard
// missing.
func TestResultMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := func() float64 { return adversarialValues[rng.Intn(len(adversarialValues))] }
	for n := 0; n < 300; n++ {
		base := randomCube(rng)
		mask := rng.Intn(1 << len(base.dims))
		shards := 2 + rng.Intn(3)
		sameDicts := n%2 == 0
		var (
			parts  []*Result
			groups []map[string]float64
		)
		for s := 0; s < shards; s++ {
			c := base
			if !sameDicts {
				// Same dimension names, this shard's own subset of values.
				c = randomCube(rng)
				for len(c.dims) != len(base.dims) {
					c = randomCube(rng)
				}
				c.dims, c.enc.Dimensions = base.dims, base.dims
			}
			shape, kept, aggregated := viewShape(c, mask)
			arr := ndarray.New(shape...)
			fillLive(c, arr, value)
			res, err := viewResult(c, kept, shape, arr.Data(), 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refViewGroups(c.enc, arr, aggregated)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Groups()
			if err != nil {
				t.Fatal(err)
			}
			sameGroupsBitwise(t, "Groups vs ViewGroups", got, want)
			if s == 1 && n%3 == 0 {
				// As it arrives off the wire: dense, its own member slices.
				dense, err := res.Dense()
				if err != nil {
					t.Fatal(err)
				}
				dims, shared, _ := res.Header()
				members := make([][]string, len(kept))
				for i := range members {
					members[i] = append([]string(nil), shared[i]...)
				}
				if res, err = NewResult(dims, members, 1, append([]float64(nil), dense...)); err != nil {
					t.Fatal(err)
				}
			}
			if s == 2 && n%5 == 0 {
				parts = append(parts, nil) // a shard missing from a degraded answer
				continue
			}
			parts, groups = append(parts, res), append(groups, want)
		}
		merged, err := MergeResults(parts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := merged.Groups()
		if err != nil {
			t.Fatal(err)
		}
		want := mapMerge(groups)
		sameGroupsBitwise(t, fmt.Sprintf("case %d merge (same dictionaries %v)", n, sameDicts), got, want)
		if merged.Len() != len(want) {
			t.Fatalf("case %d: merged Len %d, want %d", n, merged.Len(), len(want))
		}
		// And the merged result encodes as the merged map did.
		body, err := merged.AppendGroupsJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantJSON := refGroupsJSON(t, want); !bytes.Equal(body, wantJSON) {
			t.Fatalf("case %d merged body:\n got %s\nwant %s", n, body, wantJSON)
		}
	}
	if _, err := MergeResults([]*Result{nil, nil}); err == nil {
		t.Error("MergeResults merged nothing without an error")
	}
}

// TestNewResultValidation: the wire decoder's constructor rejects every
// header/body disagreement.
func TestNewResultValidation(t *testing.T) {
	ab := [][]string{{"a", "b"}}
	for name, build := range map[string]func() (*Result, error){
		"dims vs members":   func() (*Result, error) { return NewResult([]string{"x", "y"}, ab, 1, []float64{1, 2}) },
		"width 0":           func() (*Result, error) { return NewResult([]string{"x"}, ab, 0, nil) },
		"too few values":    func() (*Result, error) { return NewResult([]string{"x"}, ab, 1, []float64{1}) },
		"too many values":   func() (*Result, error) { return NewResult([]string{"x"}, ab, 1, []float64{1, 2, 3}) },
		"width mismatch":    func() (*Result, error) { return NewResult([]string{"x"}, ab, 2, []float64{1, 2}) },
		"values, no groups": func() (*Result, error) { return NewResult([]string{"x"}, [][]string{{}}, 1, []float64{1}) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if r, err := NewResult(nil, nil, 1, []float64{42}); err != nil || r.Len() != 1 {
		t.Errorf("grand total: %v, %v", r, err)
	}
	if r, err := NewResult([]string{"x"}, [][]string{{}}, 1, nil); err != nil || r.Len() != 0 {
		t.Errorf("empty dictionary: %v, %v", r, err)
	}
}

// TestResultRelease: Release gives the assembled array back and empties the
// result — of a scalar view, a measure-vector view and a SQL answer — is a
// no-op the second time, on nil and on a result that owns no pooled array, and
// a merge never inherits its first part's lease, so it outlives the parts.
func TestResultRelease(t *testing.T) {
	tbl, err := NewTable([]string{"x", "y"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := tbl.Append([]string{fmt.Sprint("x", i%8), fmt.Sprint("y", i%4)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := FromRelation(tbl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggEngine(tbl, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, sa := eng.Safe(), agg.Safe()
	for name, ask := range map[string]func() (*Result, *QueryTrace, error){
		"groupby": func() (*Result, *QueryTrace, error) { return s.GroupByResult(false, "x") },
		"sql":     func() (*Result, *QueryTrace, error) { return s.Select(false, "SELECT SUM(m) GROUP BY x") },
		"sql where": func() (*Result, *QueryTrace, error) {
			return s.Select(false, "SELECT SUM(m) GROUP BY x WHERE y BETWEEN 'y1' AND 'y2'")
		},
		"agg groupby": func() (*Result, *QueryTrace, error) { return sa.GroupByAggResult(false, AggAvg, "x") },
		"agg sql":     func() (*Result, *QueryTrace, error) { return sa.Select(false, "SELECT AVG(m), COUNT(*) GROUP BY x") },
	} {
		r, _, err := ask()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.lease == nil {
			t.Fatalf("%s: the result does not hold its view's array", name)
		}
		want, err := r.AppendRowsJSON(nil)
		if err != nil || r.Len() != 8 {
			t.Fatalf("%s: %d rows, %v", name, r.Len(), err)
		}
		var merged *Result
		if r.width == 1 {
			if merged, err = MergeResults([]*Result{r}); err != nil || merged.lease != nil {
				t.Fatalf("%s: merge %v, lease inherited %v", name, err, merged != nil)
			}
		}
		r.Release()
		r.Release()
		if r.Len() != 0 || r.lease != nil {
			t.Fatalf("%s: a released result has %d rows", name, r.Len())
		}
		if body, err := r.AppendGroupsJSON(nil); err != nil || string(body) != "{}" {
			t.Fatalf("%s: a released result encodes as %q, %v", name, body, err)
		}
		if groups, err := r.Groups(); err != nil || len(groups) != 0 {
			t.Fatalf("%s: a released result has groups %v, %v", name, groups, err)
		}
		// The next query of the shape takes the buffer and overwrites it.
		again, _, err := ask()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := again.AppendRowsJSON(nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: after a release the same query answers %s, want %s", name, got, want)
		}
		if merged != nil {
			merged.Release() // owns nothing: stays whole
			if got, err := merged.AppendRowsJSON(nil); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: the merge of a released part reads %s, want %s", name, got, want)
			}
		}
	}
	var none *Result
	none.Release()
	built, err := NewResult([]string{"x"}, [][]string{{"a", "b"}}, 1, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if built.Release(); built.Len() != 2 {
		t.Fatal("Release emptied a result that owns no pooled array")
	}
}
