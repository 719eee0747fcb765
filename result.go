package viewcube

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"viewcube/internal/ndarray"
	"viewcube/internal/plan"
	"viewcube/internal/relation"
)

// Result is a query answer as a relation in columnar form — what Gray et
// al. define the CUBE answer to be: ordered rows over dictionary-coded
// dimensions, not a hash map. The header names the kept dimensions and
// holds their member lists, shared with the cube's dictionaries and never
// copied; the body is the assembled array's own value slice, addressed so
// that padding coordinates (codes past a dictionary's end) are stepped over
// rather than compacted away. Rows exist only on demand (DESIGN.md §17): a
// row's reported values are finalised from its component vector as it is
// emitted, the zero-count rule — a result of count-dividing aggregates has
// no row where no tuple fell — is applied there too, and a negative zero
// cell reads as 0, as the map path's += always made it. A Result is
// immutable and safe for concurrent use — until Release, which is for the
// holder of the only reference.
type Result struct {
	dims    []string          // kept dimensions in cube order: the key columns
	members [][]string        // per key position, the members in code order (read-only)
	orders  []*relation.Order // per key position: escaped text and key-order permutations
	ext     []int             // per key position, the array's extent (≥ the member count)

	vals  []float64 // width planes of plane cells, row-major over ext
	plane int
	width int
	mask  []bool // non-nil: only cells marked true are rows (a merge of differing dictionaries)

	spec      plan.MeasureSpec
	aggs      []AggKind // one reported value per row and entry
	columns   []string  // SQL answers: the GROUP BY names, then the aggregate labels
	dropEmpty bool      // rows whose tuple count is zero are not part of the answer

	// The array vals aliases when nothing else holds it: what Release gives
	// back.
	lease *ndarray.Array
}

// Release ends the life of a served answer: the array its view was assembled
// into goes back to the scratch pool, and the result is emptied, so a late
// reader finds the header and no rows — not another query's cells. It is for
// the holder of the only reference, once the response bytes exist; a result
// that is kept (cached, returned to a library caller) is never released. A
// result without a pooled array (merged, off the wire, from NewResult), a nil
// result and a second Release are no-ops.
func (r *Result) Release() {
	if r == nil || r.lease == nil {
		return
	}
	ndarray.Recycle(r.lease)
	r.vals, r.mask, r.width, r.lease = nil, nil, 0, nil
}

// newResult checks a header against its body: width planes of Π ext cells.
// The division keeps a forged width or extent from overflowing the product,
// and so does stopping once it passes the body — unless an extent is 0.
func newResult(r Result) (*Result, error) {
	r.plane, r.spec, r.aggs = 1, plan.ScalarMeasure(), oneAgg(AggSum)
	for _, e := range r.ext {
		if r.plane *= e; r.plane > len(r.vals) && !slices.Contains(r.ext, 0) {
			break
		}
	}
	if len(r.dims) != len(r.members) || r.width < 1 || len(r.vals)%r.width != 0 || len(r.vals)/r.width != r.plane {
		return nil, fmt.Errorf("viewcube: %d values for a width-%d result of extents %v", len(r.vals), r.width, r.ext)
	}
	return &r, nil
}

// NewResult builds a scalar-SUM result from its parts — the form a result
// has on the cluster wire: dimension names, each dimension's members in code
// order, and width dense planes of Π len(members[i]) values, row-major.
func NewResult(dims []string, members [][]string, width int, values []float64) (*Result, error) {
	r := Result{dims: dims, members: members, vals: values, width: width}
	for _, ms := range members {
		r.orders, r.ext = append(r.orders, relation.NewOrder(ms)), append(r.ext, len(ms))
	}
	return newResult(r)
}

// viewResult wraps the array of an aggregated view of an encoded cube:
// width planes of shape cells, the cube's extent on each kept dimension and 1
// on every other — which therefore drops out of the addressing.
func viewResult(c *Cube, kept []int, shape []int, vals []float64, width int) (*Result, error) {
	if c.enc == nil && len(kept) > 0 {
		return nil, fmt.Errorf("viewcube: cube has no dictionary encoding")
	}
	r := Result{vals: vals, width: width}
	want := make([]int, len(c.dims))
	for m := range want {
		want[m] = 1
	}
	for _, m := range kept {
		dict := c.enc.Dicts[m]
		r.dims, r.members = append(r.dims, c.dims[m]), append(r.members, dict.Values())
		r.orders, r.ext = append(r.orders, dict.Order()), append(r.ext, c.enc.Shape[m])
		want[m] = c.enc.Shape[m]
	}
	if !slices.Equal(shape, want) {
		return nil, fmt.Errorf("viewcube: view shape %v, want %v", shape, want)
	}
	return newResult(r)
}

// Header returns the kept dimensions in key order, each one's members in
// code order (read-only), and the number of component planes.
func (r *Result) Header() (dims []string, members [][]string, width int) {
	return r.dims, r.members, r.width
}

// Columns returns a SQL answer's column names — the GROUP BY dimensions,
// then one label per aggregate — and nil for any other result.
func (r *Result) Columns() []string { return r.columns }

// AggLabel names the strongest aggregate the result reports, lower-cased,
// with the all-SUM default as "" (the query log's convention).
func (r *Result) AggLabel() string {
	if best := slices.Max(r.aggs); best != AggSum {
		return best.String()
	}
	return ""
}

// groups is the size of the group space: the product of the member counts,
// and 0 for a released result (the only one without a component plane).
func (r *Result) groups() int {
	if r.width == 0 {
		return 0
	}
	n := 1
	for _, ms := range r.members {
		n *= len(ms)
	}
	return n
}

// Len returns the number of rows; 0 for a nil result.
func (r *Result) Len() int {
	if r == nil {
		return 0
	}
	if r.mask == nil && !r.dropEmpty {
		return r.groups()
	}
	n := 0
	r.walk(0, func(_ []int, base int, last []int32) error {
		for _, c := range last {
			if r.row(base + int(c)) {
				n++
			}
		}
		return nil
	})
	return n
}

// Size estimates the resident footprint in bytes, for caches that hold the
// result: the value planes, the row mask and the member strings.
func (r *Result) Size() int {
	n := 8*len(r.vals) + len(r.mask)
	for _, ms := range r.members {
		for _, m := range ms {
			n += len(m) + 16
		}
	}
	return n
}

// strides returns each key position's cell-offset step within a plane.
func (r *Result) strides() []int {
	st := make([]int, len(r.ext))
	step := 1
	for i := len(r.ext) - 1; i >= 0; i-- {
		st[i], step = step, step*r.ext[i]
	}
	return st
}

// runs calls fn for every run of cells along the last key position: off is
// the run's offset in vals, n its length, and live how many of its leading
// cells lie inside every dictionary (0 when an outer coordinate is padding).
func (r *Result) runs(fn func(off, live, n int)) {
	last := max(len(r.ext)-1, 0)
	n, live := 1, 1
	if len(r.ext) > 0 {
		n, live = r.ext[last], len(r.members[last])
	}
	idx := make([]int, last)
	for off := 0; off < len(r.vals); off += n {
		in := live
		for i, c := range idx {
			if c >= len(r.members[i]) {
				in = 0
			}
		}
		fn(off, in, n)
		for i := last - 1; i >= 0; i-- {
			if idx[i]++; idx[i] < r.ext[i] {
				break
			}
			idx[i] = 0 // carries past position 0 at each plane's end
		}
	}
}

// checkPadding fails when a cell outside a dictionary holds a value: padding
// is zero for views built from relations, so anything else means the array
// is not the aggregated view it claims to be.
func (r *Result) checkPadding() (err error) {
	if r.groups() == r.plane {
		return nil // no padding to check
	}
	r.runs(func(off, live, n int) {
		for _, v := range r.vals[off+live : off+n] {
			if v != 0 {
				err = fmt.Errorf("viewcube: nonzero padding cell in cells %d..%d of the view", off+live, off+n-1)
			}
		}
	})
	return err
}

// Dense returns the values without padding — width planes of Π member-count
// cells, row-major: the body of the result's wire form. It is the result's
// own slice (read-only) unless padding had to be stepped over. A result with
// dropped rows has no such form.
func (r *Result) Dense() ([]float64, error) {
	if r.mask != nil || r.dropEmpty {
		return nil, fmt.Errorf("viewcube: a result with dropped rows has no dense form")
	}
	if err := r.checkPadding(); err != nil || r.groups() == r.plane {
		return r.vals, err
	}
	out := make([]float64, 0, r.width*r.groups())
	r.runs(func(off, live, _ int) { out = append(out, r.vals[off:off+live]...) })
	return out, nil
}

// walk calls fn once per run of rows — the rows that share every key
// position but the last: outer holds their codes at those positions (valid
// only during the call), base the offset of the run's cell with last code 0,
// and last the last position's codes in output order, so the run's rows are
// the cells base+last[j] that pass r.row. Runs come in coordinate order when
// sep is 0, otherwise in the byte order of the keys joined by sep — what
// sort.Strings over the map keys, and so encoding/json, produced. No key is
// built to get there: each position steps through its dictionary's permutation
// by value+sep (by value for the last) and the nesting of the loops does the
// rest — unless a member of a non-last position itself contains sep
// (walkSorted). A result without key positions is one run of one row.
func (r *Result) walk(sep byte, fn func(outer []int, base int, last []int32) error) error {
	if err := r.checkPadding(); err != nil || r.groups() == 0 {
		return err
	}
	n := len(r.dims) - 1 // the last key position
	if n < 0 {
		return fn(nil, 0, []int32{0})
	}
	perms := make([][]int32, n+1)
	for i := range perms {
		if sep != 0 && i < n && r.orders[i].Ambiguous(sep) {
			return r.walkSorted(sep, fn)
		}
		perms[i] = r.orders[i].Perm(sep, i == n)
	}
	st, pos, outer, base := r.strides(), make([]int, n), make([]int, n), 0
	for i := range outer {
		outer[i] = int(perms[i][0])
		base += outer[i] * st[i]
	}
	for {
		if err := fn(outer, base, perms[n]); err != nil {
			return err
		}
		i := n - 1
		for ; i >= 0; i-- {
			base -= outer[i] * st[i]
			if pos[i]++; pos[i] == len(perms[i]) {
				pos[i] = 0
			}
			outer[i] = int(perms[i][pos[i]])
			base += outer[i] * st[i]
			if pos[i] != 0 {
				break
			}
		}
		if i < 0 {
			return nil
		}
	}
}

// walkSorted is walk for dictionaries whose members contain the separator,
// the one path that builds a key per row: rows are collected in coordinate
// order and stable-sorted by whole key, so equal keys keep that order, and
// each is handed on as a run of its own.
func (r *Result) walkSorted(sep byte, fn func(outer []int, base int, last []int32) error) error {
	type row struct {
		key   string
		outer []int
		base  int
		last  []int32
	}
	var rows []row
	r.walk(0, func(outer []int, base int, last []int32) error {
		outer = slices.Clone(outer)
		for j, c := range last {
			rows = append(rows, row{strings.Join(r.keyOf(outer, c), string(sep)), outer, base, last[j : j+1]})
		}
		return nil
	})
	slices.SortStableFunc(rows, func(a, b row) int { return strings.Compare(a.key, b.key) })
	for _, w := range rows {
		if err := fn(w.outer, w.base, w.last); err != nil {
			return err
		}
	}
	return nil
}

// row reports whether the cell at off is a row of the result.
func (r *Result) row(off int) bool {
	return (r.mask == nil || r.mask[off]) && (!r.dropEmpty || r.vals[r.spec.Count*r.plane+off] != 0)
}

// keyOf returns a row's member values: its run's outer members, then its last.
func (r *Result) keyOf(outer []int, last int32) (key []string) {
	for i, c := range outer {
		key = append(key, r.members[i][c])
	}
	if len(r.dims) > 0 {
		key = append(key, r.members[len(outer)][last])
	}
	return key
}

// values finalises the reported values of the row at off into out. comps is
// scratch of the result's width.
func (r *Result) values(off int, comps, out []float64) {
	for c := range comps {
		if comps[c] = r.vals[c*r.plane+off]; comps[c] == 0 {
			comps[c] = 0 // a negative zero reads as 0
		}
	}
	for j, kind := range r.aggs {
		out[j], _ = r.spec.Finalize(kind, comps)
	}
}

// Groups renders the result as the map View.Groups always returned: the kept
// values joined by the group-key separator → the row's first reported value.
// It is the compatibility form; nothing on a serving path builds it.
func (r *Result) Groups() (map[string]float64, error) {
	out := make(map[string]float64, r.groups())
	comps, vals := make([]float64, r.width), make([]float64, len(r.aggs))
	err := r.walk(0, func(outer []int, base int, last []int32) error {
		for _, c := range last {
			if off := base + int(c); r.row(off) {
				r.values(off, comps, vals)
				out[strings.Join(r.keyOf(outer, c), string(relation.UnitSep))] += vals[0]
			}
		}
		return nil
	})
	return out, err
}

// QueryResult renders a SQL answer in its tabular library form, rows sorted
// by group key.
func (r *Result) QueryResult() (*QueryResult, error) {
	res := &QueryResult{Columns: r.columns}
	comps := make([]float64, r.width)
	err := r.walk(relation.UnitSep, func(outer []int, base int, last []int32) error {
		for _, c := range last {
			off := base + int(c)
			if !r.row(off) {
				continue
			}
			row := QueryRow{Key: r.keyOf(outer, c), Values: make([]float64, len(r.aggs))}
			r.values(off, comps, row.Values)
			res.Rows = append(res.Rows, row)
		}
		return nil
	})
	return res, err
}

// AppendGroupsJSON appends the result as the JSON object /groupby answers
// with — {"ale/east":12,...}, keys the kept values joined by "/", one value
// per key. AppendRowsJSON appends it as the JSON array POST /query answers
// with in "rows" — [{"key":["ale","east"],"values":[12,3]},...], sorted by
// group key, null when there are no rows. Both are byte for byte what
// encoding/json writes for the same map or rows: keys in byte order,
// HTML-safe escaping, its float format, an error for NaN and ±Inf. Two
// groups whose values contain "/" can render the same /groupby key; both
// rows are written, in coordinate order.
func (r *Result) AppendGroupsJSON(dst []byte) ([]byte, error) {
	return r.appendJSON(dst, relation.GroupsForm, relation.PathSep, "{}", `"`, "", "")
}

// AppendRowsJSON is described with AppendGroupsJSON.
func (r *Result) AppendRowsJSON(dst []byte) ([]byte, error) {
	return r.appendJSON(dst, relation.RowsForm, relation.UnitSep, "[]", `{"key":[`, `"`, "]}")
}

// maxWholeDigits is the most a value written in place takes: the 16 digits of
// a whole number below 2⁵³, and the comma before it.
const maxWholeDigits = 17

// grow returns b with room for n more bytes past its length. Reallocating,
// it copies only b's length: slices.Grow would copy the stale bytes of its
// whole capacity, which a reused body too short for an answer is full of.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		b = slices.Grow(b[:len(b):len(b)], n)
	}
	return b
}

// put16 writes text into b at n in 16-byte stores and returns the index past
// it. The last store reads and writes up to 15 bytes past the text's end, so
// text has relation.Pad bytes of capacity past it, and b as much room past n
// as the caller checked for.
func put16(b []byte, n int, text []byte) int {
	src := text[:cap(text)]
	*(*[16]byte)(b[n:]) = *(*[16]byte)(src)
	for k := 16; k < len(text); k += 16 {
		*(*[16]byte)(b[n+k:]) = *(*[16]byte)(src[k:])
	}
	return n + len(text)
}

// appendJSON is the one encoder. A prefix holds what a run's rows share — a
// comma, open and the outer members, each wrapped in quote and followed by
// "/" inside one string or "," between strings, then the last member's
// opening quote. A row is that prefix, the last member's tail in the form
// (its text, closing quote and what leads to the values;
// relation.Order.Tails), the reported values (all of them in an array, the
// first alone in an object) and end. A run writes its rows into a window —
// dst's whole capacity and a cursor into it, resliced once per run: each row
// checks its room once, copies the prefix and the tail in 16-byte stores and
// writes a value that is a whole number below 2⁵³ — every SUM cell of an
// integer measure — as digits at the cursor; any other value goes through
// relation.AppendJSONFloat and re-enters the window. The opening bracket
// overwrites the first row's comma. dst is grown once, by rows × the mean
// row length.
func (r *Result) appendJSON(dst []byte, form int, order byte, brackets, open, quote, end string) ([]byte, error) {
	array := brackets == "[]"
	sep, nvals := byte(','), len(r.aggs)
	if !array {
		sep, nvals = relation.PathSep, 1
	}
	last, outers := relation.NoKey, r.orders
	if n := len(r.orders); n > 0 {
		last, outers = r.orders[n-1], r.orders[:n-1]
	} else {
		quote = "" // no key string to open
	}
	tails, at := last.Tails(form)
	perRow := len(open) + len(end) + len(quote) + 2 + 10*nvals + len(tails)/max(last.Len(), 1)
	for _, o := range outers {
		perRow += o.TextLen()/max(o.Len(), 1) + 2*len(quote) + 1
	}
	dst = grow(dst, r.groups()*perRow+2)
	start := len(dst)
	every := r.mask == nil && !r.dropEmpty                    // every cell of a run is a row
	cell := r.width == 1 && nvals == 1 && r.aggs[0] == AggSum // the value is the cell: nothing to finalise
	// A row's room past its key text: its values and end, and at least the
	// 15 bytes the tail's last store writes past it.
	values := nvals*maxWholeDigits + len(end)
	comps, vals, cells := make([]float64, r.width), make([]float64, len(r.aggs)), r.vals
	// The prefix holds the member held[i] of outer position i from marks[i]
	// on; a run rewrites it from the first position that changed, so most
	// runs rewrite only the innermost. It keeps relation.Pad bytes of
	// capacity past its text for its last store.
	prefix := append(append(append(make([]byte, 0, 64), ','), open...), quote...)
	held, marks := make([]int, len(outers)), make([]int, len(outers))
	for i := range held {
		held[i], marks[i] = -1, len(open)+1
	}
	err := r.walk(order, func(outer []int, base int, lastCodes []int32) error {
		i := 0
		for i < len(outer) && outer[i] == held[i] {
			i++
		}
		if i < len(outer) {
			prefix = prefix[:marks[i]]
			for ; i < len(outer); i++ {
				held[i], marks[i] = outer[i], len(prefix)
				prefix = append(append(append(prefix, quote...), r.orders[i].Escaped(outer[i])...), quote...)
				prefix = append(prefix, sep)
			}
			prefix = grow(append(prefix, quote...), relation.Pad)
		}
		b, n := dst[:cap(dst)], len(dst) // the window: rows go to b[n:]
		for j, c := range lastCodes {
			off := base + int(c)
			if !every && !r.row(off) {
				continue
			}
			tail := tails[at[c]:at[c+1]]
			if room := len(prefix) + len(tail) + values; len(b)-n < room {
				b = grow(b[:n], (len(lastCodes)-j)*room) // for the rest of the run
				b = b[:cap(b)]
			}
			n = put16(b, put16(b, n, prefix), tail)
			v := cells[off] + 0 // a negative zero reads as 0
			if !cell {
				r.values(off, comps, vals)
				v = vals[0]
			}
			for k := 1; ; k++ {
				if whole := int64(v); float64(whole) == v && uint64(whole) < 1<<53 && math.Float64bits(v) != 1<<63 { // not −0
					n = relation.PutDigits(b, n, uint64(whole))
				} else {
					out, err := relation.AppendJSONFloat(b[:n], v)
					if err != nil {
						return err
					}
					if b, n = out[:cap(out)], len(out); len(b)-n < values {
						b = grow(b[:n], values)
						b = b[:cap(b)]
					}
				}
				if k == nvals {
					break
				}
				b[n], v = ',', vals[k]
				n++
			}
			if end != "" {
				n += copy(b[n:], end)
			}
		}
		dst = b[:n]
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case len(dst) > start:
		dst[start] = brackets[0]
		return append(dst, brackets[1]), nil
	case array:
		return append(dst, "null"...), nil
	}
	return append(dst, brackets...), nil
}

// MergeResults adds per-shard partial results into one, in slice order — the
// distributivity merge of §3, bit-identical to the single-machine sums
// because every cell is 0 + shard₀ + shard₁ + … as the map merge computed it.
// nil entries (shards missing from a degraded answer) are skipped. When every
// result has the same dictionaries the merge is index addition over dense
// planes. When they differ — each shard encodes only the values it holds —
// the merged dictionaries are the sorted unions and the merged rows are the
// union of the shards' rows, not the cross product of the unions: a group no
// shard has is absent, as it was from the merged map.
func MergeResults(parts []*Result) (*Result, error) {
	parts = slices.DeleteFunc(slices.Clone(parts), func(p *Result) bool { return p == nil })
	if len(parts) == 0 {
		return nil, fmt.Errorf("viewcube: no results to merge")
	}
	out, same := *parts[0], true
	out.lease = nil // the merged body is fresh: parts[0] keeps its own lease
	for _, p := range parts {
		if len(p.dims) != len(out.dims) || p.width != out.width {
			return nil, fmt.Errorf("viewcube: merging results of different shape")
		}
		same = same && p.mask == nil && !p.dropEmpty && slices.Equal(p.dims, out.dims) &&
			slices.EqualFunc(p.members, out.members, slices.Equal[[]string])
	}
	if !same {
		out.members, out.orders = make([][]string, len(out.dims)), make([]*relation.Order, len(out.dims))
		for i := range out.members {
			var union []string
			for _, p := range parts {
				union = append(union, p.members[i]...)
			}
			slices.Sort(union)
			out.members[i] = slices.Compact(union)
			out.orders[i] = relation.NewOrder(out.members[i])
		}
	}
	out.ext = make([]int, len(out.members))
	for i, ms := range out.members {
		out.ext[i] = len(ms)
	}
	out.plane = out.groups()
	out.vals = make([]float64, out.width*out.plane)
	if same {
		for _, p := range parts {
			dense, err := p.Dense()
			if err != nil {
				return nil, err
			}
			for j, v := range dense {
				out.vals[j] += v
			}
		}
		return &out, nil
	}
	out.mask = make([]bool, out.plane)
	st := out.strides()
	for _, p := range parts {
		to := make([][]int, len(p.dims)) // per key position: p's code → the merged code
		for i, ms := range p.members {
			to[i] = make([]int, len(ms))
			for c, m := range ms {
				to[i][c], _ = slices.BinarySearch(out.members[i], m)
			}
		}
		err := p.walk(0, func(outer []int, base int, last []int32) error {
			run := 0 // the merged offset of the run's cell with last code 0
			for i, c := range outer {
				run += to[i][c] * st[i]
			}
			for _, c := range last {
				off, at := base+int(c), run
				if !p.row(off) {
					continue
				}
				if len(to) > 0 {
					at += to[len(outer)][c]
				}
				for w := 0; w < out.width; w++ {
					out.vals[w*out.plane+at] += p.vals[w*p.plane+off]
				}
				out.mask[at] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if !slices.Contains(out.mask, false) {
		out.mask = nil
	}
	return &out, nil
}
