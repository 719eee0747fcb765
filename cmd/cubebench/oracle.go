package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// oracle holds a relation as a dense cell array and answers every query by
// scanning it — the brute-force reference each response is checked against.
// Measures and deltas are integers, so float64 sums are exact and answers
// must match bit for bit.
type oracle struct {
	spec  cubeSpec
	cells []int64
	keys  map[int][]string // kept-dimension mask -> group keys in cube order
}

func newOracle(spec cubeSpec, rows []row) *oracle {
	o := &oracle{spec: spec, cells: make([]int64, spec.cells()), keys: map[int][]string{}}
	for _, r := range rows {
		o.add(r.c, r.v)
	}
	return o
}

func (o *oracle) add(c [4]int, v int64) {
	d := o.spec.dims
	o.cells[((c[0]*d[1].n+c[1])*d[2].n+c[2])*d[3].n+c[3]] += v
}

// answer is a query's result: sum for a range, groups (dense, cube order
// over the kept dimensions) for a group-by or SQL statement.
type answer struct {
	sum    int64
	groups []int64
}

func (o *oracle) answer(q *querySpec) answer {
	d := o.spec.dims
	var stride [4]int // position of each dimension in the group index, 0 if aggregated
	groups := 1
	for i := len(q.keep) - 1; i >= 0; i-- {
		stride[q.keep[i]] = groups
		groups *= d[q.keep[i]].n
	}
	a := answer{}
	if q.kind != opRange {
		a.groups = make([]int64, groups)
	}
	for i := q.lo[0]; i <= q.hi[0]; i++ {
		for j := q.lo[1]; j <= q.hi[1]; j++ {
			for k := q.lo[2]; k <= q.hi[2]; k++ {
				base := ((i*d[1].n+j)*d[2].n + k) * d[3].n
				g := i*stride[0] + j*stride[1] + k*stride[2]
				for l := q.lo[3]; l <= q.hi[3]; l++ {
					v := o.cells[base+l]
					a.sum += v
					if a.groups != nil {
						a.groups[g+l*stride[3]] += v
					}
				}
			}
		}
	}
	return a
}

// groupKeys lists the "/"-joined value keys of a group-by in cube order,
// the order answer.groups is in.
func (o *oracle) groupKeys(keep []int) []string {
	mask := 0
	for _, m := range keep {
		mask |= 1 << m
	}
	if ks, ok := o.keys[mask]; ok {
		return ks
	}
	ks := []string{""}
	for i, m := range keep {
		d := o.spec.dims[m]
		next := make([]string, 0, len(ks)*d.n)
		for _, prefix := range ks {
			for v := 0; v < d.n; v++ {
				if i == 0 {
					next = append(next, d.value(v))
				} else {
					next = append(next, prefix+"/"+d.value(v))
				}
			}
		}
		ks = next
	}
	o.keys[mask] = ks
	return ks
}

// decode parses a 200 response body into an answer.
func (o *oracle) decode(q *querySpec, body []byte) (answer, error) {
	var got map[string]float64
	switch q.kind {
	case opRange:
		var r struct {
			Sum *float64 `json:"sum"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Sum == nil {
			return answer{}, fmt.Errorf("range response %.80q: %v", body, err)
		}
		return answer{sum: int64(*r.Sum)}, exactInt(*r.Sum)
	case opGroupBy:
		if err := json.Unmarshal(body, &got); err != nil {
			return answer{}, fmt.Errorf("group-by response %.80q: %v", body, err)
		}
	case opSQL:
		var r struct {
			Rows []struct {
				Key    []string  `json:"key"`
				Values []float64 `json:"values"`
			} `json:"rows"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, fmt.Errorf("query response %.80q: %v", body, err)
		}
		got = make(map[string]float64, len(r.Rows))
		for _, row := range r.Rows {
			if len(row.Values) != 1 {
				return answer{}, fmt.Errorf("query row %v has %d values, want 1", row.Key, len(row.Values))
			}
			got[strings.Join(row.Key, "/")] = row.Values[0]
		}
	}
	keys := o.groupKeys(q.keep)
	if len(got) != len(keys) {
		return answer{}, fmt.Errorf("%d groups, want %d", len(got), len(keys))
	}
	a := answer{groups: make([]int64, len(keys))}
	for i, k := range keys {
		v, ok := got[k]
		if !ok {
			return answer{}, fmt.Errorf("group %q missing", k)
		}
		if err := exactInt(v); err != nil {
			return answer{}, fmt.Errorf("group %q: %v", k, err)
		}
		a.groups[i] = int64(v)
	}
	return a, nil
}

func exactInt(v float64) error {
	if v != float64(int64(v)) {
		return fmt.Errorf("value %v is not an integer", v)
	}
	return nil
}

// check decodes a 200 response body and requires it to lie in [lo, hi]
// element-wise; lo == hi requires equality.
func (o *oracle) check(q *querySpec, body []byte, lo, hi answer) error {
	got, err := o.decode(q, body)
	if err != nil {
		return err
	}
	return between(got, lo, hi)
}

// between reports the first place got is outside [lo, hi] element-wise.
func between(got, lo, hi answer) error {
	if len(got.groups) != len(lo.groups) {
		return fmt.Errorf("%d groups, want %d", len(got.groups), len(lo.groups))
	}
	if got.groups == nil && (got.sum < lo.sum || got.sum > hi.sum) {
		return fmt.Errorf("sum %d outside [%d, %d]", got.sum, lo.sum, hi.sum)
	}
	for i, v := range got.groups {
		if v < lo.groups[i] || v > hi.groups[i] {
			return fmt.Errorf("group %d is %d, outside [%d, %d]", i, v, lo.groups[i], hi.groups[i])
		}
	}
	return nil
}
