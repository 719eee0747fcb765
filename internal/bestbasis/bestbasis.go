// Package bestbasis implements the compression application the paper
// points at but leaves unexplored (§4.3): "by selecting the bases that best
// isolate the non-zero data from the zero areas of the data cube, the view
// element wavelet packet basis can represent the data cube in a compact
// form."
//
// Following Coifman–Wickerhauser, the package selects the complete
// non-redundant view element basis minimising an additive information cost
// of the materialised element arrays (nonzero count, entropy, or an Lᵖ
// norm), using the same dynamic program shape as Algorithm 1 — on at each
// element the choice is "keep this element's coefficients" versus "split it
// on the cheapest dimension". The selected basis is stored sparsely; with a
// zero threshold the representation is exactly lossless.
package bestbasis

import (
	"fmt"
	"math"
	"sort"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/velement"
)

// CostFn prices the storage of one materialised view element; the best
// basis minimises the sum over its elements. Costs must be non-negative.
type CostFn func(a *ndarray.Array) float64

// NonzeroCost counts coefficients with magnitude above tol — the direct
// "how many values must I store sparsely" objective.
func NonzeroCost(tol float64) CostFn {
	return func(a *ndarray.Array) float64 {
		n := 0
		for _, v := range a.Data() {
			if math.Abs(v) > tol {
				n++
			}
		}
		return float64(n)
	}
}

// EntropyCost is the Coifman–Wickerhauser entropy functional: with
// p_i = v_i² / ‖v‖², the cost is −Σ p_i·log(p_i) (0·log 0 = 0). Lower
// entropy means energy concentrated in fewer coefficients.
func EntropyCost() CostFn {
	return func(a *ndarray.Array) float64 {
		total := 0.0
		for _, v := range a.Data() {
			total += v * v
		}
		if total == 0 {
			return 0
		}
		h := 0.0
		for _, v := range a.Data() {
			if v == 0 {
				continue
			}
			p := v * v / total
			h -= p * math.Log(p)
		}
		return h
	}
}

// LpCost is Σ |v|^p; p < 2 rewards sparsity.
func LpCost(p float64) CostFn {
	return func(a *ndarray.Array) float64 {
		c := 0.0
		for _, v := range a.Data() {
			if v != 0 {
				c += math.Pow(math.Abs(v), p)
			}
		}
		return c
	}
}

// Result is the selected basis and its total information cost.
type Result struct {
	Basis []freq.Rect
	Cost  float64
}

// Select finds the complete non-redundant view element basis of the cube
// minimising the summed information cost of the materialised elements.
//
// The dynamic program materialises every element it visits (the whole
// element graph in the worst case): total materialised cells are
// Π_m n_m·(log2 n_m + 1), so Select is intended for cubes up to roughly a
// few million cells, matching the paper's experimental scales.
func Select(s *velement.Space, cube *ndarray.Array, cost CostFn) (Result, error) {
	mat, err := assembly.NewMaterializer(s, cube)
	if err != nil {
		return Result{}, err
	}
	type memoEntry struct {
		cost   float64
		choice int // -1 = keep, else split dimension
	}
	memo := make(map[freq.Key]memoEntry)
	var solve func(r freq.Rect) (float64, error)
	solve = func(r freq.Rect) (float64, error) {
		k := r.Key()
		if got, ok := memo[k]; ok {
			return got.cost, nil
		}
		a, err := mat.Element(r)
		if err != nil {
			return 0, err
		}
		best := cost(a)
		if best < 0 {
			return 0, fmt.Errorf("bestbasis: negative cost %g for %v", best, r)
		}
		choice := -1
		for m := 0; m < s.Rank(); m++ {
			p, res, ok := s.Children(r, m)
			if !ok {
				continue
			}
			pc, err := solve(p)
			if err != nil {
				return 0, err
			}
			rc, err := solve(res)
			if err != nil {
				return 0, err
			}
			if pc+rc < best {
				best = pc + rc
				choice = m
			}
		}
		memo[k] = memoEntry{cost: best, choice: choice}
		return best, nil
	}
	total, err := solve(s.Root())
	if err != nil {
		return Result{}, err
	}
	basis := s.ExtractBasis(func(r freq.Rect) int { return memo[r.Key()].choice })
	return Result{Basis: basis, Cost: total}, nil
}

// SparseElement stores only the above-threshold coefficients of one
// materialised element.
type SparseElement struct {
	Rect    freq.Rect
	Shape   []int
	Offsets []int32
	Values  []float64
}

// Sparsify extracts the sparse form of a dense element, dropping
// coefficients with magnitude ≤ tol (tol 0 drops exact zeros only, which is
// lossless).
func Sparsify(r freq.Rect, a *ndarray.Array, tol float64) *SparseElement {
	se := &SparseElement{Rect: r.Clone(), Shape: a.Shape()}
	for i, v := range a.Data() {
		if math.Abs(v) > tol {
			se.Offsets = append(se.Offsets, int32(i))
			se.Values = append(se.Values, v)
		}
	}
	return se
}

// Dense reconstitutes the dense element array.
func (se *SparseElement) Dense() (*ndarray.Array, error) {
	a := ndarray.New(se.Shape...)
	data := a.Data()
	for i, off := range se.Offsets {
		if off < 0 || int(off) >= len(data) {
			return nil, fmt.Errorf("bestbasis: offset %d out of range for shape %v", off, se.Shape)
		}
		data[off] = se.Values[i]
	}
	return a, nil
}

// Nonzeros returns the number of stored coefficients.
func (se *SparseElement) Nonzeros() int { return len(se.Values) }

// Compressed is a cube stored as the sparse coefficients of a best basis.
type Compressed struct {
	Space    *velement.Space
	Elements []*SparseElement
	// Tol is the threshold used when sparsifying; 0 means lossless.
	Tol float64
}

// Compress selects the best basis under cost and stores it sparsely with
// threshold tol.
func Compress(s *velement.Space, cube *ndarray.Array, cost CostFn, tol float64) (*Compressed, error) {
	res, err := Select(s, cube, cost)
	if err != nil {
		return nil, err
	}
	mat, err := assembly.NewMaterializer(s, cube)
	if err != nil {
		return nil, err
	}
	out := &Compressed{Space: s, Tol: tol}
	// Deterministic element order for stable serialisation and tests.
	sort.Slice(res.Basis, func(i, j int) bool {
		a, b := res.Basis[i], res.Basis[j]
		for m := range a {
			if a[m] != b[m] {
				return a[m] < b[m]
			}
		}
		return false
	})
	for _, r := range res.Basis {
		a, err := mat.Element(r)
		if err != nil {
			return nil, err
		}
		out.Elements = append(out.Elements, Sparsify(r, a, tol))
	}
	return out, nil
}

// StoredValues is the total number of retained coefficients — the
// compression currency of the E8 experiment.
func (c *Compressed) StoredValues() int {
	n := 0
	for _, se := range c.Elements {
		n += se.Nonzeros()
	}
	return n
}

// Decompress reconstructs the full data cube by perfect reconstruction from
// the basis elements. With Tol = 0 the result is exact.
func (c *Compressed) Decompress() (*ndarray.Array, error) {
	st := assembly.NewMemStore()
	for _, se := range c.Elements {
		a, err := se.Dense()
		if err != nil {
			return nil, err
		}
		if err := st.Put(se.Rect, a); err != nil {
			return nil, err
		}
	}
	eng := assembly.NewEngine(c.Space, st)
	p, err := eng.ComputePlan(c.Space.Root())
	if err != nil {
		return nil, err
	}
	return eng.Execute(nil, p)
}
