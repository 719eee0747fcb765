package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/rangeagg"
	"viewcube/internal/velement"
	"viewcube/internal/workload"
)

// BasisReport describes one named basis of §4.3 (E5).
type BasisReport struct {
	Name          string
	Elements      int
	Volume        int
	RelVolume     float64 // volume / n^d
	Complete      bool
	NonRedundant  bool
	FormulaVolume float64 // the closed form the paper states, n^d-relative
}

// Bases evaluates the §4.3 named bases on the given cube shape and checks
// their volumes against the paper's closed forms: wavelet = n^d, view
// hierarchy = (n+1)^d, wavelet packets = n^d, Gaussian pyramid = the
// geometric level sum.
func Bases(shape []int, seed int64) ([]BasisReport, error) {
	s, err := velement.NewSpace(shape)
	if err != nil {
		return nil, err
	}
	vol := float64(s.CubeVolume())
	hierVol := 1.0
	for _, n := range shape {
		hierVol *= float64(n + 1)
	}
	pyramidVol := 0.0
	for _, r := range velement.GaussianPyramid(s) {
		pyramidVol += float64(s.Volume(r))
	}
	rng := rand.New(rand.NewSource(seed))
	named := []struct {
		name    string
		set     []freq.Rect
		formula float64 // relative to n^d
	}{
		{"wavelet basis", velement.WaveletBasis(s), 1},
		{"Gaussian pyramid", velement.GaussianPyramid(s), pyramidVol / vol},
		{"view hierarchy", velement.ViewHierarchy(s), hierVol / vol},
		{"wavelet packets (random)", velement.RandomPacketBasis(s, rng, 0.3), 1},
		{"data cube only", []freq.Rect{s.Root()}, 1},
	}
	out := make([]BasisReport, len(named))
	for i, n := range named {
		v := s.SetVolume(n.set)
		out[i] = BasisReport{
			Name:          n.name,
			Elements:      len(n.set),
			Volume:        v,
			RelVolume:     float64(v) / vol,
			Complete:      freq.Complete(n.set, s.Root(), s.MaxDepths()),
			NonRedundant:  freq.NonRedundant(n.set),
			FormulaVolume: n.formula,
		}
	}
	return out, nil
}

// FormatBases renders the E5 report.
func FormatBases(shape []int, rows []BasisReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Named view element bases (§4.3) on shape %v\n", shape)
	fmt.Fprintf(&b, "%-26s %9s %9s %10s %9s %13s %9s\n",
		"basis", "elements", "volume", "rel vol", "complete", "non-redundant", "formula")
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %9d %9d %10.3f %9s %13s %9.3f\n",
			r.Name, r.Elements, r.Volume, r.RelVolume, yn(r.Complete), yn(r.NonRedundant), r.FormulaVolume)
	}
	return b.String()
}

// RangeResult summarises the E6 range-aggregation comparison (§6).
type RangeResult struct {
	Shape        []int
	Queries      int
	ScanCells    int // cells read by direct scans
	ElementCells int // cells read via intermediate view elements
	PrefixCells  int // cells read via the prefix-sum cube (2^d per query)
	MaxError     float64
}

// Ranges runs E6: random range-SUM queries answered three ways — direct
// scan, intermediate view elements (the §6 method), and the prefix-sum
// cube baseline — verifying agreement and comparing cells read.
func Ranges(shape []int, queries int, seed int64) (*RangeResult, error) {
	s, err := velement.NewSpace(shape)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cube := workload.RandomCube(rng, 100, shape...)
	mat, err := assembly.NewMaterializer(s, cube)
	if err != nil {
		return nil, err
	}
	q := rangeagg.NewQuerier(s, mat)
	pc := rangeagg.NewPrefixCube(cube)
	res := &RangeResult{Shape: append([]int(nil), shape...), Queries: queries}
	for _, box := range rangeagg.RandomBoxes(shape, rng, queries) {
		direct, err := rangeagg.DirectScan(cube, box)
		if err != nil {
			return nil, err
		}
		viaElems, err := q.RangeSum(box)
		if err != nil {
			return nil, err
		}
		viaPrefix, err := pc.RangeSum(box)
		if err != nil {
			return nil, err
		}
		if e := abs(direct - viaElems); e > res.MaxError {
			res.MaxError = e
		}
		if e := abs(direct - viaPrefix); e > res.MaxError {
			res.MaxError = e
		}
		res.ScanCells += box.Cells()
		res.PrefixCells += 1 << uint(len(shape))
	}
	res.ElementCells = q.CellsRead
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// FormatRanges renders the E6 report.
func FormatRanges(r *RangeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Range aggregation (§6) on shape %v, %d random range-SUM queries\n", r.Shape, r.Queries)
	fmt.Fprintf(&b, "%-28s %12s %14s\n", "method", "cells read", "per query")
	rows := []struct {
		name  string
		cells int
	}{
		{"direct scan", r.ScanCells},
		{"intermediate view elements", r.ElementCells},
		{"prefix-sum cube (Ho et al.)", r.PrefixCells},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s %12d %14.1f\n", row.name, row.cells, float64(row.cells)/float64(r.Queries))
	}
	fmt.Fprintf(&b, "max |error| across methods: %g\n", r.MaxError)
	return b.String()
}
