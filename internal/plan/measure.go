package plan

import (
	"fmt"
	"math"
)

// AggKind names an aggregate function over the measure. SUM is the paper's
// native function; following Gray et al. (the data-cube paper), COUNT is
// SUM of the constant 1, and AVG/VAR/STDDEV are algebraic: finalisers over
// a small vector of distributive components that each ride the Haar
// operators unchanged.
type AggKind int

const (
	AggSum AggKind = iota
	AggCount
	AggAvg
	AggVar
	AggStdDev
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggVar:
		return "var"
	case AggStdDev:
		return "stddev"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// NeedsCount reports whether finalising k divides by a tuple count (and so
// is undefined on empty groups/boxes).
func (k AggKind) NeedsCount() bool {
	return k == AggAvg || k == AggVar || k == AggStdDev
}

// MeasureSpec is the component layout of a measure vector: which component
// plane holds which distributive ingredient. A scalar SUM engine has
// Width 1 with only Sum; the stats engine carries [Σv, Σv², Σ1] and can
// finalise every AggKind. The spec travels in the physical IR; plan
// geometry does not depend on it.
type MeasureSpec struct {
	// Width is the number of float64 components per logical cell.
	Width int
	// Sum, SumSq and Count are component indices (−1 when absent).
	Sum   int
	SumSq int
	Count int
}

// ScalarMeasure is the layout of the classic single-measure SUM engine.
func ScalarMeasure() MeasureSpec { return MeasureSpec{Width: 1, Sum: 0, SumSq: -1, Count: -1} }

// StatsMeasure is the three-component layout [Σv, Σv², Σ1] that finalises
// SUM, COUNT, AVG, VAR and STDDEV from one assembled vector.
func StatsMeasure() MeasureSpec { return MeasureSpec{Width: 3, Sum: 0, SumSq: 1, Count: 2} }

// Supports reports whether the layout carries every component k's
// finaliser reads.
func (s MeasureSpec) Supports(k AggKind) error {
	switch k {
	case AggSum:
		if s.Sum < 0 {
			return fmt.Errorf("plan: measure layout has no sum component for %v", k)
		}
	case AggCount:
		if s.Count < 0 {
			return fmt.Errorf("plan: measure layout has no count component for %v", k)
		}
	case AggAvg:
		if s.Sum < 0 || s.Count < 0 {
			return fmt.Errorf("plan: measure layout cannot finalise %v (needs sum and count)", k)
		}
	case AggVar, AggStdDev:
		if s.Sum < 0 || s.SumSq < 0 || s.Count < 0 {
			return fmt.Errorf("plan: measure layout cannot finalise %v (needs sum, sumsq and count)", k)
		}
	default:
		return fmt.Errorf("plan: unknown aggregate kind %v", k)
	}
	return nil
}

// Finalize applies the aggregate's algebraic finaliser to one cell's
// component vector. ok is false when the aggregate divides by a zero tuple
// count (empty group or box): AVG, VAR and STDDEV are undefined there and
// the caller decides between dropping the group and erroring.
//
//	AVG    = Σv / n
//	VAR    = (Σv² − (Σv)²/n) / n   (population variance)
//	STDDEV = sqrt(VAR)
//
// VAR is clamped at zero: the algebraic form can go infinitesimally
// negative in floating point when the true variance is 0.
func (s MeasureSpec) Finalize(k AggKind, comps []float64) (float64, bool) {
	switch k {
	case AggSum:
		return comps[s.Sum], true
	case AggCount:
		return comps[s.Count], true
	case AggAvg:
		n := comps[s.Count]
		if n == 0 {
			return 0, false
		}
		return comps[s.Sum] / n, true
	case AggVar, AggStdDev:
		n := comps[s.Count]
		if n == 0 {
			return 0, false
		}
		sum := comps[s.Sum]
		v := (comps[s.SumSq] - sum*sum/n) / n
		if v < 0 {
			v = 0
		}
		if k == AggStdDev {
			return math.Sqrt(v), true
		}
		return v, true
	default:
		return 0, false
	}
}
