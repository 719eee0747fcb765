package plan

import (
	"math"
	"testing"
)

func TestMeasureSpecSupports(t *testing.T) {
	stats := StatsMeasure()
	for _, k := range []AggKind{AggSum, AggCount, AggAvg, AggVar, AggStdDev} {
		if err := stats.Supports(k); err != nil {
			t.Fatalf("stats layout must support %v: %v", k, err)
		}
	}
	scalar := ScalarMeasure()
	if err := scalar.Supports(AggSum); err != nil {
		t.Fatalf("scalar layout must support SUM: %v", err)
	}
	for _, k := range []AggKind{AggCount, AggAvg, AggVar, AggStdDev} {
		if err := scalar.Supports(k); err == nil {
			t.Fatalf("scalar layout must reject %v", k)
		}
	}
}

func TestFinalize(t *testing.T) {
	s := StatsMeasure()
	// Tuples 1, 2, 3: Σv=6, Σv²=14, n=3 → avg 2, var 2/3.
	comps := []float64{6, 14, 3}
	if v, ok := s.Finalize(AggSum, comps); !ok || v != 6 {
		t.Fatalf("SUM = %g, %v", v, ok)
	}
	if v, ok := s.Finalize(AggCount, comps); !ok || v != 3 {
		t.Fatalf("COUNT = %g, %v", v, ok)
	}
	if v, ok := s.Finalize(AggAvg, comps); !ok || v != 2 {
		t.Fatalf("AVG = %g, %v", v, ok)
	}
	if v, ok := s.Finalize(AggVar, comps); !ok || math.Abs(v-2.0/3) > 1e-15 {
		t.Fatalf("VAR = %g, %v", v, ok)
	}
	if v, ok := s.Finalize(AggStdDev, comps); !ok || math.Abs(v-math.Sqrt(2.0/3)) > 1e-15 {
		t.Fatalf("STDDEV = %g, %v", v, ok)
	}
	// Zero count: count-dividing kinds are undefined, SUM/COUNT are not.
	empty := []float64{0, 0, 0}
	for _, k := range []AggKind{AggAvg, AggVar, AggStdDev} {
		if _, ok := s.Finalize(k, empty); ok {
			t.Fatalf("%v over zero count must report ok=false", k)
		}
	}
	if v, ok := s.Finalize(AggSum, empty); !ok || v != 0 {
		t.Fatal("SUM over zero count is 0, ok")
	}
	// Floating-point drift: the algebraic form can dip infinitesimally
	// below zero when the true variance is 0; Finalize clamps.
	drift := []float64{3, 3 - 1e-16, 3}
	if v, ok := s.Finalize(AggVar, drift); !ok || v != 0 {
		t.Fatalf("VAR clamp: got %g, %v, want 0", v, ok)
	}
	if v, ok := s.Finalize(AggStdDev, drift); !ok || v != 0 {
		t.Fatalf("STDDEV clamp: got %g, %v, want 0", v, ok)
	}
}
