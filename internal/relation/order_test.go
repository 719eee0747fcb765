package relation

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendIntDifferential: the in-place itoa writes what strconv.AppendInt
// writes — every digit count, both signs, the powers of ten and of a hundred
// and their neighbours, the int64 limits, random values of every magnitude —
// after a prefix and into a buffer with no room to spare.
func TestAppendIntDifferential(t *testing.T) {
	values := []int64{0, math.MaxInt64, math.MinInt64, 1<<53 - 1, 1 << 53, 1<<53 + 1}
	for p := int64(1); p > 0 && p <= math.MaxInt64/10; p *= 10 {
		values = append(values, p-1, p, p+1, 9*p, 10*p-1)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20000; i++ {
		values = append(values, rng.Int63()>>uint(rng.Intn(63)))
	}
	for _, v := range values {
		for _, i := range []int64{v, -v} {
			want := strconv.AppendInt([]byte("k:"), i, 10)
			if got := appendInt([]byte("k:"), i); string(got) != string(want) {
				t.Fatalf("appendInt(%d) = %q, want %q", i, got, want)
			}
			if got := appendInt(make([]byte, 0, 64), i); string(got) != string(want[2:]) {
				t.Fatalf("appendInt(%d) into a roomy buffer = %q, want %q", i, got, want[2:])
			}
		}
	}
}

// TestAppendJSONFloatDifferential: AppendJSONFloat is json.Marshal for every
// float64 JSON can carry — integers to 2⁵³ and past it (where the itoa hands
// over to strconv), the 'e' forms at both ends, negative zero, decimals and
// random bit patterns — and an error for the rest.
func TestAppendJSONFloatDifferential(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, 12345678901234567,
		1e20, 1e21, -1e21, 1e22, 1e-6, 9.5e-7, 1e-7, -1e-7, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.5, 0.25, -0.125, 0.1 + 0.2, 1.0 / 3, 123456.789,
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20000; i++ {
		whole := float64(rng.Int63() >> uint(rng.Intn(63)))
		values = append(values, whole, whole+0.5, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*1e3)
	}
	for _, v := range values {
		for _, f := range []float64{v, -v} {
			want, err := json.Marshal(f)
			got, gotErr := AppendJSONFloat([]byte("k:"), f)
			if (err != nil) != (gotErr != nil) {
				t.Fatalf("AppendJSONFloat(%v): error %v, json.Marshal: %v", f, gotErr, err)
			}
			if err == nil && string(got) != "k:"+string(want) {
				t.Fatalf("AppendJSONFloat(%v) = %q, want %q", f, got[2:], want)
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendJSONFloat(nil, f); err == nil {
			t.Errorf("AppendJSONFloat encoded %v", f)
		}
	}
}
