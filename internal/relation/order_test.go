package relation

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// tailMembers are the members whose escaped text and tails TestOrderTails
// checks: the empty string, quotes, backslashes, HTML characters, control
// bytes, U+2028/U+2029, invalid UTF-8, multi-byte runes and both separators.
var tailMembers = []string{
	"", `"`, `\`, "<>&", "a\"b\\c", "\x00\x01\b\f\n\r\t\x1f\x7f", " ", "x y",
	"bad\xffutf", "\xc3", "\xe2\x82", "café", "\U0001f37a", "ale", "a/b", "a\x1fb",
}

// TestOrderTails: every member's tail is its escaped text, the closing quote
// and the form's mid — in both forms, in code order — and NoKey's one row is
// keyed "" in the groups form and [] in the rows form. Every tails table,
// NoKey's too, has Pad bytes of capacity past its last tail, for the
// encoder's 16-byte stores.
func TestOrderTails(t *testing.T) {
	mids := map[int]string{GroupsForm: ":", RowsForm: `],"values":[`}
	o := NewOrder(tailMembers)
	for form, mid := range mids {
		text, at := o.Tails(form)
		if len(at) != len(tailMembers)+1 || at[0] != 0 || int(at[len(at)-1]) != len(text) || cap(text)-len(text) < Pad {
			t.Fatalf("form %d: %d tail offsets over %d bytes (capacity %d) for %d members", form, len(at), len(text), cap(text), len(tailMembers))
		}
		for c, m := range tailMembers {
			esc, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := string(o.Escaped(c)); got != string(esc[1:len(esc)-1]) {
				t.Errorf("Escaped(%q) = %q, want %q", m, got, esc[1:len(esc)-1])
			}
			if got, want := string(text[at[c]:at[c+1]]), string(o.Escaped(c))+`"`+mid; got != want {
				t.Errorf("form %d: tail of %q = %q, want %q", form, m, got, want)
			}
		}
	}
	for form, want := range map[int]string{GroupsForm: `":`, RowsForm: `],"values":[`} {
		if text, at := NoKey.Tails(form); string(text[at[0]:at[1]]) != want || cap(text)-len(text) < Pad {
			t.Errorf("NoKey form %d tail = %q, capacity %d past it, want %q and %d", form, text[at[0]:at[1]], cap(text)-len(text), want, Pad)
		}
	}
}

// TestAppendIntDifferential: the in-place itoa writes what strconv.AppendInt
// writes — every digit count, both signs, the powers of ten and of a hundred
// and their neighbours, the int64 limits, random values of every magnitude —
// after a prefix and into a buffer with no room to spare; and PutDigits,
// which it wraps, writes the same digits into exactly the room reserved for
// them at the end of a buffer.
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
			if i >= 0 {
				checkPutDigits(t, uint64(i))
			}
		}
	}
	checkPutDigits(t, math.MaxUint64)
}

// checkPutDigits writes u after a prefix into a buffer whose room past the
// prefix is exactly u's digit count.
func checkPutDigits(t *testing.T, u uint64) {
	t.Helper()
	want := strconv.AppendUint([]byte("row:"), u, 10)
	buf := append(make([]byte, len(want)), "garbage past the digits"...)[:len(want)]
	copy(buf, "row:")
	if n := PutDigits(buf, len("row:"), u); string(buf) != string(want) || n != len(want) {
		t.Fatalf("PutDigits(%d) into %d bytes of room = %q, end %d, want %q", u, len(buf)-len("row:"), buf, n, want)
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
