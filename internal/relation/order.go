package relation

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// What the result encoders derive from a dictionary once and then only read:
// each member's JSON string text, its tail in each JSON form, and the
// permutations that put codes in the order of the *output's* keys. All are
// O(members), never O(groups), and none depends on which dimensions a query
// keeps.

// The separators composite group keys are joined with: PathSep on the
// /groupby wire ("ale/east"), UnitSep in library maps and SQL row order.
const (
	PathSep byte = '/'
	UnitSep byte = 0x1f
)

// The JSON forms a result is written in. A row of either is its run's prefix
// (everything up to the last key member's opening quote), the last member's
// tail and the row's values.
const (
	GroupsForm = 0 // {"ale/east":12,...}: the key is one string
	RowsForm   = 1 // [{"key":["ale","east"],"values":[12,3]},...]
)

// tailEnds is what follows a member's escaped text in its tail, per form: the
// closing quote, then what the form writes up to the row's first value.
var tailEnds = [2]string{GroupsForm: `":`, RowsForm: `"],"values":[`}

// texts is a list of byte strings stored back to back: string i is
// b[at[i]:at[i+1]].
type texts struct {
	b  []byte
	at []int32 // one more than there are strings; at[0] is 0
}

// Order is the immutable encoder view of one dimension's members.
type Order struct {
	esc     texts    // every member's JSON-escaped text, without quotes
	tails   [2]texts // per form, every member's tail: its esc, then tailEnds
	coord   []int32  // the codes in coordinate order: 0, 1, 2, ...
	byValue []int32  // codes sorted by value; coord itself when codes already are
	bySep   [2]struct {
		perm      []int32 // codes sorted by value+sep (PathSep, UnitSep); coord when they are
		ambiguous bool    // some member contains the separator
	}
}

// NewOrder derives the encoder view of a member list (members[i] has code
// i). The list is not retained.
func NewOrder(members []string) *Order {
	o := &Order{esc: texts{at: make([]int32, 1, len(members)+1)}, coord: make([]int32, len(members))}
	for i, v := range members {
		o.esc.b = AppendJSONEscaped(o.esc.b, v)
		o.esc.at, o.coord[i] = append(o.esc.at, int32(len(o.esc.b))), int32(i)
	}
	for form, end := range tailEnds {
		t := &o.tails[form]
		t.b, t.at = make([]byte, 0, len(o.esc.b)+len(members)*len(end)+Pad), make([]int32, 1, len(members)+1)
		for i := range members {
			t.b = append(append(t.b, o.Escaped(i)...), end...)
			t.at = append(t.at, int32(len(t.b)))
		}
	}
	o.byValue = o.sortedCodes(members, func(a, b string) bool { return a < b })
	for i, sep := range [2]byte{PathSep, UnitSep} {
		sep := sep
		// a+sep < b+sep, without building either string. It differs from
		// a < b only when one value is a proper prefix of the other: "ale" <
		// "ale-dark", but "ale-dark/" < "ale/".
		o.bySep[i].perm = o.sortedCodes(members, func(a, b string) bool {
			n := min(len(a), len(b))
			switch {
			case a[:n] != b[:n]:
				return a[:n] < b[:n]
			case len(a) < len(b):
				return sep <= b[n]
			}
			return len(a) > len(b) && a[n] < sep
		})
		o.bySep[i].ambiguous = slices.ContainsFunc(members, func(v string) bool { return strings.IndexByte(v, sep) >= 0 })
	}
	return o
}

// sortedCodes returns the codes of members in less order: the shared
// coordinate order when the codes are already in that order (dictionaries are
// built sorted, so this is the common case and costs one pass).
func (o *Order) sortedCodes(members []string, less func(a, b string) bool) []int32 {
	if sort.SliceIsSorted(members, func(i, j int) bool { return less(members[i], members[j]) }) {
		return o.coord
	}
	perm := slices.Clone(o.coord)
	sort.SliceStable(perm, func(i, j int) bool { return less(members[perm[i]], members[perm[j]]) })
	return perm
}

// Len returns the number of members, TextLen the total length of their
// escaped text.
func (o *Order) Len() int     { return len(o.coord) }
func (o *Order) TextLen() int { return len(o.esc.b) }

// Escaped returns member code's JSON string text, without the quotes. The
// slice aliases the Order: read-only.
func (o *Order) Escaped(code int) []byte { return o.esc.b[o.esc.at[code]:o.esc.at[code+1]] }

// Pad is the capacity every text a result encoder copies in 16-byte stores
// has past its last byte, so that the last store may read past the text and
// stay in bounds: each tails table has it.
const Pad = 16

// Tails returns every member's tail in a form — its escaped text, the closing
// quote and what the form writes up to the row's first value — back to back:
// member i's is text[at[i]:at[i+1]], with at least Pad bytes of capacity past
// the last tail. Both slices alias the Order: read-only.
func (o *Order) Tails(form int) (text []byte, at []int32) {
	return o.tails[form].b, o.tails[form].at
}

// NoKey is the Order a result without key positions writes its one row with:
// one empty member. Its groups-form tail closes the key string "" that the
// row's prefix opened; in the rows form the key is [], with no string to
// close, so its tail starts past the quote.
var NoKey = func() *Order {
	o := NewOrder([]string{""})
	rows := &o.tails[RowsForm]
	rows.b, rows.at[1] = rows.b[1:], rows.at[1]-1
	return o
}()

// Perm returns the codes in output-key order for a key position: coordinate
// order when sep is 0, otherwise by value when the position is the key's
// last and by value+sep (PathSep or UnitSep) when more of the key follows.
// The slice aliases the Order: read-only.
func (o *Order) Perm(sep byte, last bool) []int32 {
	switch {
	case sep == 0:
		return o.coord
	case last:
		return o.byValue
	}
	return o.bySep[sepIndex(sep)].perm
}

// Ambiguous reports whether some member contains sep, so that composite
// keys joined with it cannot be ordered one position at a time.
func (o *Order) Ambiguous(sep byte) bool { return o.bySep[sepIndex(sep)].ambiguous }

func sepIndex(sep byte) int {
	if sep == PathSep {
		return 0
	}
	return 1
}

// Order returns the dictionary's encoder view, derived on first use and
// shared by every result over the dictionary afterwards.
func (d *Dictionary) Order() *Order {
	if o := d.order.Load(); o != nil && o.Len() == len(d.values) {
		return o
	}
	o := NewOrder(d.values)
	d.order.Store(o)
	return o
}

// Values returns the members in code order. The slice is the dictionary's
// own: read-only.
func (d *Dictionary) Values() []string { return d.values }

const hexDigits = "0123456789abcdef"

// AppendJSONEscaped appends s as encoding/json renders a string with HTML
// escaping on — the Encoder default — minus the surrounding quotes: `"`, `\`
// and control bytes escaped, <, > and & as \u00XX, invalid UTF-8 as the six
// characters \ufffd, U+2028 and U+2029 as \u2028 and \u2029.
func AppendJSONEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\u202`...)
			dst = append(dst, hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// digitPairs is "00", "01", ... "99", back to back.
var digitPairs = [200]byte([]byte("00010203040506070809101112131415161718192021222324" +
	"25262728293031323334353637383940414243444546474849" +
	"50515253545556575859606162636465666768697071727374" +
	"75767778798081828384858687888990919293949596979899"))

// pow10 is 10ⁱ, except 0 at i = 0, so that 0 has one digit.
var pow10 = [20]uint64{0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendInt appends i in decimal: a sign, then PutDigits.
func appendInt(dst []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		dst, u = append(dst, '-'), -u
	}
	dst = slices.Grow(dst, 20) // the digits of any uint64
	return dst[:PutDigits(dst[:cap(dst)], len(dst), u)]
}

// PutDigits writes u in decimal into b from index n and returns the index
// past its last digit: from the last digit, two at a time by one division and
// one 2-byte store, then the leading digit of an odd count. b must have room
// for them (a row of a result encoder reserves it). It is small enough to be
// inlined into the encoder's row loop.
func PutDigits(b []byte, n int, u uint64) int {
	// The number of digits is t+1 from 10ᵗ on and t below, where
	// t = ⌊bits(u) × log₁₀ 2⌋ (1233/4096 ≈ log₁₀ 2).
	t := bits.Len64(u) * 1233 >> 12
	if u >= pow10[t] {
		t++
	}
	n += t
	p := n
	for ; u >= 10; u /= 100 {
		p -= 2
		*(*[2]byte)(b[p:]) = *(*[2]byte)(digitPairs[u%100*2:])
	}
	if t&1 != 0 {
		b[p-1] = '0' + byte(u)
	}
	return n
}

// ErrUnencodable is how AppendJSONFloat refuses a value JSON cannot carry: a
// NaN or an infinity. A served answer holding one is the server's fault.
var ErrUnencodable = errors.New("relation: unsupported JSON value")

// AppendJSONFloat appends f as encoding/json formats a float64: the shortest
// representation that round-trips, 'f' form except 'e' below 1e-6 and from
// 1e21 with a two-digit exponent's leading zero dropped, and an error for
// values JSON cannot carry.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	abs := math.Abs(f)
	switch i := int64(f); {
	case abs < 1<<53 && float64(i) == f && (i != 0 || !math.Signbit(f)):
		return appendInt(dst, i), nil // the common case, and the same digits
	case math.IsInf(f, 0) || math.IsNaN(f):
		return dst, fmt.Errorf("%w %v", ErrUnencodable, f)
	case abs != 0 && (abs < 1e-6 || abs >= 1e21):
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst, nil
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
}
