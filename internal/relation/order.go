package relation

import (
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// What the result encoders derive from a dictionary once and then only read:
// each member's JSON string text, and the permutations that put codes in the
// order of the *output's* keys. Both are O(members), never O(groups), and
// neither depends on which dimensions a query keeps.

// The separators composite group keys are joined with: PathSep on the
// /groupby wire ("ale/east"), UnitSep in library maps and SQL row order.
const (
	PathSep byte = '/'
	UnitSep byte = 0x1f
)

// Order is the immutable encoder view of one dimension's members.
type Order struct {
	esc     []byte  // every member's JSON-escaped text (no quotes), back to back
	end     []int32 // member i is esc[end[i-1]:end[i]]
	byValue []int32 // codes sorted by value; nil when codes already are
	bySep   [2]struct {
		perm      []int32 // codes sorted by value+sep (PathSep, UnitSep); nil when they are
		ambiguous bool    // some member contains the separator
	}
}

// NewOrder derives the encoder view of a member list (members[i] has code
// i). The list is not retained.
func NewOrder(members []string) *Order {
	o := &Order{end: make([]int32, len(members))}
	for i, v := range members {
		o.esc = AppendJSONEscaped(o.esc, v)
		o.end[i] = int32(len(o.esc))
	}
	o.byValue = sortedCodes(members, func(a, b string) bool { return a < b })
	for i, sep := range [2]byte{PathSep, UnitSep} {
		sep := sep
		// a+sep < b+sep, without building either string. It differs from
		// a < b only when one value is a proper prefix of the other: "ale" <
		// "ale-dark", but "ale-dark/" < "ale/".
		o.bySep[i].perm = sortedCodes(members, func(a, b string) bool {
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

// sortedCodes returns the codes of members in less order, or nil when the
// codes are already in that order (dictionaries are built sorted, so this is
// the common case and costs one pass).
func sortedCodes(members []string, less func(a, b string) bool) []int32 {
	if sort.SliceIsSorted(members, func(i, j int) bool { return less(members[i], members[j]) }) {
		return nil
	}
	perm := make([]int32, len(members))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool { return less(members[perm[i]], members[perm[j]]) })
	return perm
}

// Len returns the number of members, TextLen the total length of their
// escaped text.
func (o *Order) Len() int     { return len(o.end) }
func (o *Order) TextLen() int { return len(o.esc) }

// Escaped returns member code's JSON string text, without the quotes. The
// slice aliases the Order: read-only.
func (o *Order) Escaped(code int) []byte {
	if code == 0 {
		return o.esc[:o.end[0]]
	}
	return o.esc[o.end[code-1]:o.end[code]]
}

// Perm returns the codes in output-key order for a key position: by value
// when the position is the key's last, by value+sep (PathSep or UnitSep)
// when more of the key follows. nil means the codes are already in order.
func (o *Order) Perm(sep byte, last bool) []int32 {
	if last {
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
