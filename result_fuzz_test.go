package viewcube

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"viewcube/internal/relation"
)

// fuzzInput hands out the fuzzer's bytes one field at a time, and zeros once
// they run out.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) bytes(n int) []byte {
	n = min(n, len(*in))
	b := (*in)[:n]
	*in = (*in)[n:]
	return b
}

// value draws a cell: small and large whole numbers of either sign, −0,
// fractions, the 'e' forms and raw bit patterns, NaN and ±Inf among them.
func (in *fuzzInput) value() float64 {
	switch k := in.byte(); k % 8 {
	case 0, 1, 2:
		return float64(int8(in.byte())) * float64(k+1)
	case 3:
		return float64(binary.BigEndian.Uint64(append(in.bytes(8), make([]byte, 8)...)) >> (in.byte() % 64))
	case 4:
		return math.Float64frombits(binary.BigEndian.Uint64(append(in.bytes(8), make([]byte, 8)...)))
	case 5:
		return float64(int8(in.byte())) / 8
	case 6:
		return math.Copysign(0, -1)
	}
	return []float64{1e21, -1e-7, 1 << 53, math.Inf(1)}[in.byte()%4]
}

// fuzzResult builds a scalar-SUM result over dims from the input: per
// dimension up to four distinct members of up to 40 bytes, then one cell per
// group. A member never holds "/" or the group-key separator, so that every
// group has its own key in both JSON forms.
func fuzzResult(t *testing.T, in *fuzzInput, dims []string) *Result {
	members := make([][]string, len(dims))
	cells := 1
	for i := range members {
		for n := int(in.byte() % 5); len(members[i]) < n; {
			m := strings.Map(func(r rune) rune {
				if r == '/' || r == rune(relation.UnitSep) {
					return '_'
				}
				return r
			}, string(in.bytes(int(in.byte()%41))))
			for slices.Contains(members[i], m) {
				m += "+"
			}
			members[i] = append(members[i], m)
		}
		cells *= len(members[i])
	}
	vals := make([]float64, cells)
	for i := range vals {
		vals[i] = in.value()
	}
	res, err := NewResult(dims, members, 1, vals)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fuzzGroups is every group of a result by its members joined with the
// group-key separator, its value added in: the merge of those maps over
// shards is what MergeResults must answer.
func fuzzGroups(res *Result, into map[string]float64) {
	_, members, _ := res.Header()
	dense, _ := res.Dense()
	idx := make([]int, len(members))
	for _, v := range dense {
		key := make([]string, len(members))
		for i, c := range idx {
			key[i] = members[i][c]
		}
		k := strings.Join(key, string(relation.UnitSep))
		into[k] += v
		for i := len(idx) - 1; i >= 0; i-- {
			if idx[i]++; idx[i] < len(members[i]) {
				break
			}
			idx[i] = 0
		}
	}
}

// checkFuzzJSON compares both encoders with encoding/json over the groups:
// the /groupby object keyed by the members joined with "/", and the /query
// rows sorted by key. NaN and ±Inf must be errors in both.
func checkFuzzJSON(t *testing.T, what string, res *Result, groups map[string]float64, keyed bool) {
	object := make(map[string]float64, len(groups))
	var rows []refRow
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		key := []string{}
		if keyed {
			key = strings.Split(k, string(relation.UnitSep))
		}
		object[strings.Join(key, "/")] = groups[k]
		rows = append(rows, refRow{Key: key, Values: []float64{groups[k]}})
	}
	var buf bytes.Buffer
	wantErr := json.NewEncoder(&buf).Encode(object)
	wantObject := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	wantRows, rowsErr := json.Marshal(rows)
	if (wantErr != nil) != (rowsErr != nil) {
		t.Fatalf("%s: reference errors disagree: %v, %v", what, wantErr, rowsErr)
	}
	for _, enc := range []struct {
		form   string
		encode func([]byte) ([]byte, error)
		want   []byte
	}{{"groups", res.AppendGroupsJSON, wantObject}, {"rows", res.AppendRowsJSON, wantRows}} {
		got, err := enc.encode([]byte("dst:"))
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("%s %s: encoded %q where encoding/json fails (%v)", what, enc.form, got, wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("%s %s: %v", what, enc.form, err)
		case err == nil && (string(got[:4]) != "dst:" || !bytes.Equal(got[4:], enc.want)):
			t.Fatalf("%s %s:\n got %q\nwant %q", what, enc.form, got[4:], enc.want)
		}
	}
}

// FuzzResultJSON: a result built by NewResult from fuzzed members and cells
// — long, escaped and invalid UTF-8 members, unsorted dictionaries, every
// kind of number — and the merge of two such results with differing
// dictionaries, whose rows are a masked union, encode byte for byte as
// encoding/json encodes the same groups, and fail where it fails.
func FuzzResultJSON(f *testing.F) {
	f.Add([]byte("\x02\x03\x03ale\x08ale-dark\x01a\x02\x02<b\x10sixteen-bytes-xx\x00\x01\x00\x02\x05\x06\x07\x03\x00\x00\x00\x00\x00\x00\x00\x05\x09"))
	f.Add([]byte("\x03\x02\x11seventeen-bytes-x\x0fthirteen-char<x\x01\x01z\x02\x01\"\x01\\\x04\x07\x00\x00\x00\x00\x00\x00\x00\x01\x06\x05\x01\x02\x03"))
	f.Add([]byte("\x00\x04\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Add([]byte("\x01\x04\x01d\x01c\x01b\x01a\x00\x01\x00\x02\x00\x03\x00\x04\x01\x03\x01e\x01c\x01a\x00\x09\x00\x09\x00\x09"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		dims := []string{"d0", "d1", "d2", "d3"}[:in.byte()%4]
		a := fuzzResult(t, &in, dims)
		groups := map[string]float64{}
		fuzzGroups(a, groups)
		checkFuzzJSON(t, "result", a, groups, len(dims) > 0)

		b := fuzzResult(t, &in, dims)
		merged, err := MergeResults([]*Result{a, b})
		if err != nil {
			t.Fatal(err)
		}
		fuzzGroups(b, groups)
		checkFuzzJSON(t, fmt.Sprintf("merge (mask %v)", merged.mask != nil), merged, groups, len(dims) > 0)
	})
}
