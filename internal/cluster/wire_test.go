package cluster

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"viewcube"
)

// groupsResult is the columnar form of a one-dimension group map — what a
// shard puts in Response.Result where it used to put the map itself.
func groupsResult(groups map[string]float64) *viewcube.Result {
	members := viewcube.SortedGroupKeys(groups)
	vals := make([]float64, len(members))
	for i, k := range members {
		vals[i] = groups[k]
	}
	r, err := viewcube.NewResult([]string{"key"}, [][]string{members}, 1, vals)
	if err != nil {
		panic(err)
	}
	return r
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ID: 1, Kind: KindTotal},
		{ID: 0, Kind: KindGroupBy, Keep: []string{"product", "region"}},
		{ID: 1 << 60, Kind: KindGroupBy, Keep: []string{""}},
		{ID: 7, Kind: KindRangeSum, Ranges: []DimRange{
			{Dim: "day", Lo: "day-000", Hi: "day-013"},
			{Dim: "region", Lo: "", Hi: "zzz"},
		}},
	}
	for _, req := range reqs {
		b, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip: got %+v, want %+v", got, req)
		}
		// Stream framing must agree with the buffer codec.
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		got2, err := ReadRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got2, req) {
			t.Fatalf("stream round trip: got %+v, want %+v", got2, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{ID: 3, Kind: KindTotal, Sum: 1234.5},
		{ID: 4, Kind: KindRangeSum, Sum: -0.125},
		{ID: 5, Kind: KindGroupBy, Result: groupsResult(map[string]float64{
			"ale":          1.5,
			"lager\x00pse": -2,
			"":             99,
		})},
		{ID: 6, Kind: KindGroupBy, Err: "shard exploded"},
		{ID: 7, Kind: KindTotal, Sum: math.Inf(1)},
	}
	for _, resp := range resps {
		b, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		got, err := DecodeResponse(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("round trip: got %+v, want %+v", got, resp)
		}
	}
}

func TestResponseEncodingDeterministic(t *testing.T) {
	groups := map[string]float64{}
	for i := 0; i < 64; i++ {
		groups[strings.Repeat("k", i+1)] = float64(i)
	}
	r := &Response{ID: 9, Kind: KindGroupBy, Result: groupsResult(groups)}
	a, err := AppendResponse(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("same response encoded to different bytes")
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	good, err := AppendRequest(nil, &Request{ID: 1, Kind: KindGroupBy, Keep: []string{"product"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:4],
		"bad magic":        append([]byte("xx"), good[2:]...),
		"bad version":      append([]byte{'v', 'c', 99}, good[3:]...),
		"truncated":        good[:len(good)-1],
		"trailing garbage": append(append([]byte{}, good...), 0),
	}
	for name, b := range cases {
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("%s: decode accepted malformed frame", name)
		}
	}
	// Response frame fed to the request decoder (and vice versa).
	resp, err := AppendResponse(nil, &Response{ID: 1, Kind: KindTotal, Sum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(resp); err == nil {
		t.Error("request decoder accepted a response frame")
	}
	if _, err := DecodeResponse(good); err == nil {
		t.Error("response decoder accepted a request frame")
	}
	// A forged huge collection length must fail fast, not allocate.
	forged := append([]byte{}, good...)
	if _, err := DecodeRequest(forged[:len(forged)-1]); err == nil {
		t.Error("truncated keep list accepted")
	}
	if _, err := AppendRequest(nil, &Request{Kind: 77}); err == nil {
		t.Error("invalid kind encoded")
	}
}
