package cluster

// Trace tests: the one wire version, bit-exact span-subtree round-trips, and
// the decode hardening around hostile span trees.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"viewcube/internal/obs"
)

// TestDownLevelFrameRejected pins the one-version contract: every frame —
// traced or not, with or without spans or an epoch — encodes at Version, and
// a frame at any other version (the retired v1/v2 ladder, or a future one)
// is rejected by both the buffer and the stream decoders. An error response
// carries neither spans nor epoch: both fields are dropped and the frame is
// byte-identical to the same error without them.
func TestDownLevelFrameRejected(t *testing.T) {
	reqs := []*Request{
		{ID: 9, Kind: KindGroupBy, Keep: []string{"product"}},
		{ID: 9, Kind: KindGroupBy, Keep: []string{"product"}, Trace: true},
	}
	for _, r := range reqs {
		b, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if b[2] != Version {
			t.Fatalf("request %+v encoded as version %d, want %d", r, b[2], Version)
		}
		for _, v := range []byte{1, 2, Version + 1} {
			bad := bytes.Clone(b)
			bad[2] = v
			if _, err := DecodeRequest(bad); err == nil {
				t.Errorf("DecodeRequest accepted a version-%d frame", v)
			}
			if _, err := ReadRequest(bytes.NewReader(bad)); err == nil {
				t.Errorf("ReadRequest accepted a version-%d frame", v)
			}
		}
	}
	resps := []*Response{
		{ID: 9, Kind: KindTotal, Sum: 4},
		{ID: 9, Kind: KindTotal, Sum: 4, Spans: &obs.Span{Name: "total"}},
		{ID: 9, Kind: KindTotal, Sum: 4, Epoch: 42},
		{ID: 9, Kind: KindTotal, Err: "boom"},
	}
	for _, r := range resps {
		b, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if b[2] != Version {
			t.Fatalf("response %+v encoded as version %d, want %d", r, b[2], Version)
		}
		for _, v := range []byte{1, 2, Version + 1} {
			bad := bytes.Clone(b)
			bad[2] = v
			if _, err := DecodeResponse(bad); err == nil {
				t.Errorf("DecodeResponse accepted a version-%d frame", v)
			}
			if _, err := ReadResponse(bytes.NewReader(bad)); err == nil {
				t.Errorf("ReadResponse accepted a version-%d frame", v)
			}
		}
	}

	plainErr, err := AppendResponse(nil, &Response{ID: 1, Kind: KindTotal, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	loadedErr, err := AppendResponse(nil, &Response{ID: 1, Kind: KindTotal, Err: "boom",
		Spans: &obs.Span{Name: "total"}, Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainErr, loadedErr) {
		t.Fatal("error response with spans and epoch did not encode identically to one without")
	}
}

// TestTracedRequestRoundTrip: the trace flag survives the codec.
func TestTracedRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ID: 1, Kind: KindTotal, Trace: true},
		{ID: 2, Kind: KindGroupBy, Keep: []string{"product", "region"}, Trace: true},
		{ID: 3, Kind: KindRangeSum, Ranges: []DimRange{{Dim: "day", Lo: "a", Hi: "z"}}, Trace: true},
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
	}
}

// randSpanTree builds a deterministic pseudo-random span subtree with at
// most the given node budget (always using at least one node).
func randSpanTree(rng *rand.Rand, budget *int, depth int) *obs.Span {
	*budget--
	n := &obs.Span{
		Name:       fmt.Sprintf("span-%d", rng.Intn(1000)),
		DurationUS: rng.Int63n(1 << 40),
	}
	if k := rng.Intn(4); k > 0 {
		n.Attrs = make(map[string]int64, k)
		for i := 0; i < k; i++ {
			n.Attrs[fmt.Sprintf("attr%d", i)] = rng.Int63n(1<<50) - (1 << 49)
		}
	}
	if depth < 8 {
		for kids := rng.Intn(4); kids > 0 && *budget > 0; kids-- {
			n.Children = append(n.Children, randSpanTree(rng, budget, depth+1))
		}
	}
	return n
}

// TestSpanSubtreeRoundTripBitExact is the property test pinning the span
// codec: for arbitrary subtrees, decode∘encode is
// the identity and re-encoding the decoded tree reproduces the exact same
// bytes (the canonical encoding is stable).
func TestSpanSubtreeRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		budget := 1 + rng.Intn(64)
		want := &Response{
			ID:    uint64(i),
			Kind:  KindGroupBy,
			Sum:   rng.NormFloat64(),
			Spans: randSpanTree(rng, &budget, 1),
		}
		if rng.Intn(2) == 0 {
			want.Result = groupsResult(map[string]float64{"a": 1, "b": rng.Float64()})
		}
		enc, err := AppendResponse(nil, want)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		got, err := DecodeResponse(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: round trip:\ngot  %+v\nwant %+v", i, got, want)
		}
		enc2, err := AppendResponse(nil, got)
		if err != nil {
			t.Fatalf("iter %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("iter %d: span encoding is not bit-stable", i)
		}
	}
}

// TestSpanDecodeHardening: hostile span subtrees — too deep, too many
// nodes, duplicate attrs, spans on an error response — are rejected, never
// crash the decoder.
func TestSpanDecodeHardening(t *testing.T) {
	deep := &obs.Span{Name: "leaf"}
	for i := 0; i < maxSpanDepth+4; i++ {
		deep = &obs.Span{Name: "n", Children: []*obs.Span{deep}}
	}
	b, err := AppendResponse(nil, &Response{ID: 1, Kind: KindTotal, Spans: deep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(b); err == nil {
		t.Error("over-deep span tree accepted")
	}

	wide := &obs.Span{Name: "root"}
	for i := 0; i < obs.MaxSpans; i++ {
		wide.Children = append(wide.Children, &obs.Span{Name: "c"})
	}
	b, err = AppendResponse(nil, &Response{ID: 1, Kind: KindTotal, Spans: wide})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(b); err == nil {
		t.Error("span tree over the node cap accepted")
	}

	// Hand-build a payload with a duplicate attr key: the encoder cannot
	// produce one, so splice it together from primitives.
	p := []byte{1}                 // ID
	p = append(p, byte(KindTotal)) // kind
	p = append(p, respFlagSpans)   // flags
	p = appendFloat(p, 0)          // sum
	p = append(p, 0)               // group count
	p = appendString(p, "span")    // span name
	p = append(p, 0)               // duration
	p = append(p, 2)               // 2 attrs
	p = appendString(p, "dup")
	p = append(p, 2) // varint 1
	p = appendString(p, "dup")
	p = append(p, 4) // varint 2
	p = append(p, 0) // 0 children
	frame, err := appendFrame(nil, frameResponse, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(frame); err == nil {
		t.Error("duplicate span attr accepted")
	}
}
