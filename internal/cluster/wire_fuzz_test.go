package cluster

import (
	"bytes"
	"testing"

	"viewcube/internal/obs"
)

// FuzzWireCodec feeds arbitrary bytes to both frame decoders: they must
// never panic and never allocate beyond the frame bound, and any frame a
// decoder accepts must re-encode canonically (encode∘decode is a fixpoint:
// re-encoding the decoded message yields byte-identical output, which also
// proves group-map ordering cannot leak into the wire image).
func FuzzWireCodec(f *testing.F) {
	req, _ := AppendRequest(nil, &Request{ID: 42, Kind: KindGroupBy, Keep: []string{"product", "region"}})
	f.Add(req)
	rr, _ := AppendRequest(nil, &Request{ID: 1, Kind: KindRangeSum, Ranges: []DimRange{{Dim: "day", Lo: "a", Hi: "z"}}})
	f.Add(rr)
	resp, _ := AppendResponse(nil, &Response{ID: 42, Kind: KindGroupBy, Groups: map[string]float64{"ale": 1, "stout": -2.5}})
	f.Add(resp)
	errResp, _ := AppendResponse(nil, &Response{ID: 7, Kind: KindTotal, Err: "boom"})
	f.Add(errResp)
	// Trace-bearing and epoch-bearing frames.
	tracedReq, _ := AppendRequest(nil, &Request{ID: 3, Kind: KindTotal, Trace: true})
	f.Add(tracedReq)
	spanResp, _ := AppendResponse(nil, &Response{ID: 3, Kind: KindTotal, Sum: 7, Spans: &obs.SpanNode{
		Name:       "total",
		DurationUS: 1500,
		Attrs:      map[string]int64{"ops": 12, "cells": 4},
		Children: []*obs.SpanNode{
			{Name: "plan total", Attrs: map[string]int64{"cache_hit": 1}},
			{Name: "assemble", DurationUS: 900, Attrs: map[string]int64{"ops": 12}},
		},
	}})
	f.Add(spanResp)
	epochResp, _ := AppendResponse(nil, &Response{ID: 5, Kind: KindRangeSum, Sum: -2, Epoch: 1<<40 + 3})
	f.Add(epochResp)
	flip := append([]byte(nil), resp...)
	flip[9] ^= 0xFF
	f.Add(flip)
	f.Add(req[:len(req)-2])
	f.Add([]byte{'v', 'c', Version, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeRequest(data); err == nil {
			enc, err := AppendRequest(nil, r)
			if err != nil {
				t.Fatalf("accepted request failed to re-encode: %v", err)
			}
			r2, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("re-encoded request failed to decode: %v", err)
			}
			enc2, err := AppendRequest(nil, r2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("request encoding is not canonical: encode∘decode is not a fixpoint")
			}
		}
		if r, err := DecodeResponse(data); err == nil {
			enc, err := AppendResponse(nil, r)
			if err != nil {
				t.Fatalf("accepted response failed to re-encode: %v", err)
			}
			r2, err := DecodeResponse(enc)
			if err != nil {
				t.Fatalf("re-encoded response failed to decode: %v", err)
			}
			enc2, err := AppendResponse(nil, r2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("response encoding is not canonical: encode∘decode is not a fixpoint")
			}
		}
	})
}
