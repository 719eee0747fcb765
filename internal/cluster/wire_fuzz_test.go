package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"viewcube/internal/obs"
)

// resultFrame hand-assembles a group-by response frame around a columnar
// result, field by field, so tests can make the fields disagree: width,
// dimension names, member lists, the declared value count, the values.
func resultFrame(width uint64, dims []string, members [][]string, nvals uint64, vals ...float64) []byte {
	p := binary.AppendUvarint(nil, 42)
	p = append(p, byte(KindGroupBy), respFlagResult)
	p = appendFloat(p, 0)
	p = binary.AppendUvarint(p, width)
	p = binary.AppendUvarint(p, uint64(len(dims)))
	for i, dim := range dims {
		p = appendString(p, dim)
		p = binary.AppendUvarint(p, uint64(len(members[i])))
		for _, m := range members[i] {
			p = appendString(p, m)
		}
	}
	p = binary.AppendUvarint(p, nvals)
	for _, v := range vals {
		p = appendFloat(p, v)
	}
	frame, err := appendFrame(nil, frameResponse, p)
	if err != nil {
		panic(err)
	}
	return frame
}

// reframe re-wraps a truncated payload so only the payload is malformed.
func reframe(frame []byte, keep int) []byte {
	out, err := appendFrame(nil, frameResponse, frame[headerLen:headerLen+keep])
	if err != nil {
		panic(err)
	}
	return out
}

// malformedResultFrames is the columnar response's rejection corpus.
func malformedResultFrames() map[string][]byte {
	pr, ab := []string{"p", "r"}, [][]string{{"ale", "bock"}, {"east"}}
	good := resultFrame(1, pr, ab, 2, 1.5, -2)
	// A member list that announces three members and holds two.
	short := resultFrame(1, []string{"p"}, [][]string{{"ale", "bock"}}, 2, 1, 2)
	short[headerLen+15]++ // the member count, after id, kind, flags, sum (8), width, ndims, "p" (2)
	return map[string][]byte{
		"width 0":                         resultFrame(0, pr, ab, 2, 1.5, -2),
		"width 2, one plane of values":    resultFrame(2, pr, ab, 2, 1.5, -2),
		"values short of the extents":     resultFrame(1, pr, ab, 1, 1.5),
		"values beyond the extents":       resultFrame(1, pr, ab, 3, 1.5, -2, 7),
		"count announces missing values":  resultFrame(1, pr, ab, 2, 1.5),
		"count announces a huge body":     resultFrame(1, pr, ab, 1<<40),
		"width announces a huge body":     resultFrame(1<<40, pr, ab, 2, 1.5, -2),
		"dictionary shorter than claimed": short,
		"values for an empty dictionary":  resultFrame(1, pr, [][]string{{}, {"east"}}, 1, 1),
		"truncated in the header":         reframe(good, 16),
		"truncated in a member":           reframe(good, 21),
		"truncated in the values":         reframe(good, len(good)-headerLen-3),
		"trailing byte":                   append(good[:len(good):len(good)], 0),
	}
}

// TestDecodeRejectsMalformedResult: every disagreement between a columnar
// response's header and its body is a decode error — never a panic, never an
// allocation sized by a forged count.
func TestDecodeRejectsMalformedResult(t *testing.T) {
	good := resultFrame(1, []string{"p", "r"}, [][]string{{"ale", "bock"}, {"east"}}, 2, 1.5, -2)
	r, err := DecodeResponse(good)
	if err != nil || r.Result.Len() != 2 {
		t.Fatalf("well-formed result frame: %+v, %v", r, err)
	}
	if g, _ := r.Result.Groups(); g["ale\x1feast"] != 1.5 || g["bock\x1feast"] != -2 {
		t.Fatalf("decoded groups %v", g)
	}
	for name, frame := range malformedResultFrames() {
		if r, err := DecodeResponse(frame); err == nil {
			t.Errorf("%s: decoded to %+v", name, r.Result)
		}
	}
}

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
	resp, _ := AppendResponse(nil, &Response{ID: 42, Kind: KindGroupBy, Result: groupsResult(map[string]float64{"ale": 1, "stout": -2.5})})
	f.Add(resp)
	errResp, _ := AppendResponse(nil, &Response{ID: 7, Kind: KindTotal, Err: "boom"})
	f.Add(errResp)
	// Trace-bearing and epoch-bearing frames.
	tracedReq, _ := AppendRequest(nil, &Request{ID: 3, Kind: KindTotal, Trace: true})
	f.Add(tracedReq)
	spanResp, _ := AppendResponse(nil, &Response{ID: 3, Kind: KindTotal, Sum: 7, Spans: &obs.Span{
		Name:       "total",
		DurationUS: 1500,
		Attrs:      map[string]int64{"ops": 12, "cells": 4},
		Children: []*obs.Span{
			{Name: "plan total", Attrs: map[string]int64{"cache_hit": 1}},
			{Name: "assemble", DurationUS: 900, Attrs: map[string]int64{"ops": 12}},
		},
	}})
	f.Add(spanResp)
	epochResp, _ := AppendResponse(nil, &Response{ID: 5, Kind: KindRangeSum, Sum: -2, Epoch: 1<<40 + 3})
	f.Add(epochResp)
	// The columnar group-by payload: a two-dimension result, and every way its
	// header and body can disagree.
	f.Add(resultFrame(1, []string{"p", "r"}, [][]string{{"ale", "bock"}, {"east"}}, 2, 1.5, -2))
	for _, frame := range malformedResultFrames() {
		f.Add(frame)
	}
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
