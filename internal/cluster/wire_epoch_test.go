package cluster

// Epoch piggybacking on responses: round-trips and decode hardening.

import (
	"bytes"
	"reflect"
	"testing"

	"viewcube/internal/obs"
)

// TestEpochResponseRoundTrip: the epoch survives the codec alone and
// alongside spans and groups.
func TestEpochResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{ID: 1, Kind: KindTotal, Sum: 12.5, Epoch: 1},
		{ID: 2, Kind: KindGroupBy, Result: groupsResult(map[string]float64{"ale": 3, "ipa": 4}), Epoch: 1<<63 + 17},
		{ID: 3, Kind: KindRangeSum, Sum: -2,
			Spans: &obs.Span{Name: "range", DurationUS: 5, Attrs: map[string]int64{"ops": 9}},
			Epoch: 7},
	}
	for _, want := range resps {
		b, err := AppendResponse(nil, want)
		if err != nil {
			t.Fatalf("encoding %+v: %v", want, err)
		}
		got, err := DecodeResponse(b)
		if err != nil {
			t.Fatalf("decoding %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestEpochDecodeHardening: the strict decoder rejects an epoch flag with a
// zero epoch.
func TestEpochDecodeHardening(t *testing.T) {
	good, err := AppendResponse(nil, &Response{ID: 1, Kind: KindTotal, Sum: 1, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Zero the epoch uvarint (last payload byte is the uvarint 1): a set
	// flag with epoch zero is a protocol violation, not a default.
	zeroed := bytes.Clone(good)
	zeroed[len(zeroed)-1] = 0
	if _, err := DecodeResponse(zeroed); err == nil {
		t.Fatal("epoch flag with zero epoch decoded without error")
	}
}
