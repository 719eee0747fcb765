package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzWALRecover writes arbitrary bytes as a WAL segment: OpenWAL either
// fails or replays a prefix of well-formed records — each one also a record
// the segment holds intact after the truncation — and never panics; and
// every delta it decodes round-trips through encodeDelta.
func FuzzWALRecover(f *testing.F) {
	var good bytes.Buffer
	good.Write(walMagic)
	for i, d := range []Delta{
		{Idx: []int{1, 2}, Vals: []float64{3.5}},
		{Idx: []int{0}, Vals: []float64{-1, 1, 1}},
		{Idx: []int{7, 0, 3}, Vals: []float64{math.Copysign(0, -1)}},
	} {
		d.Seq = uint64(i + 1)
		good.Write(frame(encodeDelta(d)))
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3]) // a torn tail
	f.Add([]byte{})
	f.Add(walMagic)
	f.Add([]byte("not a wal"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed []Delta
		w, err := OpenWAL(path, WALOptions{}, func(d Delta) error {
			if got, err := decodeDelta(encodeDelta(d)); err != nil || !sameDelta(got, d) {
				t.Fatalf("delta %+v does not round-trip: %+v, %v", d, got, err)
			}
			replayed = append(replayed, d)
			return nil
		})
		if err != nil {
			return
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// What stayed on disk replays to exactly the same deltas.
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) >= len(walMagic) && !bytes.HasPrefix(data, kept) {
			t.Fatalf("recovery rewrote the segment instead of truncating it")
		}
		var again []Delta
		w, err = OpenWAL(path, WALOptions{}, func(d Delta) error { again = append(again, d); return nil })
		if err != nil {
			t.Fatalf("reopening a recovered segment: %v", err)
		}
		w.Close()
		if !slices.EqualFunc(replayed, again, sameDelta) {
			t.Fatalf("a recovered segment replays %d deltas, then %d", len(replayed), len(again))
		}
	})
}

// frame wraps a payload as one delta record.
func frame(payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32([]byte{recDelta}, uint32(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
}

func sameDelta(a, b Delta) bool {
	return a.Seq == b.Seq && slices.Equal(a.Idx, b.Idx) &&
		slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
