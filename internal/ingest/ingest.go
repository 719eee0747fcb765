// Package ingest is the streaming write path: a write-ahead log of cell
// deltas (batched, fsync-optional, crash-replayable), a bounded coalescing
// buffer that accumulates acknowledged deltas into a sparse delta cube, and
// a refcounted snapshot lifecycle (publish → drain → retire) that lets
// readers pin an immutable generation for a whole query while a background
// merger folds delta batches into fresh snapshots.
//
// The package is engine-agnostic: a Delta is a cell index plus a component
// vector (width 1 for scalar SUM cubes, the measure-vector width for
// [Σv, Σv², Σ1] cubes), and the lifecycle is generic over the snapshot
// payload. The root package's Engine (at any measure width) wires the
// three pieces into an MVCC write path; exactness of delta folding
// rests on the linearity of the Haar partial/residual operators (every
// stored element changes in exactly one cell per component — see DESIGN
// §16).
package ingest

import (
	"encoding/binary"
	"fmt"
)

// Delta is one cell update: a sparse point of the accumulated delta cube.
// Vals carries one value per measure component (scalar engines use width
// 1). Seq is the WAL-assigned (or runtime-assigned) durability sequence
// number; acknowledged writes become visible at the first published
// snapshot whose watermark covers their Seq.
type Delta struct {
	Seq  uint64
	Idx  []int
	Vals []float64
}

// clone deep-copies a delta so buffer and WAL never alias caller slices.
func (d Delta) clone() Delta {
	c := Delta{Seq: d.Seq, Idx: make([]int, len(d.Idx)), Vals: make([]float64, len(d.Vals))}
	copy(c.Idx, d.Idx)
	copy(c.Vals, d.Vals)
	return c
}

// cellKey encodes a cell index as a map key for coalescing.
func cellKey(idx []int) string {
	b := make([]byte, 0, 4*len(idx))
	for _, v := range idx {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return string(b)
}

// validate rejects deltas the write path cannot represent.
func (d Delta) validate() error {
	if len(d.Idx) == 0 {
		return fmt.Errorf("ingest: delta needs a cell index")
	}
	if len(d.Vals) == 0 {
		return fmt.Errorf("ingest: delta needs at least one component value")
	}
	for _, v := range d.Idx {
		if v < 0 {
			return fmt.Errorf("ingest: negative cell coordinate %d", v)
		}
	}
	return nil
}
