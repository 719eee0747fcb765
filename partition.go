package viewcube

import (
	"fmt"
	"hash/fnv"
)

// PartitionTable splits a relation into shard tables by hashing the values
// of one dimension, so all tuples sharing that dimension value land in the
// same shard. Because SUM is distributive, any aggregate over the whole
// relation is the sum of the per-shard aggregates — the basis for the
// cluster tier (internal/cluster), which serves one engine per shard and
// merges their answers at a coordinator.
func PartitionTable(t *Table, dim string, shards int) ([]*Table, error) {
	if shards < 1 {
		return nil, fmt.Errorf("viewcube: need at least one shard, got %d", shards)
	}
	dims := t.Dimensions()
	dimIdx := -1
	for i, d := range dims {
		if d == dim {
			dimIdx = i
			break
		}
	}
	if dimIdx < 0 {
		return nil, fmt.Errorf("viewcube: unknown partition dimension %q (have %v)", dim, dims)
	}
	parts := t.t.Split(shards, dimIdx, func(v string) int {
		h := fnv.New32a()
		h.Write([]byte(v))
		shard := int(h.Sum32()) % shards
		if shard < 0 {
			shard += shards
		}
		return shard
	})
	out := make([]*Table, shards)
	for i, p := range parts {
		out[i] = &Table{t: p}
	}
	return out, nil
}
