package viewcube

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// PartitionTable splits a relation into shard tables by hashing the values
// of one dimension, so all tuples sharing that dimension value land in the
// same shard. Because SUM is distributive, any aggregate over the whole
// relation is the sum of the per-shard aggregates — the basis for the
// scale-out engine below.
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

// PartitionedEngine answers aggregation queries over a sharded relation by
// fanning out to one engine per shard (in parallel) and merging the
// distributive results. Shards whose table is empty are skipped.
//
// Each shard engine is wrapped in a SafeEngine, so any number of
// PartitionedEngine queries may run concurrently: a shard serves the
// overlapping fan-out legs through its concurrent read path, and per-shard
// adaptation serialises against them on the shard's own lock.
type PartitionedEngine struct {
	dims    []string
	engines []*SafeEngine
	cubes   []*Cube
}

// NewPartitionedEngine builds one cube and engine per non-empty shard
// table. All tables must share a schema.
func NewPartitionedEngine(tables []*Table, opts EngineOptions) (*PartitionedEngine, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("viewcube: no shard tables")
	}
	if opts.DiskDir != "" {
		return nil, fmt.Errorf("viewcube: shards cannot share one DiskDir; use per-shard engines directly")
	}
	p := &PartitionedEngine{dims: tables[0].Dimensions()}
	for i, t := range tables {
		if t.Len() == 0 {
			continue
		}
		got := t.Dimensions()
		if len(got) != len(p.dims) {
			return nil, fmt.Errorf("viewcube: shard %d schema mismatch", i)
		}
		for j := range got {
			if got[j] != p.dims[j] {
				return nil, fmt.Errorf("viewcube: shard %d schema mismatch", i)
			}
		}
		cube, err := FromRelation(t)
		if err != nil {
			return nil, err
		}
		eng, err := cube.NewEngine(opts)
		if err != nil {
			return nil, err
		}
		p.cubes = append(p.cubes, cube)
		p.engines = append(p.engines, eng.Safe())
	}
	if len(p.engines) == 0 {
		return nil, fmt.Errorf("viewcube: all shards are empty")
	}
	return p, nil
}

// Dimensions returns the shared shard schema's dimension names.
func (p *PartitionedEngine) Dimensions() []string { return append([]string(nil), p.dims...) }

// Measure returns the shared measure name.
func (p *PartitionedEngine) Measure() string { return p.cubes[0].Measure() }

// Shards returns the number of live (non-empty) shards.
func (p *PartitionedEngine) Shards() int { return len(p.engines) }

// Shard returns shard i's engine, e.g. for per-shard statistics or timing.
func (p *PartitionedEngine) Shard(i int) *SafeEngine { return p.engines[i] }

// fanOut runs fn on every shard concurrently and returns the first error.
// Shard engines are SafeEngines, so fan-out legs from overlapping
// PartitionedEngine calls may hit the same shard simultaneously.
func (p *PartitionedEngine) fanOut(fn func(i int, eng *SafeEngine) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(p.engines))
	for i := range p.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, p.engines[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// GroupByResult merges the per-shard GROUP BY results in shard order (SUM is
// distributive, so addition per group is exact): MergeResults over each
// shard's columnar Result. The merge sums into a body of its own, so the
// partials' arrays go back to the scratch pool here.
func (p *PartitionedEngine) GroupByResult(keep ...string) (*Result, error) {
	partial := make([]*Result, len(p.engines))
	err := p.fanOut(func(i int, eng *SafeEngine) (err error) {
		partial[i], _, err = eng.GroupByResult(false, keep...)
		return err
	})
	if err != nil {
		return nil, err
	}
	merged, err := MergeResults(partial)
	for _, part := range partial {
		part.Release()
	}
	return merged, err
}

// GroupBy is GroupByResult in map form, keyed by joined group key.
func (p *PartitionedEngine) GroupBy(keep ...string) (map[string]float64, error) {
	r, err := p.GroupByResult(keep...)
	return untraced(asGroups(r, nil, err))
}

// sumShards adds up one partial aggregate per shard, in shard order.
func (p *PartitionedEngine) sumShards(part func(eng *SafeEngine) (float64, error)) (float64, error) {
	parts := make([]float64, len(p.engines))
	err := p.fanOut(func(i int, eng *SafeEngine) (err error) {
		parts[i], err = part(eng)
		return err
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	return sum, nil
}

// Total sums the shard totals.
func (p *PartitionedEngine) Total() (float64, error) { return p.sumShards((*SafeEngine).Total) }

// RangeSum answers a value-range SUM across shards. Unlike Engine.RangeSum,
// bounds are interpreted lexicographically (first value ≥ Lo through last
// value ≤ Hi), because each shard holds a different subset of values and an
// exact bound may be absent from some shards.
func (p *PartitionedEngine) RangeSum(ranges map[string]ValueRange) (float64, error) {
	for name := range ranges {
		found := false
		for _, d := range p.dims {
			if d == name {
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("viewcube: unknown dimension %q", name)
		}
	}
	return p.sumShards(func(eng *SafeEngine) (float64, error) {
		// ok is dropped: with no values in range a shard contributes 0.
		sum, _, err := eng.RangeSumWithin(ranges)
		return sum, err
	})
}

// DataVersion is the sum of the shards' data versions: each is monotone, so
// the sum moves whenever any shard's does (a max would hide an update to a
// shard whose version is not the highest).
func (p *PartitionedEngine) DataVersion() uint64 {
	var v uint64
	for _, eng := range p.engines {
		v += eng.DataVersion()
	}
	return v
}

// PlanCacheStats aggregates the per-shard plan-cache counters (each shard
// engine owns an epoch-keyed cache of the same type as the root engine's)
// for display. Hits, misses, invalidations and entries are summed; Epoch
// reports the highest shard epoch — caches sync against DataVersion.
func (p *PartitionedEngine) PlanCacheStats() PlanCacheStats {
	var out PlanCacheStats
	for _, eng := range p.engines {
		s := eng.PlanCacheStats()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Invalidations += s.Invalidations
		out.Entries += s.Entries
		if s.Epoch > out.Epoch {
			out.Epoch = s.Epoch
		}
	}
	return out
}

// Optimize fans a keep-lists workload out to every shard (each shard runs
// Algorithm 1/2 on its own cube).
func (p *PartitionedEngine) Optimize(hotViews [][]string, freqs []float64) error {
	if len(hotViews) != len(freqs) {
		return fmt.Errorf("viewcube: %d hot views but %d frequencies", len(hotViews), len(freqs))
	}
	return p.fanOut(func(i int, eng *SafeEngine) error {
		w := p.cubes[i].NewWorkload()
		for j, keep := range hotViews {
			if err := w.AddViewKeeping(freqs[j], keep...); err != nil {
				return err
			}
		}
		return eng.Optimize(w)
	})
}
