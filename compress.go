package viewcube

import (
	"fmt"

	"viewcube/internal/bestbasis"
)

// CompressedCube is a cube stored as the sparse coefficients of its best
// wavelet-packet basis (§4.3's compression application). With threshold 0
// the representation is exactly lossless.
type CompressedCube struct {
	c    *bestbasis.Compressed
	dims []string
}

// CompressOptions tunes Cube.Compress.
type CompressOptions struct {
	// Threshold drops coefficients with magnitude ≤ Threshold; 0 (the
	// default) drops exact zeros only and is lossless.
	Threshold float64
	// Entropy selects the Coifman–Wickerhauser entropy functional instead
	// of the default nonzero count.
	Entropy bool
}

// Compress selects the best wavelet-packet basis for this cube's contents
// and stores it sparsely. Intended for cubes up to a few million cells (the
// selection materialises the element graph).
func (c *Cube) Compress(opts CompressOptions) (*CompressedCube, error) {
	if c.data == nil {
		return nil, errHandedOver("Compress")
	}
	cost := bestbasis.NonzeroCost(opts.Threshold)
	if opts.Entropy {
		cost = bestbasis.EntropyCost()
	}
	comp, err := bestbasis.Compress(c.space, c.data.Plane(0), cost, opts.Threshold)
	if err != nil {
		return nil, err
	}
	return &CompressedCube{c: comp, dims: append([]string(nil), c.dims...)}, nil
}

// StoredValues returns the number of retained coefficients.
func (cc *CompressedCube) StoredValues() int { return cc.c.StoredValues() }

// Elements returns the number of basis elements in the representation.
func (cc *CompressedCube) Elements() int { return len(cc.c.Elements) }

// Decompress reconstructs the cube (named dimensions preserved). Note that
// a cube reconstructed this way has no dictionary encoding; compression
// operates on the array level.
func (cc *CompressedCube) Decompress() (*Cube, error) {
	arr, err := cc.c.Decompress()
	if err != nil {
		return nil, err
	}
	out, err := NewCubeFromData(cc.dims, arr.Shape(), arr.Data())
	if err != nil {
		return nil, fmt.Errorf("viewcube: rebuilding cube: %w", err)
	}
	return out, nil
}
