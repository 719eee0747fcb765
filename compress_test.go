package viewcube

import (
	"testing"

	"viewcube/internal/bestbasis"
)

// TestCubeCompressEntropy: §4.3's compression runs on a cube's stored
// cells (the cube carries no compressor of its own; cmd/repro -compress
// reproduces the section). Under the Coifman–Wickerhauser entropy
// functional a constant cube collapses to one coefficient, the grand total,
// and the coefficients rebuild a cube with the same cells.
func TestCubeCompressEntropy(t *testing.T) {
	cube, err := NewCube([]string{"x"}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		cube.Set(4, i) // constant: entropy basis should collapse it
	}
	comp, err := bestbasis.Compress(cube.space, cube.data.Plane(0), bestbasis.EntropyCost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if comp.StoredValues() != 1 {
		t.Fatalf("constant cube stored %d coefficients, want 1", comp.StoredValues())
	}
	arr, err := comp.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewCubeFromData(cube.Dimensions(), arr.Shape(), arr.Data())
	if err != nil {
		t.Fatal(err)
	}
	if back.At(7) != 4 {
		t.Fatalf("reconstruction wrong: %g", back.At(7))
	}
	if back.Total() != cube.Total() {
		t.Fatalf("reconstructed total %g, want %g", back.Total(), cube.Total())
	}
}
