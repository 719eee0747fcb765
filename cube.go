package viewcube

import (
	"fmt"
	"io"
	"sort"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/hierarchy"
	"viewcube/internal/ndarray"
	"viewcube/internal/relation"
	"viewcube/internal/velement"
)

// Cube is a dense multi-dimensional data cube with named dimensions and a
// SUM measure. Build one with NewCube, NewCubeFromData or Load, then attach
// an Engine to query it.
type Cube struct {
	space *velement.Space
	// data is the cube's cells: the first engine adopts this very array as its
	// root element, and ReleaseCells then drops the cube's own reference. The
	// cube of NewAggEngine has three planes; the accessors read plane 0, SUM.
	data     *ndarray.Array
	attached bool // NewEngine ran: an engine's store holds the cells too
	// holder is the first engine's store when it holds data in memory:
	// ReleaseCells hands the cells over to it.
	holder  *assembly.MemStore
	dims    []string
	measure string             // measure attribute name; "" for raw cubes
	enc     *relation.Encoding // nil for cubes built from raw arrays
	// hier maps dimension → level name → hierarchy level (DefineHierarchy).
	hier map[string]map[string]*hierarchy.Level
}

// NewCube returns a zero-filled cube. Every extent must be a power of two
// (pad your domains; Load does this automatically for relational data).
func NewCube(dimNames []string, shape []int) (*Cube, error) {
	if len(dimNames) != len(shape) {
		return nil, fmt.Errorf("viewcube: %d dimension names for %d extents", len(dimNames), len(shape))
	}
	if err := checkDimNames(dimNames); err != nil {
		return nil, err
	}
	space, err := velement.NewSpace(shape)
	if err != nil {
		return nil, err
	}
	return &Cube{
		space: space,
		data:  ndarray.New(shape...),
		dims:  append([]string(nil), dimNames...),
	}, nil
}

// NewCubeFromData wraps an existing row-major cell slice (not copied).
func NewCubeFromData(dimNames []string, shape []int, data []float64) (*Cube, error) {
	c, err := NewCube(dimNames, shape)
	if err != nil {
		return nil, err
	}
	arr, err := ndarray.NewFrom(data, shape...)
	if err != nil {
		return nil, err
	}
	c.data = arr
	return c, nil
}

func checkDimNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" {
			return fmt.Errorf("viewcube: empty dimension name")
		}
		if seen[n] {
			return fmt.Errorf("viewcube: duplicate dimension name %q", n)
		}
		seen[n] = true
	}
	return nil
}

// Load reads a CSV relation (header row, one column named measure, every
// other column a dimension), dictionary-encodes each dimension onto a
// power-of-two domain in sorted value order, and SUM-aggregates tuples into
// cube cells.
func Load(r io.Reader, measure string) (*Cube, error) {
	tbl, err := relation.ReadCSV(r, measure)
	if err != nil {
		return nil, err
	}
	return FromTable(tbl)
}

// FromTable builds a cube from an already-parsed relation.
func FromTable(tbl *relation.Table) (*Cube, error) {
	data, enc, err := relation.BuildCube(tbl)
	if err != nil {
		return nil, err
	}
	space, err := velement.NewSpace(data.Shape())
	if err != nil {
		return nil, err
	}
	return &Cube{
		space:   space,
		data:    data,
		dims:    append([]string(nil), enc.Dimensions...),
		measure: tbl.Schema().Measure,
		enc:     enc,
	}, nil
}

// Measure returns the measure attribute name, or "" for cubes built from
// raw arrays.
func (c *Cube) Measure() string { return c.measure }

// Dimensions returns the dimension names in cube order.
func (c *Cube) Dimensions() []string { return append([]string(nil), c.dims...) }

// Shape returns the cube extents.
func (c *Cube) Shape() []int { return c.space.Shape() }

// Volume returns the cube's cell count.
func (c *Cube) Volume() int { return c.space.CubeVolume() }

// ReleaseCells hands the cells over to the engine attached with NewEngine:
// the cube drops its own reference, so once a reselection drops the root
// element the raw array is garbage and the process holds the selected set
// only. An in-memory engine still holding the cells as its root keeps them as
// their nonzeros if at most one cell in eight is nonzero (DESIGN §19). Call
// it before the engine is shared. The engine serves and updates as before;
// Total, At, Add, Set, Compress and a further NewEngine fail from here on,
// naming this method. Without an engine the cells would be lost: a panic.
func (c *Cube) ReleaseCells() {
	if !c.attached {
		panic("viewcube: Cube.ReleaseCells before NewEngine: no engine holds the cells")
	}
	if c.holder != nil { // set only while data is attached
		c.holder.HoldSparse(c.space.Root(), c.data)
	}
	c.data, c.holder = nil, nil
}

// errHandedOver is how operation op, which needs the cells, fails without them.
func errHandedOver(op string) error {
	return fmt.Errorf("viewcube: Cube.%s after ReleaseCells: the engine holds the cells", op)
}

// cells is the SUM plane behind the accessor op, which panics once it is
// handed over.
func (c *Cube) cells(op string) *ndarray.Array {
	if c.data == nil {
		panic(errHandedOver(op))
	}
	return c.data.Plane(0)
}

// Total returns the grand total of the measure.
func (c *Cube) Total() float64 { return c.cells("Total").Total() }

// At returns the cell value at the multi-index.
func (c *Cube) At(idx ...int) float64 { return c.cells("At").At(idx...) }

// Add accumulates v into the cell at the multi-index. Like Set it is for
// filling a cube before NewEngine; afterwards, change cells with Engine.Update,
// which also maintains every materialised element.
func (c *Cube) Add(v float64, idx ...int) { c.cells("Add").Add(v, idx...) }

// Set stores v at the multi-index (before NewEngine: see Add).
func (c *Cube) Set(v float64, idx ...int) { c.cells("Set").Set(v, idx...) }

// DimIndex returns the position of a named dimension.
func (c *Cube) DimIndex(name string) (int, error) {
	for i, d := range c.dims {
		if d == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("viewcube: unknown dimension %q (have %v)", name, c.dims)
}

// CodeOf returns the cube coordinate of a dimension value for cubes built
// from relational data.
func (c *Cube) CodeOf(dim, value string) (int, error) {
	if c.enc == nil {
		return 0, fmt.Errorf("viewcube: cube has no dictionary encoding (built from a raw array)")
	}
	m, err := c.DimIndex(dim)
	if err != nil {
		return 0, err
	}
	code, ok := c.enc.Dicts[m].Code(value)
	if !ok {
		return 0, fmt.Errorf("viewcube: value %q not present in dimension %q", value, dim)
	}
	return code, nil
}

// ValueOf inverts CodeOf: the dimension value at a cube coordinate, with
// ok=false for padding coordinates beyond the dictionary.
func (c *Cube) ValueOf(dim string, code int) (string, bool) {
	if c.enc == nil {
		return "", false
	}
	m, err := c.DimIndex(dim)
	if err != nil {
		return "", false
	}
	return c.enc.Dicts[m].Value(code)
}

// Element identifies one view element of the cube: the product of one
// dyadic frequency interval per dimension. The zero value is invalid;
// obtain Elements from Cube.ViewKeeping, Cube.GrandTotal or Cube.Root.
type Element struct {
	rect freq.Rect
}

// Root returns the element of the undecomposed cube itself.
func (c *Cube) Root() Element { return Element{rect: c.space.Root()} }

// GrandTotal returns the fully aggregated view element (a single cell).
func (c *Cube) GrandTotal() Element {
	return Element{rect: c.space.ViewForMask(uint(1<<len(c.dims)) - 1)}
}

// ViewKeeping returns the aggregated view that keeps the named dimensions
// and totally aggregates every other dimension — the GROUP BY keep...
// view. With no arguments it is the grand total.
func (c *Cube) ViewKeeping(keep ...string) (Element, error) {
	mask := uint(1<<len(c.dims)) - 1 // aggregate everything...
	for _, name := range keep {
		m, err := c.DimIndex(name)
		if err != nil {
			return Element{}, err
		}
		mask &^= 1 << uint(m) // ...except the kept dimensions
	}
	return Element{rect: c.space.ViewForMask(mask)}, nil
}

// AllViews returns all 2^d aggregated views of the cube, from the cube
// itself (every dimension kept) to the grand total.
func (c *Cube) AllViews() []Element {
	views := c.space.AggregatedViews()
	out := make([]Element, len(views))
	for i, v := range views {
		out[i] = Element{rect: v}
	}
	return out
}

// Valid reports whether the element belongs to this cube's element graph.
func (c *Cube) Valid(e Element) bool { return e.rect != nil && c.space.Valid(e.rect) }

// VolumeOf returns the element's cell count.
func (c *Cube) VolumeOf(e Element) (int, error) {
	if !c.Valid(e) {
		return 0, fmt.Errorf("viewcube: invalid element %v", e)
	}
	return c.space.Volume(e.rect), nil
}

// IsAggregatedView reports whether the element is a classical GROUP BY
// view.
func (c *Cube) IsAggregatedView(e Element) bool {
	return c.Valid(e) && c.space.IsAggregatedView(e.rect)
}

// String renders the element's frequency rectangle.
func (e Element) String() string {
	if e.rect == nil {
		return "invalid element"
	}
	return e.rect.String()
}

// KeptDims lists, for an aggregated view, which dimensions it keeps.
func (c *Cube) KeptDims(e Element) ([]string, error) {
	if !c.IsAggregatedView(e) {
		return nil, fmt.Errorf("viewcube: %v is not an aggregated view", e)
	}
	var out []string
	for m, node := range e.rect {
		if node == freq.Root {
			out = append(out, c.dims[m])
		}
	}
	sort.Strings(out)
	return out, nil
}
