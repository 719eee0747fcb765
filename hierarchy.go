package viewcube

import (
	"fmt"
	"sort"

	"viewcube/internal/hierarchy"
	"viewcube/internal/ndarray"
)

// DefineHierarchy registers a hierarchy level on a dictionary-encoded
// dimension: parentOf maps each base value to its group (e.g. "day-017" →
// "month-00"). The grouping must be monotone in sorted value order, so each
// group is a contiguous coordinate range — which is what lets roll-ups run
// as range aggregations through intermediate view elements.
func (c *Cube) DefineHierarchy(dim, levelName string, parentOf func(string) string) error {
	if c.enc == nil {
		return fmt.Errorf("viewcube: hierarchies need a dictionary-encoded cube")
	}
	m, err := c.DimIndex(dim)
	if err != nil {
		return err
	}
	dict := c.enc.Dicts[m]
	base := make([]string, dict.Len())
	for i := range base {
		v, _ := dict.Value(i)
		base[i] = v
	}
	lv, err := hierarchy.BuildLevel(levelName, base, parentOf)
	if err != nil {
		return err
	}
	if err := lv.Validate(dict.Len()); err != nil {
		return err
	}
	if c.hier == nil {
		c.hier = make(map[string]map[string]*hierarchy.Level)
	}
	if c.hier[dim] == nil {
		c.hier[dim] = make(map[string]*hierarchy.Level)
	}
	c.hier[dim][levelName] = lv
	return nil
}

// HierarchyLevels lists the registered level names on a dimension.
func (c *Cube) HierarchyLevels(dim string) []string {
	var out []string
	for name := range c.hier[dim] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (c *Cube) level(dim, levelName string) (*hierarchy.Level, error) {
	lv := c.hier[dim][levelName]
	if lv == nil {
		return nil, fmt.Errorf("viewcube: no hierarchy level %q on dimension %q", levelName, dim)
	}
	return lv, nil
}

// RollUp aggregates the measure to a hierarchy level of one dimension,
// optionally restricted by value ranges on *other* dimensions: the result
// maps each group name to its SUM. It is one read, the GroupByWhere that
// keeps dim, whose cells are then summed over each group's code range.
func (e *Engine) RollUp(dim, levelName string, ranges map[string]ValueRange) (map[string]float64, error) {
	lv, err := e.Cube().level(dim, levelName)
	if err != nil {
		return nil, err
	}
	if _, filtered := ranges[dim]; filtered {
		return nil, fmt.Errorf("viewcube: dimension %q cannot be filtered while rolling it up", dim)
	}
	v, err := e.GroupByWhere([]string{dim}, ranges)
	if err != nil {
		return nil, err
	}
	defer ndarray.Recycle(v.arr) // the view lives no longer than this roll-up
	cells := v.arr.Data()        // the SUM plane leads, one cell per code of dim
	out := make(map[string]float64, lv.NumGroups())
	for _, g := range lv.Groups() {
		var sum float64
		for _, c := range cells[g.Lo : g.Hi+1] {
			sum += c
		}
		out[g.Name] = sum
	}
	return out, nil
}

// DrillDown lists the base values of one hierarchy group together with
// their individual SUMs — the inverse navigation of RollUp.
func (e *Engine) DrillDown(dim, levelName, groupName string) (map[string]float64, error) {
	cube := e.Cube()
	lv, err := cube.level(dim, levelName)
	if err != nil {
		return nil, err
	}
	g, err := lv.GroupNamed(groupName)
	if err != nil {
		return nil, err
	}
	m, err := cube.DimIndex(dim)
	if err != nil {
		return nil, err
	}
	v, err := e.GroupBy(dim)
	if err != nil {
		return nil, err
	}
	groups, err := v.Groups()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, g.Size())
	for code := g.Lo; code <= g.Hi; code++ {
		val, ok := cube.enc.Dicts[m].Value(code)
		if !ok {
			continue
		}
		out[val] = groups[val]
	}
	return out, nil
}

// GroupOfValue returns the hierarchy group containing a base value.
func (c *Cube) GroupOfValue(dim, levelName, value string) (string, error) {
	lv, err := c.level(dim, levelName)
	if err != nil {
		return "", err
	}
	code, err := c.CodeOf(dim, value)
	if err != nil {
		return "", err
	}
	g, err := lv.GroupOf(code)
	if err != nil {
		return "", err
	}
	return g.Name, nil
}
