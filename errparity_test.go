package viewcube_test

import (
	"testing"

	"viewcube"
)

// TestRangeReadErrorParity pins the error each range-taking read returns for
// the same faulty request. The texts reach HTTP clients in 400 bodies, so
// they are part of the interface, whichever read body resolves the request.
// A read that cannot pose a case (RangeSum keeps no dimension) is left out
// of that case's table.
func TestRangeReadErrorParity(t *testing.T) {
	enc := loadSales(t)
	if err := enc.DefineHierarchy("day", "half", halfOf); err != nil {
		t.Fatal(err)
	}
	encEng, err := enc.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := viewcube.NewCube([]string{"product", "region", "day"}, []int{4, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	rawEng, err := raw.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	type request struct {
		keep   []string // GroupByWhere's kept dimensions
		ranges map[string]viewcube.ValueRange
		sql    string // the same request as a filtered statement
	}
	reads := map[string]func(e *viewcube.Engine, q request) error{
		"RangeSum": func(e *viewcube.Engine, q request) error {
			_, err := e.RangeSum(q.ranges)
			return err
		},
		"RangeResult": func(e *viewcube.Engine, q request) error {
			_, _, _, err := e.RangeResult(false, viewcube.RangeQuery{Ranges: q.ranges})
			return err
		},
		"RangeAgg": func(e *viewcube.Engine, q request) error {
			_, err := e.RangeAgg(viewcube.AggSum, q.ranges)
			return err
		},
		"GroupByWhere": func(e *viewcube.Engine, q request) error {
			_, err := e.GroupByWhere(q.keep, q.ranges)
			return err
		},
		"SQL": func(e *viewcube.Engine, q request) error {
			_, err := e.Query(q.sql)
			return err
		},
		"RollUp": func(e *viewcube.Engine, q request) error {
			_, err := e.RollUp("day", "half", q.ranges)
			return err
		},
	}
	const unknownDim = `viewcube: unknown dimension "nope" (have [product region day])`
	const unknownValue = `viewcube: value "north" not in dimension "region"`
	const emptyRange = `viewcube: empty range on dimension "region"`
	cases := []struct {
		name string
		eng  *viewcube.Engine
		q    request
		want map[string]string // read → error text
	}{
		{
			name: "unknown dimension",
			eng:  encEng,
			q: request{keep: []string{"product"}, ranges: map[string]viewcube.ValueRange{"nope": {Lo: "a", Hi: "b"}},
				sql: "SELECT SUM(sales) GROUP BY product WHERE nope BETWEEN 'a' AND 'b'"},
			want: map[string]string{"RangeSum": unknownDim, "RangeResult": unknownDim, "RangeAgg": unknownDim,
				"GroupByWhere": unknownDim, "SQL": unknownDim, "RollUp": unknownDim},
		},
		{
			name: "unknown value",
			eng:  encEng,
			q: request{keep: []string{"product"}, ranges: map[string]viewcube.ValueRange{"region": {Lo: "north"}},
				sql: "SELECT SUM(sales) GROUP BY product WHERE region BETWEEN 'north' AND 'west'"},
			want: map[string]string{"RangeSum": unknownValue, "RangeResult": unknownValue, "RangeAgg": unknownValue,
				"GroupByWhere": unknownValue, "SQL": unknownValue, "RollUp": unknownValue},
		},
		{
			name: "empty range",
			eng:  encEng,
			q: request{keep: []string{"product"}, ranges: map[string]viewcube.ValueRange{"region": {Lo: "west", Hi: "east"}},
				sql: "SELECT SUM(sales) GROUP BY product WHERE region BETWEEN 'west' AND 'east'"},
			want: map[string]string{"RangeSum": emptyRange, "RangeResult": emptyRange, "RangeAgg": emptyRange,
				"GroupByWhere": emptyRange, "SQL": emptyRange, "RollUp": emptyRange},
		},
		{
			name: "kept and filtered",
			eng:  encEng,
			q: request{keep: []string{"day"}, ranges: map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d2"}},
				sql: "SELECT SUM(sales) GROUP BY day WHERE day BETWEEN 'd1' AND 'd2'"},
			want: map[string]string{
				"GroupByWhere": `viewcube: dimension "day" cannot be both kept and filtered`,
				"SQL":          `query: dimension "day" cannot be both grouped and filtered`,
				"RollUp":       `viewcube: dimension "day" cannot be filtered while rolling it up`,
			},
		},
		{
			name: "no dictionaries",
			eng:  rawEng,
			q: request{keep: []string{"product"}, ranges: map[string]viewcube.ValueRange{"region": {Lo: "east", Hi: "east"}},
				sql: "SELECT SUM(sales) WHERE region BETWEEN 'east' AND 'east'"},
			want: map[string]string{
				"RangeSum":     "viewcube: RangeSum by value needs a dictionary-encoded cube; use RangeSumIndex",
				"RangeResult":  "viewcube: RangeSum by value needs a dictionary-encoded cube; use RangeSumIndex",
				"RangeAgg":     "viewcube: value ranges need a dictionary-encoded cube",
				"GroupByWhere": "viewcube: GroupByWhere needs a dictionary-encoded cube",
				"SQL":          "viewcube: WHERE needs a dictionary-encoded cube",
				"RollUp":       `viewcube: no hierarchy level "half" on dimension "day"`,
			},
		},
	}
	for _, c := range cases {
		for read, want := range c.want {
			err := reads[read](c.eng, c.q)
			if err == nil || err.Error() != want {
				t.Errorf("%s: %s returned %v, want %q", c.name, read, err, want)
			}
		}
	}
}
