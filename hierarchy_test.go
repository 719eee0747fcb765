package viewcube_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"viewcube"
)

// Days d1..d4 roll up into halves h1 (d1,d2) and h2 (d3,d4).
func halfOf(v string) string {
	if v == "d1" || v == "d2" {
		return "h1"
	}
	return "h2"
}

func TestDefineHierarchyAndRollUp(t *testing.T) {
	c := loadSales(t)
	if err := c.DefineHierarchy("day", "half", halfOf); err != nil {
		t.Fatal(err)
	}
	if lvls := c.HierarchyLevels("day"); len(lvls) != 1 || lvls[0] != "half" {
		t.Fatalf("levels %v", lvls)
	}
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	got, err := eng.RollUp("day", "half", nil)
	if err != nil {
		t.Fatal(err)
	}
	// h1: d1+d2 = 22+6 = 28; h2: d3+d4 = 4+6 = 10.
	if math.Abs(got["h1"]-28) > 1e-9 || math.Abs(got["h2"]-10) > 1e-9 {
		t.Fatalf("rollup %v", got)
	}
	// Filtered roll-up: east only. h1: 10+2+7 = 19; h2: 1+6 = 7.
	got, err = eng.RollUp("day", "half", map[string]viewcube.ValueRange{
		"region": {Lo: "east", Hi: "east"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["h1"]-19) > 1e-9 || math.Abs(got["h2"]-7) > 1e-9 {
		t.Fatalf("filtered rollup %v", got)
	}
}

func TestRollUpValidation(t *testing.T) {
	c := loadSales(t)
	if err := c.DefineHierarchy("day", "half", halfOf); err != nil {
		t.Fatal(err)
	}
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	if _, err := eng.RollUp("day", "nope", nil); err == nil {
		t.Fatal("want error for unknown level")
	}
	if _, err := eng.RollUp("region", "half", nil); err == nil {
		t.Fatal("want error for level on wrong dimension")
	}
	if _, err := eng.RollUp("day", "half", map[string]viewcube.ValueRange{
		"day": {Lo: "d1", Hi: "d2"},
	}); err == nil {
		t.Fatal("want error for filtering the rolled-up dimension")
	}
	if _, err := eng.RollUp("day", "half", map[string]viewcube.ValueRange{
		"nope": {},
	}); err == nil {
		t.Fatal("want error for unknown filter dimension")
	}
}

func TestDefineHierarchyValidation(t *testing.T) {
	c := loadSales(t)
	// Non-contiguous grouping: ale and cider together, bock apart.
	err := c.DefineHierarchy("product", "bad", func(v string) string {
		if v == "ale" || v == "cider" {
			return "ac"
		}
		return "other"
	})
	if err == nil || !strings.Contains(err.Error(), "not contiguous") {
		t.Fatalf("want contiguity error, got %v", err)
	}
	if err := c.DefineHierarchy("nope", "x", halfOf); err == nil {
		t.Fatal("want error for unknown dimension")
	}
	raw, _ := viewcube.NewCube([]string{"x"}, []int{2})
	if err := raw.DefineHierarchy("x", "l", halfOf); err == nil {
		t.Fatal("raw cubes cannot define hierarchies")
	}
}

func TestDrillDown(t *testing.T) {
	c := loadSales(t)
	if err := c.DefineHierarchy("day", "half", halfOf); err != nil {
		t.Fatal(err)
	}
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	got, err := eng.DrillDown("day", "half", "h1")
	if err != nil {
		t.Fatal(err)
	}
	// d1: 22, d2: 6.
	if len(got) != 2 || math.Abs(got["d1"]-22) > 1e-9 || math.Abs(got["d2"]-6) > 1e-9 {
		t.Fatalf("drilldown %v", got)
	}
	if _, err := eng.DrillDown("day", "half", "h9"); err == nil {
		t.Fatal("want error for unknown group")
	}
}

func TestGroupOfValue(t *testing.T) {
	c := loadSales(t)
	if err := c.DefineHierarchy("day", "half", halfOf); err != nil {
		t.Fatal(err)
	}
	g, err := c.GroupOfValue("day", "half", "d3")
	if err != nil {
		t.Fatal(err)
	}
	if g != "h2" {
		t.Fatalf("group %q, want h2", g)
	}
	if _, err := c.GroupOfValue("day", "half", "d9"); err == nil {
		t.Fatal("want error for unknown value")
	}
}

// Roll-up totals must equal the sum of their drill-down members — the
// consistency invariant OLAP users rely on.
func TestRollUpDrillDownConsistency(t *testing.T) {
	c := loadSales(t)
	if err := c.DefineHierarchy("day", "half", halfOf); err != nil {
		t.Fatal(err)
	}
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	rollup, err := eng.RollUp("day", "half", nil)
	if err != nil {
		t.Fatal(err)
	}
	for group, total := range rollup {
		members, err := eng.DrillDown("day", "half", group)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range members {
			sum += v
		}
		if math.Abs(sum-total) > 1e-9 {
			t.Fatalf("group %q: members sum to %g, rollup says %g", group, sum, total)
		}
	}
}

// TestRollUpIsOneRead pins that a roll-up is one read of one pinned
// generation, whatever the number of groups: it adds exactly one query to
// viewcube_queries_total, of kind groupby_where, and no per-group range read.
func TestRollUpIsOneRead(t *testing.T) {
	c := loadSales(t)
	if err := c.DefineHierarchy("day", "half", halfOf); err != nil {
		t.Fatal(err)
	}
	met := viewcube.NewMetrics()
	eng, err := c.NewEngine(viewcube.EngineOptions{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	queries := func() (all, where float64) {
		var b strings.Builder
		if err := met.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			series, val, ok := strings.Cut(line, " ")
			if !ok || !strings.HasPrefix(series, "viewcube_queries_total{") {
				continue
			}
			n, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, val)
			}
			all += n
			if strings.Contains(series, `kind="groupby_where"`) {
				where += n
			}
		}
		return all, where
	}
	all0, where0 := queries()
	got, err := eng.RollUp("day", "half", map[string]viewcube.ValueRange{"region": {Lo: "east", Hi: "east"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rollup %v, want two groups", got)
	}
	if all, where := queries(); all-all0 != 1 || where-where0 != 1 {
		t.Fatalf("one RollUp counted %v queries, %v of kind groupby_where; want 1 and 1", all-all0, where-where0)
	}
}
