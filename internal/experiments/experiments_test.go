package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := []Table1Row{
		{2, 256, 4, 81, 261040, 261121},
		{3, 32, 8, 216, 249831, 250047},
		{4, 16, 16, 625, 922896, 923521},
		{5, 8, 32, 1024, 758351, 759375},
		{8, 4, 256, 6561, 5758240, 5764801},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, r, want[i])
		}
	}
	text := FormatTable1(rows)
	for _, needle := range []string{"5764801", "N_ve", "d=4,n=16"} {
		if !strings.Contains(text, needle) {
			t.Errorf("formatted table missing %q", needle)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	type expect struct {
		proc             float64
		storage          int
		basis, redundant bool
	}
	want := []expect{
		{3, 4, true, false},
		{3, 4, true, false},
		{4, 4, true, false},
		{4, 4, true, false},
		{4, 4, true, false},
		{4, 4, true, false},
		{0, 8, true, true},
		{0, 4, false, true},
		{3, 3, false, false},
		{4, 3, false, false},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		if r.Processing != w.proc || r.Storage != w.storage || r.Basis != w.basis || r.Redundant != w.redundant {
			t.Errorf("row %d (%v): got (%g,%d,%v,%v), want (%g,%d,%v,%v)",
				i, r.Set, r.Processing, r.Storage, r.Basis, r.Redundant,
				w.proc, w.storage, w.basis, w.redundant)
		}
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "{V1,V5,V6}") {
		t.Error("formatted table missing a set")
	}
}

// A scaled-down Experiment 1 (2-D cube) must show the paper's orderings:
// [V] ≤ [D] and [V] ≤ [W] always (guaranteed), and under Eq. 29 with the
// root queried, [W] worse than [D] on average.
func TestFig8SmallShape(t *testing.T) {
	res, err := Fig8([]int{16, 16}, 20, 1, ModelEq29)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.D) != 20 {
		t.Fatalf("%d trials recorded, want 20", len(res.D))
	}
	for i := range res.D {
		if res.V[i] > res.D[i]+1e-9 || res.V[i] > res.W[i]+1e-9 {
			t.Fatalf("trial %d: [V]=%g must not exceed [D]=%g or [W]=%g",
				i, res.V[i], res.D[i], res.W[i])
		}
	}
	if res.RatioVD <= 0 || res.RatioVD >= 1 {
		t.Fatalf("[V]/[D] = %g, want in (0,1)", res.RatioVD)
	}
	if res.RatioWD <= 1 {
		t.Fatalf("[W]/[D] = %g, want > 1 under Eq.29 with root queried", res.RatioWD)
	}
	text := FormatFig8(res)
	if !strings.Contains(text, "[V]/[D]") {
		t.Error("formatted figure missing ratio line")
	}
}

func TestFig8Proc3Model(t *testing.T) {
	res, err := Fig8([]int{8, 8}, 5, 2, ModelProc3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.D {
		if res.V[i] > res.D[i]+1e-9 {
			t.Fatalf("trial %d: [V] must not exceed [D] under Procedure 3", i)
		}
	}
	if res.Model.String() != "procedure3" || ModelEq29.String() != "eq29" {
		t.Error("CostModel.String wrong")
	}
}

func TestFig8BadShape(t *testing.T) {
	if _, err := Fig8([]int{3}, 1, 1, ModelEq29); err == nil {
		t.Fatal("want error for non-power-of-two shape")
	}
}

// A scaled-down Experiment 2 (2-D cube) must show Figure 9's shape: the
// element frontier at or below the view frontier on the whole grid, point
// a ≤ point b, and both curves reaching zero at full storage.
func TestFig9SmallShape(t *testing.T) {
	res, err := Fig9([]int{4, 4}, 4, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxStorage-25.0/16) > 1e-9 {
		t.Fatalf("max storage %g, want 25/16", res.MaxStorage)
	}
	for i := range res.Storage {
		if res.ElemCost[i] > res.ViewCost[i]+1e-9 {
			t.Fatalf("at storage %.2f element method %g above view method %g",
				res.Storage[i], res.ElemCost[i], res.ViewCost[i])
		}
	}
	if res.PointA > res.PointB+1e-9 {
		t.Fatalf("point a (%g) must not exceed point b (%g)", res.PointA, res.PointB)
	}
	last := len(res.Storage) - 1
	if res.ElemCost[last] != 0 || res.ViewCost[last] != 0 {
		t.Fatalf("both methods must reach zero at full storage, got %g and %g",
			res.ElemCost[last], res.ViewCost[last])
	}
	text := FormatFig9(res)
	if !strings.Contains(text, "point a") {
		t.Error("formatted figure missing summary")
	}
}

func TestFig9BadShape(t *testing.T) {
	if _, err := Fig9([]int{5}, 1, 4, 1); err == nil {
		t.Fatal("want error for non-power-of-two shape")
	}
}

func TestBasesReport(t *testing.T) {
	rows, err := Bases([]int{4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BasisReport{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	wb := byName["wavelet basis"]
	if !wb.Complete || !wb.NonRedundant || wb.RelVolume != 1 {
		t.Fatalf("wavelet basis report wrong: %+v", wb)
	}
	vh := byName["view hierarchy"]
	if !vh.Complete || vh.NonRedundant {
		t.Fatalf("view hierarchy report wrong: %+v", vh)
	}
	if math.Abs(vh.RelVolume-25.0/16) > 1e-9 || math.Abs(vh.FormulaVolume-vh.RelVolume) > 1e-9 {
		t.Fatalf("view hierarchy volume %g, want (n+1)^d/n^d", vh.RelVolume)
	}
	gp := byName["Gaussian pyramid"]
	if !gp.Complete || gp.NonRedundant || math.Abs(gp.RelVolume-21.0/16) > 1e-9 {
		t.Fatalf("Gaussian pyramid report wrong: %+v", gp)
	}
	wp := byName["wavelet packets (random)"]
	if !wp.Complete || !wp.NonRedundant || wp.RelVolume != 1 {
		t.Fatalf("wavelet packets report wrong: %+v", wp)
	}
	text := FormatBases([]int{4, 4}, rows)
	if !strings.Contains(text, "Gaussian pyramid") {
		t.Error("formatted report missing a basis")
	}
	if _, err := Bases([]int{3}, 1); err == nil {
		t.Fatal("want error for bad shape")
	}
}

func TestRangesReport(t *testing.T) {
	res, err := Ranges([]int{32, 32}, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxError > 1e-6 {
		t.Fatalf("methods disagree: max error %g", res.MaxError)
	}
	// The cells each method reads on this seed: the §6 reproduction's figures.
	if res.ElementCells != 314 || res.ScanCells != 3516 {
		t.Fatalf("element method read %d cells and scan %d, want 314 and 3516",
			res.ElementCells, res.ScanCells)
	}
	if res.PrefixCells != 40*4 {
		t.Fatalf("prefix method reads 2^d per query: %d, want 160", res.PrefixCells)
	}
	text := FormatRanges(res)
	if !strings.Contains(text, "direct scan") {
		t.Error("formatted report missing a method")
	}
	if _, err := Ranges([]int{3}, 1, 1); err == nil {
		t.Fatal("want error for bad shape")
	}
}

func TestCompressReport(t *testing.T) {
	res, err := Compress([]int{16, 16}, []float64{0.05, 0.3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Lossless {
			t.Fatalf("density %g: not lossless", row.Density)
		}
		if row.BestBasis > row.CubeNonzeros || row.BestBasis > row.Wavelet {
			t.Fatalf("density %g: best basis (%d) must not exceed raw (%d) or wavelet (%d)",
				row.Density, row.BestBasis, row.CubeNonzeros, row.Wavelet)
		}
	}
	if !strings.Contains(FormatCompress(res), "best basis") {
		t.Error("formatted report incomplete")
	}
	if _, err := Compress([]int{3}, []float64{0.1}, 1); err == nil {
		t.Fatal("want error for bad shape")
	}
}

func TestCompressClusteredIsolatesBlock(t *testing.T) {
	res, err := CompressClustered([]int{32, 32}, []float64{0.25, 0.0625}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Lossless {
			t.Fatalf("frac %g: not lossless", row.Density)
		}
		// A constant dyadic block collapses to far fewer coefficients than
		// its raw cell count.
		if row.BestBasis*4 > row.CubeNonzeros {
			t.Fatalf("frac %g: best basis %d vs raw %d — expected strong compression",
				row.Density, row.BestBasis, row.CubeNonzeros)
		}
	}
}

func TestSkewReport(t *testing.T) {
	res, err := Skew([]int{8, 8}, []float64{0, 2}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RatioVD <= 0 || row.RatioVD > 1 {
			t.Fatalf("skew %g: ratio %g out of (0,1]", row.Skew, row.RatioVD)
		}
	}
	// Higher skew concentrates mass, so the tuned basis saves more.
	if res.Rows[1].RatioVD >= res.Rows[0].RatioVD {
		t.Fatalf("ratio should drop with skew: %g → %g", res.Rows[0].RatioVD, res.Rows[1].RatioVD)
	}
	if !strings.Contains(FormatSkew(res), "skew") {
		t.Error("formatted report incomplete")
	}
	if _, err := Skew([]int{3}, []float64{1}, 1, 1); err == nil {
		t.Fatal("want error for bad shape")
	}
}

func TestAdaptationReport(t *testing.T) {
	res, err := Adaptation([]int{8, 8, 8}, 4, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("%d phases, want 4", len(res.Phases))
	}
	var staticTotal, adaptTotal float64
	for _, p := range res.Phases {
		staticTotal += p.StaticOps
		adaptTotal += p.AdaptiveOps
	}
	if adaptTotal >= staticTotal {
		t.Fatalf("adaptive (%g) should beat static (%g) overall", adaptTotal, staticTotal)
	}
	if res.Phases[len(res.Phases)-1].Reconfigs == 0 {
		t.Fatal("adaptation never fired")
	}
	if !strings.Contains(FormatAdaptation(res), "adaptive") {
		t.Error("formatted report incomplete")
	}
	if _, err := Adaptation([]int{3}, 1, 10, 1); err == nil {
		t.Fatal("want error for bad shape")
	}
}

// TestAdaptationGolden pins the E10 report byte for byte, so a change to the
// adaptive engine's selection, migration or cost accounting shows up here.
func TestAdaptationGolden(t *testing.T) {
	res, err := Adaptation([]int{8, 8, 8}, 4, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	const want = "Online adaptation (E10) on shape [8 8 8]: avg modelled ops/query per phase\n" +
		"phase    static (cube)       adaptive   reconfigs    storage\n" +
		"1                479.5          143.5           1        512\n" +
		"2                479.5           31.5           1        512\n" +
		"3                507.5           77.9           3        512\n" +
		"4                479.5           99.8           4        512\n"
	if got := FormatAdaptation(res); got != want {
		t.Fatalf("E10 report changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestLossyReport(t *testing.T) {
	rows, err := Lossy([]int{32, 32}, []float64{0, 1, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].MaxAbsError > 1e-9 {
		t.Fatalf("threshold 0 must be lossless, max error %g", rows[0].MaxAbsError)
	}
	// More aggressive thresholds must not store more and must not shrink
	// the error below the lossless case.
	for i := 1; i < len(rows); i++ {
		if rows[i].StoredValues > rows[i-1].StoredValues {
			t.Fatalf("stored values must be non-increasing: %v", rows)
		}
	}
	if rows[2].MaxAbsError == 0 {
		t.Fatal("aggressive threshold should introduce error")
	}
	if !strings.Contains(FormatLossy([]int{32, 32}, rows), "threshold") {
		t.Error("format incomplete")
	}
	if _, err := Lossy([]int{3}, []float64{0}, 1); err == nil {
		t.Fatal("want error for bad shape")
	}
}

func TestCubeComputationReport(t *testing.T) {
	res, err := CubeComputation([]int{8, 8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("strategies disagree")
	}
	if res.LatticeOps >= res.NaiveOps {
		t.Fatalf("lattice (%d) should beat naive (%d)", res.LatticeOps, res.NaiveOps)
	}
	if res.SharedOps >= res.NaiveOps {
		t.Fatalf("shared cascades (%d) should beat naive (%d)", res.SharedOps, res.NaiveOps)
	}
	if res.RoutedOps != res.LatticeOps {
		t.Fatalf("lattice-routed cascades (%d) must match the lattice model (%d)",
			res.RoutedOps, res.LatticeOps)
	}
	if !strings.Contains(FormatCubeComputation(res), "lattice") {
		t.Error("format incomplete")
	}
	if _, err := CubeComputation([]int{3}, 1); err == nil {
		t.Fatal("want error for bad shape")
	}
}
