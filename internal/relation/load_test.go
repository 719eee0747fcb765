package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNonFiniteMeasuresRejected: a NaN or an infinity never enters a table —
// through the CSV loader (whose error names the line) or through Append —
// and a rejected row leaves the table as it was.
func TestNonFiniteMeasuresRejected(t *testing.T) {
	for _, m := range []string{"NaN", "Inf", "-Inf", "+Inf", " inf ", "nan", "+Infinity"} {
		_, err := ReadCSV(strings.NewReader("a,sales\nx,1\ny,"+m+"\n"), "sales")
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("measure %q: err %v, want an error naming line 3", m, err)
		}
	}
	tbl := salesTable(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := tbl.Append([]string{"stout", "north"}, v); err == nil {
			t.Fatalf("Append(%v): want error", v)
		}
	}
	if tbl.Len() != 5 || len(tbl.DistinctValues(0)) != 3 || len(tbl.DistinctValues(1)) != 2 {
		t.Fatalf("rejected rows changed the table: %d rows, %v, %v", tbl.Len(), tbl.DistinctValues(0), tbl.DistinctValues(1))
	}
}

// TestMassBound: finite measures whose Σ|v| passes MaxMass could sum a cell
// to ±Inf, so the row that would take the relation past it is rejected —
// by the CSV loader with its line — and the table stays as it was.
func TestMassBound(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,sales\nx,5e307\ny,-5e307\nz,1\n"), "sales")
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "past") {
		t.Fatalf("err %v, want an error naming line 3 and the bound", err)
	}
	tbl := salesTable(t)
	if err := tbl.Append([]string{"stout", "north"}, 1e308); err == nil {
		t.Fatal("Append past MaxMass: want an error")
	}
	if tbl.Len() != 5 || len(tbl.DistinctValues(0)) != 3 {
		t.Fatalf("a rejected row changed the table: %d rows", tbl.Len())
	}
	if err := tbl.Append([]string{"stout", "north"}, MaxMass/2); err != nil {
		t.Fatalf("Append within MaxMass: %v", err)
	}
}

// maxFuzzCells bounds the cubes FuzzReadCSV builds.
const maxFuzzCells = 1 << 12

// referenceLoad is the row-wise loader: encoding/csv records, each
// dimension's sorted distinct values, then the cells of the padded cube
// summed in row order. cells is nil when the cube would exceed
// maxFuzzCells.
func referenceLoad(data []byte, measure string) (dicts [][]string, cells []float64, err error) {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("no header")
	}
	measureCol := -1
	var dims []string
	var dimCols []int
	for i, name := range recs[0] {
		if name == measure {
			measureCol = i
			continue
		}
		dims, dimCols = append(dims, name), append(dimCols, i)
	}
	if measureCol < 0 {
		return nil, nil, fmt.Errorf("no measure column")
	}
	if err := (Schema{Dimensions: dims, Measure: measure}).Validate(); err != nil {
		return nil, nil, err
	}
	rows := recs[1:]
	measures := make([]float64, len(rows))
	mass := 0.0
	for i, rec := range rows {
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[measureCol]), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("bad measure %q", rec[measureCol])
		}
		if mass += math.Abs(v); mass > MaxMass {
			return nil, nil, fmt.Errorf("measures past MaxMass")
		}
		measures[i] = v
	}
	dicts = make([][]string, len(dims))
	shape := make([]int, len(dims))
	volume := 1
	for m, c := range dimCols {
		for _, rec := range rows {
			if !slices.Contains(dicts[m], rec[c]) {
				dicts[m] = append(dicts[m], rec[c])
			}
		}
		slices.Sort(dicts[m])
		shape[m] = 2
		for shape[m] < len(dicts[m]) {
			shape[m] *= 2
		}
		if volume <= maxFuzzCells {
			volume *= shape[m]
		}
	}
	if volume > maxFuzzCells {
		return dicts, nil, nil
	}
	cells = make([]float64, volume)
	for i, rec := range rows {
		off := 0
		for m, c := range dimCols {
			off = off*shape[m] + slices.Index(dicts[m], rec[c])
		}
		cells[off] += measures[i]
	}
	return dicts, cells, nil
}

// FuzzReadCSV checks the columnar loader against referenceLoad: both accept
// and reject the same inputs, and on accepted ones produce identical
// dictionaries and bit-identical cells.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"product,region,sales\nale,east,10\nale,west,5\nbock,east,7\nale,east,2\n",
		"product,sales\n\"ale, dark\",1\n\"bock\nline\",2\n\"say \"\"hi\"\"\",3\n",
		"a,b,sales\r\nx,y,1\r\nx,z,2\r\n",
		"ville,région,sales\nZürich,Ελλάδα,1.5\n東京,Ελλάδα,2\nZürich,ok,-3\n",
		"a,b,sales\nx,y,1\nx,y,1\nx,y,1\n",
		"a,b,sales\n,,0\nx,,4\n,y,-1\n",
		"sales,a,b\n1,x,y\n2,x,z\n",
		"a,sales,b\nx,1,y\nz,2,y\n",
		"a,b,sales\nx,y,1\nx,2\n",
		"a,b,sales\nx,y,1\nx,y,1,2\n",
		"a,sales\nx,NaN\n",
		"a,sales\nx,+Inf\n",
		"a,sales\nx,-Inf\n",
		"a,sales\nx,Inf\n",
		"a,sales\nx, 7 \ny,1e3\nz,0x10\n",
		"a,a,sales\nx,y,1\n",
		"sales\n1\n",
		"a,b\nx,1\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantDicts, wantCells, wantErr := referenceLoad(data, "sales")
		tbl, err := ReadCSV(bytes.NewReader(data), "sales")
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("ReadCSV err %v, reference err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for m, want := range wantDicts {
			if got := tbl.DistinctValues(m); !slices.Equal(got, want) {
				t.Fatalf("dimension %d: distinct %q, want %q", m, got, want)
			}
		}
		if wantCells == nil {
			return
		}
		cube, enc, err := BuildCube(tbl)
		if err != nil {
			t.Fatal(err)
		}
		for m, want := range wantDicts {
			for code, v := range want {
				if got, _ := enc.Dicts[m].Value(code); got != v {
					t.Fatalf("dimension %d code %d: %q, want %q", m, code, got, v)
				}
			}
		}
		for i, v := range cube.Data() {
			if math.Float64bits(v) != math.Float64bits(wantCells[i]) {
				t.Fatalf("cell %d = %v, want %v", i, v, wantCells[i])
			}
		}
	})
}
