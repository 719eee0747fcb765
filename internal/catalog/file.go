package catalog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"viewcube"
	"viewcube/internal/workload"
)

// CubeSpec declares one cube of a catalog file: where its relation comes
// from (a CSV file or a synthetic generator) and how its engine is tuned.
// The spec is kept as the cube's builder, so POST /cubes/{name}/rebuild
// re-reads the CSV — a catalog cube reloads from its source of truth.
type CubeSpec struct {
	Name string `json:"name"`
	// CSV names the relation file; relative paths resolve against the
	// catalog file's directory.
	CSV string `json:"csv,omitempty"`
	// Measure is the CSV measure column (default "sales").
	Measure string `json:"measure,omitempty"`
	// Gen, when positive, generates this many synthetic sales rows instead
	// of reading CSV.
	Gen  int   `json:"gen,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Budget is the storage budget as a multiple of the cube volume
	// (0 keeps only the non-redundant basis).
	Budget float64 `json:"budget,omitempty"`
	// Reselect adapts the materialised set every N queries (0 = off).
	Reselect int `json:"reselect,omitempty"`
	// Default marks the cube legacy single-cube routes resolve to; at most
	// one cube may set it (otherwise the first cube is the default).
	Default bool `json:"default,omitempty"`
}

// File is a parsed catalog file: the declarative form of a multi-cube
// deployment — cubes plus the views curated over them.
type File struct {
	Cubes []CubeSpec `json:"cubes"`
	Views []ViewSpec `json:"views,omitempty"`
}

// Parse decodes and structurally validates a catalog document: every cube
// named and sourced, names unique, at most one default, every view naming
// a declared cube. Schema-level view validation (do the members exist?)
// happens against the built cubes in Build.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if len(f.Cubes) == 0 {
		return nil, fmt.Errorf("catalog: no cubes declared")
	}
	names := make(map[string]bool, len(f.Cubes))
	def := ""
	for i, c := range f.Cubes {
		if c.Name == "" {
			return nil, fmt.Errorf("catalog: cube %d has no name", i)
		}
		if names[c.Name] {
			return nil, fmt.Errorf("catalog: duplicate cube %q", c.Name)
		}
		names[c.Name] = true
		if c.CSV == "" && c.Gen <= 0 {
			return nil, fmt.Errorf("catalog: cube %q needs a csv path or gen > 0", c.Name)
		}
		if c.CSV != "" && c.Gen > 0 {
			return nil, fmt.Errorf("catalog: cube %q declares both csv and gen", c.Name)
		}
		if c.Default {
			if def != "" {
				return nil, fmt.Errorf("catalog: cubes %q and %q both claim default", def, c.Name)
			}
			def = c.Name
		}
	}
	viewNames := make(map[string]bool)
	for i, v := range f.Views {
		if v.Name == "" {
			return nil, fmt.Errorf("catalog: view %d has no name", i)
		}
		if !names[v.Cube] {
			return nil, fmt.Errorf("catalog: view %q names undeclared cube %q", v.Name, v.Cube)
		}
		key := v.Cube + "/" + v.Name
		if viewNames[key] {
			return nil, fmt.Errorf("catalog: duplicate view %q on cube %q", v.Name, v.Cube)
		}
		viewNames[key] = true
	}
	return &f, nil
}

// LoadFile reads and parses a catalog file.
func LoadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s: %w", path, err)
	}
	return f, nil
}

// Build registers every declared cube and view into the registry, building
// each cube's engine now. Relative CSV paths resolve against baseDir
// (typically the catalog file's directory). Views compile against the
// freshly built schemas, so a catalog typo fails here, before serving
// starts.
func (f *File) Build(reg *Registry, baseDir string) error {
	for _, spec := range f.Cubes {
		if err := reg.Register(spec.Name, f.builder(reg, spec, baseDir)); err != nil {
			return err
		}
		if spec.Default {
			if err := reg.SetDefault(spec.Name); err != nil {
				return err
			}
		}
	}
	for _, v := range f.Views {
		if err := reg.RegisterView(v); err != nil {
			return err
		}
	}
	return nil
}

// builder closes over one cube spec: each call re-reads the source (CSV or
// generator) and builds a fresh engine over the registry's per-cube
// metrics, so rebuild picks up new data without disturbing other cubes.
func (f *File) builder(reg *Registry, spec CubeSpec, baseDir string) Builder {
	return func() (CubeHandle, error) {
		cube, err := buildCube(spec, baseDir)
		if err != nil {
			return nil, err
		}
		eng, err := cube.NewEngine(viewcube.EngineOptions{
			StorageBudget: int(spec.Budget * float64(cube.Volume())),
			ReselectEvery: spec.Reselect,
			Metrics:       reg.CubeMetrics(spec.Name),
		})
		if err != nil {
			return nil, err
		}
		cube.ReleaseCells() // a server reads cells through the engine only
		return NewSafeHandle(cube, eng), nil
	}
}

func buildCube(spec CubeSpec, baseDir string) (*viewcube.Cube, error) {
	if spec.Gen > 0 {
		seed := spec.Seed
		if seed == 0 {
			seed = 1
		}
		tbl, err := workload.SalesTable(rand.New(rand.NewSource(seed)), 50, 8, 60, spec.Gen)
		if err != nil {
			return nil, err
		}
		return viewcube.FromTable(tbl)
	}
	path := spec.CSV
	if !filepath.IsAbs(path) && baseDir != "" {
		path = filepath.Join(baseDir, path)
	}
	r, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: cube %q: %w", spec.Name, err)
	}
	defer r.Close()
	measure := spec.Measure
	if measure == "" {
		measure = "sales"
	}
	cube, err := viewcube.Load(r, measure)
	if err != nil {
		return nil, fmt.Errorf("catalog: cube %q: %w", spec.Name, err)
	}
	return cube, nil
}
