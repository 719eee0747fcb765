package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"viewcube/internal/adaptive"
	"viewcube/internal/assembly"
	"viewcube/internal/plan"
	"viewcube/internal/velement"
	"viewcube/internal/workload"
)

// AdaptPhase records one workload phase of the E10 adaptation experiment.
type AdaptPhase struct {
	Phase        int
	StaticOps    float64 // avg modelled ops/query with the cube only
	AdaptiveOps  float64 // avg modelled ops/query with online re-selection
	Reconfigs    int     // total reconfigurations so far
	StorageCells int     // adaptive engine storage after the phase
}

// AdaptResult is the E10 outcome: per-phase average query costs of a static
// cube-only engine versus the adaptive engine as the hot views shift
// between phases — the operational content of the paper's "dynamically
// reconfigure" claim (§5).
type AdaptResult struct {
	Shape  []int
	Phases []AdaptPhase
}

// Adaptation runs E10: across phases, a fresh pair of hot aggregated views
// is drawn and queried repeatedly; the adaptive engine re-selects its
// element basis from observed frequencies while the static engine keeps
// only the cube. Only modelled costs are compared, so a query is planned
// (through the adaptive engine's plan cache) and recorded, never executed.
func Adaptation(shape []int, phases, queriesPerPhase int, seed int64) (*AdaptResult, error) {
	s, err := velement.NewSpace(shape)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cube := workload.RandomCube(rng, 50, shape...)

	staticStore := assembly.NewMemStore()
	if err := staticStore.Put(s.Root(), cube.Clone()); err != nil {
		return nil, err
	}
	staticEng := assembly.NewEngine(s, staticStore)

	adaptStore := assembly.NewMemStore()
	if err := adaptStore.Put(s.Root(), cube.Clone()); err != nil {
		return nil, err
	}
	adaptEng := assembly.NewEngine(s, adaptStore)
	plans := plan.NewPlanner(adaptEng)
	prof, err := adaptive.NewProfile(s, adaptStore.Elements(), adaptive.Options{
		ReselectEvery: queriesPerPhase / 4,
		Decay:         0.2,
	})
	if err != nil {
		return nil, err
	}

	res := &AdaptResult{Shape: append([]int(nil), shape...)}
	views := s.AggregatedViews()
	for phase := 0; phase < phases; phase++ {
		// Two fresh hot views per phase (never the raw cube).
		perm := rng.Perm(len(views) - 1)
		hot := []int{perm[0] + 1, perm[1] + 1}
		var staticOps, adaptOps float64
		for q := 0; q < queriesPerPhase; q++ {
			target := views[hot[q%len(hot)]]
			static, err := staticEng.ComputePlan(target)
			if err != nil {
				return nil, err
			}
			staticOps += float64(static.Ops)
			adapt, err := plans.Assembly(nil, target)
			if err != nil {
				return nil, err
			}
			prof.Record(target, adapt.Ops)
			adaptOps += float64(adapt.Ops)
			// Recording only raises the due flag; the experiment loop drains
			// it, standing in for the Engine's write-locked drain.
			if prof.ReselectDue() {
				if _, err := adaptive.AutoReconfigure(nil, adaptEng, plans, prof); err != nil {
					return nil, err
				}
			}
		}
		st := prof.Stats()
		res.Phases = append(res.Phases, AdaptPhase{
			Phase:        phase + 1,
			StaticOps:    staticOps / float64(queriesPerPhase),
			AdaptiveOps:  adaptOps / float64(queriesPerPhase),
			Reconfigs:    st.Reconfigs,
			StorageCells: st.StorageCells,
		})
	}
	return res, nil
}

// FormatAdaptation renders the E10 report.
func FormatAdaptation(r *AdaptResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online adaptation (E10) on shape %v: avg modelled ops/query per phase\n", r.Shape)
	fmt.Fprintf(&b, "%-7s %14s %14s %11s %10s\n", "phase", "static (cube)", "adaptive", "reconfigs", "storage")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-7d %14.1f %14.1f %11d %10d\n",
			p.Phase, p.StaticOps, p.AdaptiveOps, p.Reconfigs, p.StorageCells)
	}
	return b.String()
}
