package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// This file holds the two commands that judge runs rather than make them:
// -aa measures how far two sets of runs of the same code disagree (the
// noise every later claim has to clear), and -compare gives a verdict per
// workload and end-to-end metric between two such reports.

// sample is one set of runs of one metric.
type sample struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newSample(values []float64) sample {
	q1, q2, q3 := quartiles(values)
	return sample{Values: values, Median: q2, Q1: q1, Q3: q3}
}

// spread is the interquartile range as a share of the median.
func (s sample) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// quartiles follows Python's statistics.quantiles(values, n=4), which is
// what the benchmark's acceptance rule is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if len(data) == 0 {
		return 0, 0, 0
	}
	if len(data) == 1 {
		return data[0], data[0], data[0]
	}
	var out [3]float64
	m := len(data) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(data)-1)
		delta := float64(i*m - j*4)
		out[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// metricReport compares two sets of one metric on one workload.
type metricReport struct {
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	A       sample  `json:"a"`
	B       sample  `json:"b"`
	Worse   float64 `json:"worse"`  // how much worse B's median is than A's, as a share of A's (negative: better)
	Spread  float64 `json:"spread"` // the wider of the two sets' IQR/median
	Verdict string  `json:"verdict"`
}

type workloadReport struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricReport `json:"metrics"`
}

// report is what -aa writes and -compare reads (results/BENCH_<pr>.json).
type report struct {
	RunSeconds float64                   `json:"run_seconds"`
	RunsPerSet int                       `json:"runs_per_set"`
	Seeds      []int64                   `json:"seeds"`
	Workloads  map[string]workloadReport `json:"workloads"`
}

// worse is how much worse b is than a as a share of a, in the metric's own
// direction.
func worse(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// runAA makes two interleaved sets of n runs of every workload — run i of
// both sets uses seed i+1, and which set goes first alternates — and
// reports, per workload and end-to-end metric, both medians and quartiles
// and their difference against the metric's bound. It exits non-zero if a
// difference or a spread exceeds its bound, or any operation failed.
func runAA(opt options, n int, out string) int {
	rep := report{RunSeconds: opt.seconds, RunsPerSet: n, Workloads: map[string]workloadReport{}}
	for i := 0; i < n; i++ {
		rep.Seeds = append(rep.Seeds, int64(i+1))
	}
	breach := false
	for _, w := range workloads(opt.sc) {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		wr := workloadReport{Metrics: map[string]metricReport{}}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				o := opt
				o.workload, o.seed, o.trace = w.name, rep.Seeds[i], false
				res, err := runOnce(o)
				if err != nil {
					fmt.Fprintln(os.Stderr, "cubebench:", err)
					return 2
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "cubebench: aa %s run %d set %c done\n", w.name, i+1, 'A'+set)
			}
		}
		for _, d := range endToEnd {
			m := metricReport{Unit: d.unit, Better: d.better, Bound: d.bound,
				A: newSample(sets[0][d.name]), B: newSample(sets[1][d.name])}
			m.Worse = worse(d, m.A.Median, m.B.Median)
			m.Spread = max(m.A.spread(), m.B.spread())
			m.Verdict = "ok"
			// Either set may play the parent, so the difference counts in
			// both directions. setup_s is held to its bound on medians only.
			if max(m.Worse, worse(d, m.B.Median, m.A.Median)) > d.bound || (d.name != "setup_s" && m.Spread > d.bound) {
				m.Verdict, breach = "breach", true
			}
			wr.Metrics[d.name] = m
		}
		if wr.Failed > 0 {
			breach = true
		}
		rep.Workloads[w.name] = wr
	}
	printAA(os.Stdout, rep)
	if out != "" {
		data, _ := json.MarshalIndent(rep, "", " ")
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cubebench:", err)
			return 2
		}
	}
	if breach {
		return 1
	}
	return 0
}

func workloadOrder(r report) []string {
	names := make([]string, 0, len(r.Workloads))
	for name := range r.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func printAA(w io.Writer, rep report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "A/A: two interleaved sets of %d runs, %g s each\n", rep.RunsPerSet, rep.RunSeconds)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB worse by\tspread\tbound\tverdict")
	for _, name := range workloadOrder(rep) {
		wr := rep.Workloads[name]
		for _, d := range endToEnd {
			m := wr.Metrics[d.name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.2f %%\t%.2f %%\t%.0f %%\t%s\n",
				name, d.name, m.Unit, m.A.Median, m.A.Q1, m.A.Q3, m.B.Median, m.B.Q1, m.B.Q3,
				100*m.Worse, 100*m.Spread, 100*m.Bound, m.Verdict)
		}
		fmt.Fprintf(tw, "%s\toperations\tcount\t%d attempted\t%d failed\t\t\t\t\n", name, wr.Attempted, wr.Failed)
	}
	tw.Flush()
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per workload and end-to-end metric of two
// reports (each report's two sets pooled): the new median against the old
// with its base, and a verdict —
//
//	unresolved  either side's spread is wider than the metric's bound
//	regressed   new is worse than old by more than the bound
//	improved    new is better than old by more than old's own spread
//	unchanged   otherwise
//
// It returns 1 if any row regressed or operations failed, 2 on bad input.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldRep, err := readReport(oldPath)
	if err == nil {
		var newRep report
		if newRep, err = readReport(newPath); err == nil {
			return compareReports(w, oldRep, newRep)
		}
	}
	fmt.Fprintln(os.Stderr, "cubebench:", err)
	return 2
}

func compareReports(w io.Writer, oldRep, newRep report) int {
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tnew/old\tspread old, new\tbound\tverdict")
	for _, name := range workloadOrder(oldRep) {
		ow, nw := oldRep.Workloads[name], newRep.Workloads[name]
		if nw.Metrics == nil {
			fmt.Fprintf(tw, "%s\t(missing from the new report)\n", name)
			code = max(code, 1)
			continue
		}
		for _, d := range endToEnd {
			om, nm := ow.Metrics[d.name], nw.Metrics[d.name]
			d.bound = om.Bound // the bound in force when the baseline was measured
			o := newSample(append(append([]float64(nil), om.A.Values...), om.B.Values...))
			n := newSample(append(append([]float64(nil), nm.A.Values...), nm.B.Values...))
			by := worse(d, o.Median, n.Median)
			verdict := "unchanged"
			switch {
			case d.name != "setup_s" && max(o.spread(), n.spread()) > d.bound:
				verdict = "unresolved"
			case by > d.bound:
				verdict, code = "regressed", max(code, 1)
			case -by > o.spread():
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.4f (of %.5g)\t%.2f %%, %.2f %%\t%.0f %%\t%s\n",
				name, d.name, d.unit, o.Median, n.Median, ratio(n.Median, o.Median), o.Median,
				100*o.spread(), 100*n.spread(), 100*d.bound, verdict)
		}
		if nw.Failed > ow.Failed {
			fmt.Fprintf(tw, "%s\toperations\tcount\t%d failed\t%d failed\t\t\t\tregressed\n", name, ow.Failed, nw.Failed)
			code = max(code, 1)
		}
	}
	tw.Flush()
	return code
}
