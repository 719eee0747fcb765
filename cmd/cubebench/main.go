// Command cubebench is the repository's benchmark: it generates a seeded
// relation and query population, builds ./cmd/cubed, boots it as child
// processes in one of four topologies, drives it over loopback HTTP from
// this one process, checks every answer against a brute-force scan, and
// prints end-to-end metrics (--trace 0) or per-layer metrics (--trace 1,
// which adds an in-process traced replay). See README.md.
//
//	cubebench --workload assemble_cold --seed 1 --seconds 12 --trace 0
//	cubebench -aa 5 -o results/BENCH_13.json     # A/A: two interleaved sets of runs
//	cubebench -compare old.json new.json         # verdict per workload x metric
//
// BENCHMARK.json runs it through run.sh, which builds it inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets one
// timed phase measure. With three set-ups before it a run takes about 25 s
// on the builder; the driver's 92 runs and two builds must end within 3420 s.
const runSeconds = 15

type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
}

func main() {
	var (
		opt     options
		trace   int
		smoke   bool
		aa      int
		out     string
		compare bool
		manifst bool
	)
	flag.StringVar(&opt.root, "root", "", "repository checkout (default: found from the working directory)")
	flag.StringVar(&opt.workload, "workload", "", "assemble_cold, dash_hot, ingest_reads or scatter_gather")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the relation, the ingest deltas and the operation order")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics and write trace_<workload>.json; 0: end-to-end metrics")
	flag.BoolVar(&smoke, "smoke", false, "tiny inputs, for a functional check in seconds")
	flag.IntVar(&aa, "aa", 0, "run two interleaved sets of this many full runs of every workload and compare them")
	flag.StringVar(&out, "o", "", "with -aa: also write the report to this file")
	flag.BoolVar(&compare, "compare", false, "compare two -aa (or -o) reports given as arguments")
	flag.BoolVar(&manifst, "manifest", false, "print BENCHMARK.json as this code defines it and exit")
	flag.Parse()
	if manifst {
		os.Stdout.Write(manifest(opt.seconds))
		return
	}
	opt.trace = trace != 0
	opt.sc = fullScale
	if smoke {
		opt.sc = smokeScale
	}

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	root, err := findRoot(opt.root)
	if err != nil {
		fatal(err)
	}
	opt.root = root
	if aa > 0 {
		os.Exit(runAA(opt, aa, out))
	}
	res, err := runOnce(opt)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// manifest renders BENCHMARK.json from the definitions in this package, so
// the file the driver reads cannot drift from what a run prints.
func manifest(runSeconds float64) []byte {
	type entry map[string]any
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/cubebench/run.sh"},
		Paths:      []string{"cmd/cubebench"},
		RunSeconds: int(runSeconds),
	}
	for _, w := range workloads(fullScale) {
		doc.Workloads = append(doc.Workloads, entry{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, entry{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, entry{"name": d.name, "unit": d.unit, "better": d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // unreachable: strings and numbers
	}
	return append(out, '\n')
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cubebench:", err)
	os.Exit(2)
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory that holds cmd/cubed.
func findRoot(given string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cubed", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/cubed above the working directory; pass -root")
		}
		dir = parent
	}
}

// runOnce performs one run of one workload and reports it. Children and
// the work directory are gone when it returns, also after SIGINT/SIGTERM.
func runOnce(opt options) (*result, error) {
	var w *workload
	for _, c := range workloads(opt.sc) {
		if c.name == opt.workload {
			w = c
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	b, err := newBench(opt.root)
	if err != nil {
		return nil, err
	}
	defer b.close()
	// SIGPIPE too: a reader of our output that went away must not leave
	// children behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	stopped := make(chan struct{})
	defer close(stopped)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			b.close()
			os.Exit(130)
		case <-stopped:
		}
	}()

	r, err := b.run(w, opt)
	if err == nil {
		err = b.failed()
	}
	return r, err
}

// run is one measurement: inputs, build, set-ups, timed phase, metrics.
func (b *bench) run(w *workload, opt options) (*result, error) {
	batches := 0
	if w.ingest {
		batches = int(opt.seconds*maxBatchesPerSecond) + 1
	}
	if err := w.prepare(b, opt.seed, batches); err != nil {
		return nil, err
	}
	build, err := b.buildCubed()
	if err != nil {
		return nil, err
	}

	// Set up several times and report the median; the last topology stays
	// up for the timed phase. The traced run reports no setup_s and sets up
	// once.
	setups := opt.sc.setups
	if opt.trace {
		setups = 1
	}
	var (
		t       *topology
		times   []float64
		failed  int
		attempt int
	)
	for n := 0; n < setups; n++ {
		if t != nil {
			b.stop(t.children()...)
		}
		var took time.Duration
		var bad int
		t, took, bad, err = b.setup(w, n)
		if err != nil {
			return nil, err
		}
		times = append(times, took.Seconds())
		failed += bad
		attempt += len(w.pop)
	}

	p, err := b.measure(w, t, opt.seconds)
	if err != nil {
		return nil, err
	}
	for _, r := range p.readers {
		attempt += len(r.latency) + r.failed
		failed += r.failed
		if r.firstEr != nil {
			fmt.Fprintf(os.Stderr, "cubebench: %s: first failed read: %v\n", w.name, r.firstEr)
		}
	}
	if p.writer != nil {
		attempt += p.writer.sent
		failed += p.writer.failed
		if p.writer.firstErr != nil {
			fmt.Fprintf(os.Stderr, "cubebench: %s: first failed write: %v\n", w.name, p.writer.firstErr)
		}
	}
	attempt += p.postChecks
	failed += p.postFailed

	res := &result{Correct: failed == 0, Attempted: attempt, Failed: failed, Metrics: map[string]metricOut{}}
	e2e := endToEndValues(w, p, times)
	fmt.Fprintf(os.Stderr, "cubebench: %s seed %d: %d operations attempted, %d failed; %d read latency samples over %.2f s\n",
		w.name, opt.seed, attempt, failed, int(p.queries()), p.wall)
	printValues(os.Stderr, endToEnd, e2e)
	if !opt.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricOut{e2e[d.name], d.unit}
		}
		return res, nil
	}
	vals := layerValues(w, t, p, build.Seconds())
	b.stop(t.children()...) // the replay runs alone on the machine
	tr, err := b.traced(w, opt)
	if err != nil {
		return nil, err
	}
	for k, v := range tr {
		vals[k] = v
	}
	printValues(os.Stderr, perLayer, vals)
	for _, d := range perLayer {
		res.Metrics[d.name] = metricOut{vals[d.name], d.unit}
	}
	return res, nil
}

// printValues lists metrics by name with their units for a person to read;
// the JSON line on standard output is for the driver.
func printValues(out io.Writer, defs []metricDef, vals values) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}
