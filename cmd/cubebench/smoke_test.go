package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cubedChildren lists live cubed processes whose parent is this test.
func cubedChildren(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited while we looked
		}
		// pid (comm) state ppid ...
		open, shut := strings.IndexByte(string(data), '('), strings.LastIndexByte(string(data), ')')
		fields := strings.Fields(string(data[shut+1:]))
		if open < 0 || len(fields) < 2 {
			continue
		}
		if string(data[open+1:shut]) == "cubed" && fields[1] == fmt.Sprint(os.Getpid()) && fields[0] != "Z" {
			out = append(out, path)
		}
	}
	return out
}

// TestSmoke runs all four topologies at the smoke scale, both as the
// end-to-end run and as the traced run, and checks the contract of the
// printed result: every named metric present with its unit, every answer
// right, children reaped, work directory gone.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots cubed processes")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	runDirs := func() map[string]bool {
		dirs, _ := filepath.Glob(filepath.Join(root, ".cubebench", "run-*"))
		set := map[string]bool{}
		for _, d := range dirs {
			set[d] = true
		}
		return set
	}
	before := runDirs() // another cubebench may be running beside the test
	for _, w := range workloads(smokeScale) {
		for _, trace := range []bool{false, true} {
			opt := options{root: root, workload: w.name, seed: 5, seconds: 0.4, trace: trace, sc: smokeScale}
			res, err := runOnce(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < len(w.pop) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d defined", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", w.name, trace, d.name, m, ok, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				share := 0.0
				for _, l := range layers {
					share += res.Metrics["share."+l+"_pct"].Value
				}
				if share < 99 || share > 101 {
					t.Errorf("%s: layer shares sum to %.2f %%", w.name, share)
				}
				if _, err := os.Stat(filepath.Join(root, ".cubebench", "trace_"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
				only := map[string]string{"ingest.merges": "ingest_reads", "cluster.coordinator_cpu_share": "scatter_gather"}
				for name, owner := range only {
					if got := res.Metrics[name].Value; (got > 0) != (w.name == owner) {
						t.Errorf("%s: %s = %v; it must be positive on %s only", w.name, name, got, owner)
					}
				}
			}
			if kids := cubedChildren(t); len(kids) > 0 {
				t.Fatalf("%s trace=%v: cubed children still alive: %v", w.name, trace, kids)
			}
		}
	}
	for d := range runDirs() {
		if !before[d] {
			t.Errorf("work directory left behind: %s", d)
		}
	}
}
