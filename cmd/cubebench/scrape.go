package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file reads what cubed and the kernel already expose: Prometheus text
// from /metrics, runtime.MemStats from /debug/pprof/heap?debug=1, and CPU
// time and peak RSS from /proc. Nothing here needs code inside the program.

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promText []promSample

func parseProm(text []byte) (promText, error) {
	var out promText
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			s.labels = map[string]string{}
			for _, kv := range strings.Split(s.name[open+1:len(s.name)-1], ",") {
				k, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("metrics line %q: bad label %q", line, kv)
				}
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:open]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of a family, over all its label sets (a catalog
// process labels engine series by cube).
func (p promText) sum(name string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// minus subtracts an earlier scrape series by series; a series absent
// earlier counts from zero.
func (p promText) minus(before promText) promText {
	key := func(s promSample) string {
		ks := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			ks = append(ks, k+"="+v)
		}
		sort.Strings(ks)
		return s.name + "{" + strings.Join(ks, ",") + "}"
	}
	old := make(map[string]float64, len(before))
	for _, s := range before {
		old[key(s)] = s.value
	}
	out := make(promText, len(p))
	for i, s := range p {
		s.value -= old[key(s)]
		out[i] = s
	}
	return out
}

// histQuantile estimates a quantile of a histogram family (buckets summed
// over label sets other than le) by linear interpolation inside the bucket,
// as Prometheus's histogram_quantile does. It returns 0 for an empty
// histogram.
func (p promText) histQuantile(name string, q float64) float64 {
	byLe := map[float64]float64{}
	for _, s := range p {
		if s.name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64) // "+Inf" parses
		if err != nil {
			continue
		}
		byLe[le] += s.value
	}
	les := make([]float64, 0, len(byLe))
	for le := range byLe {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || byLe[les[len(les)-1]] == 0 {
		return 0
	}
	rank := q * byLe[les[len(les)-1]]
	prevLe, prevCount := 0.0, 0.0
	for _, le := range les {
		if c := byLe[le]; c >= rank {
			if math.IsInf(le, 1) {
				return prevLe
			}
			return prevLe + (le-prevLe)*(rank-prevCount)/(c-prevCount)
		}
		prevLe, prevCount = le, byLe[le]
	}
	return prevLe
}

// memStats is the subset of runtime.MemStats the heap profile's debug=1
// header carries that the benchmark reports.
type memStats struct {
	totalAlloc, mallocs, heapSys uint64
	heapAlloc                    uint64 // live heap when read right after a collection
	numGC                        uint64
	pauseNs                      []uint64 // circular: GC n's pause is at (n-1) % len
}

func parseMemStats(text []byte) (memStats, error) {
	var m memStats
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || !strings.HasPrefix(sc.Text(), "# ") {
			continue
		}
		var dst *uint64
		switch name {
		case "TotalAlloc":
			dst = &m.totalAlloc
		case "Mallocs":
			dst = &m.mallocs
		case "HeapSys":
			dst = &m.heapSys
		case "HeapAlloc":
			dst = &m.heapAlloc
		case "NumGC":
			dst = &m.numGC
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return m, fmt.Errorf("memstats PauseNs: %w", err)
				}
				m.pauseNs = append(m.pauseNs, n)
			}
			found++
			continue
		default:
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return m, fmt.Errorf("memstats %s: %w", name, err)
		}
		*dst = n
		found++
	}
	if found != 6 {
		return m, fmt.Errorf("memstats header incomplete: %d of 6 fields", found)
	}
	return m, sc.Err()
}

// pauseSince sums the GC pauses after an earlier reading. The runtime keeps
// the last len(pauseNs) pauses; if more cycles than that ran, the kept ones
// are scaled up to the cycle count.
func (m memStats) pauseSince(before memStats) float64 {
	cycles := m.numGC - before.numGC
	if cycles == 0 || len(m.pauseNs) == 0 {
		return 0
	}
	kept := min(cycles, uint64(len(m.pauseNs)))
	var ns uint64
	for n := m.numGC; n > m.numGC-kept; n-- {
		ns += m.pauseNs[(n-1)%uint64(len(m.pauseNs))]
	}
	return float64(ns) * float64(cycles) / float64(kept)
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc whatever the
// kernel's own tick rate.
const clockTick = 100

// cpuSeconds reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

func parseStatCPU(stat []byte) (float64, error) {
	// The command name is in parentheses and may contain spaces; fields are
	// counted from after the closing one. utime and stime are fields 14, 15.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat %q", stat)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat times %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// percentile returns the p-quantile (0..1) of sorted values by linear
// interpolation between closest ranks; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ratio is a/b, 0 when b is 0 (a layer that did nothing in this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
