package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// series collects one metric's value from every run of one workload.
func series(rf *resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload {
			continue
		}
		if v, ok := r.Values[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// metricOrder lists the metrics of a results file: end-to-end first, in
// table order, then whatever else the runs produced, by name.
func metricOrder(rf *resultsFile) []metricDef {
	defs := append([]metricDef(nil), rf.EndToEnd...)
	known := make(map[string]metricDef)
	for _, d := range rf.EndToEnd {
		known[d.Name] = d
	}
	layer := make(map[string]metricDef)
	for _, d := range rf.PerLayer {
		layer[d.Name] = d
	}
	seen := make(map[string]bool)
	var extra []string
	for _, r := range rf.Runs {
		for name := range r.Values {
			if _, ok := known[name]; !ok && !seen[name] {
				seen[name] = true
				extra = append(extra, name)
			}
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		d, ok := layer[name]
		if !ok {
			d = metricDef{Name: name}
		}
		d.Bound = 0
		defs = append(defs, d)
	}
	return defs
}

// printSummary prints, per workload and metric, the median over the
// runs with its quartiles, sample count and spread.
func printSummary(rf *resultsFile) {
	defs := metricOrder(rf)
	for _, w := range rf.Workloads {
		fmt.Printf("\n== %s ==\n", w)
		fmt.Printf("%-32s %-6s %14s %14s %14s %3s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "n", "spread", "bound")
		for _, d := range defs {
			vals := series(rf, w, d.Name)
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Printf("%-32s %-6s %14.6g %14.6g %14.6g %3d %7.2f%% %6s\n",
				d.Name, d.Unit, q2, q1, q3, len(vals), spreadShare(vals)*100, bound)
		}
		var flags, problems []string
		for _, r := range rf.Runs {
			if r.Workload == w {
				flags = append(flags, r.Flags...)
				problems = append(problems, r.Problems...)
			}
		}
		if len(flags) > 0 {
			fmt.Printf("flags: %s\n", strings.Join(flags, " "))
		}
		for _, p := range problems {
			fmt.Printf("PROBLEM: %s\n", p)
		}
	}
}

// verdict judges b against a for one metric. worse is the relative move
// in the metric's bad direction; spread the wider of the two sides'
// interquartile spreads.
func verdict(d metricDef, a, b []float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if d.Bound == 0 || ma == 0 {
		return ""
	}
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max(spreadShare(a), spreadShare(b))
	if spread > d.Bound {
		// Too noisy to call, unless the two sides do not overlap at all.
		switch {
		case allBetter(d, a, b):
			return "improved"
		case allBetter(d, b, a):
			return "regressed"
		}
		return "unresolved"
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "within-bound"
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints, per workload and metric, both sides' medians and
// quartiles, the ratio b÷a (base: a), and for bounded metrics whether b
// is within bound, regressed, or unresolved. It exits 1 on a regression
// and refuses (2) files whose runs are not the same length: a longer run
// fits more repeats, so its medians are not the shorter run's.
func compareFiles(pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(a, b, pathA, pathB)
}

func compareResults(a, b *resultsFile, nameA, nameB string) int {
	if a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "bench: %s ran %v s a run, %s %v s: not comparable\n", nameA, a.Seconds, nameB, b.Seconds)
		return 2
	}
	fmt.Printf("a = %s (%s, %s)\nb = %s (%s, %s)\nratio = b/a, base a\n",
		nameA, a.Env.Commit, a.Env.CPUModel, nameB, b.Env.Commit, b.Env.CPUModel)
	status := 0
	for _, w := range a.Workloads {
		fmt.Printf("\n== %s ==\n", w)
		fmt.Printf("%-32s %-6s %12s %24s %12s %24s %7s %s\n", "metric", "unit", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "ratio", "verdict")
		for _, d := range metricOrder(a) {
			va, vb := series(a, w, d.Name), series(b, w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			ratio := "-"
			if a2 != 0 {
				ratio = fmt.Sprintf("%.3f", b2/a2)
			}
			v := verdict(d, va, vb)
			if v == "regressed" {
				status = 1
			}
			fmt.Printf("%-32s %-6s %12.6g %24s %12.6g %24s %7s %s\n", d.Name, d.Unit,
				a2, fmt.Sprintf("[%.5g, %.5g]", a1, a3), b2, fmt.Sprintf("[%.5g, %.5g]", b1, b3), ratio, v)
		}
	}
	return status
}
