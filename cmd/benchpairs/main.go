// Command benchpairs compares one ledger workload at a base revision
// and at HEAD by alternating pairs of runs, the evidence a claimed gain needs: the
// machine drifts over minutes, so each pair runs the two sides back to
// back (in alternating order), and a gain counts only if it wins nearly
// every pair and its medians are further apart than the base's spread.
//
//	benchpairs -workload cell_churn -base HEAD~1 [-n 10]
//	make pairs W=cell_churn BASE=HEAD~1 N=10
//
// Every run uses bench's own defaults for the run length and the seed,
// so the pairs measure what the benchmark measures. Each revision is
// checked out in a git worktree under a temporary
// directory, and its bench command is built there once; the worktrees
// and binaries are removed on exit, so the checkout is left as it was.
// For every end-to-end metric BENCHMARK.json lists, it prints both
// medians, the base's interquartile range (IQR), how many pairs the
// revision won and a verdict: "gain" when it won at least 9 pairs in
// 10, the medians differ by more than the base's IQR and its runs
// failed no more operations than the base's, "regression" when the
// revision's median is worse than the base's by more than the metric's
// bound, and "same" otherwise.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec is one of BENCHMARK.json's end-to-end metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// outcome is the JSON object a single bench run prints last.
type outcome struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "the ledger workload to run (required)")
		base     = fs.String("base", "", "the revision to compare HEAD against (required)")
		pairs    = fs.Int("n", 10, "pairs of runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || *base == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "benchpairs: need -workload, -base and -n >= 1")
		return 2
	}
	if err := compare(ctx, *workload, [2]string{*base, "HEAD"}, *pairs, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "benchpairs: %v\n", err)
		return 1
	}
	return 0
}

// compare builds both revisions, runs the pairs and prints the table.
func compare(ctx context.Context, workload string, revs [2]string, pairs int, stdout, stderr io.Writer) error {
	root, err := output(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root = strings.TrimSpace(root)
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var trees, bins [2]string
	for i, r := range revs {
		trees[i] = filepath.Join(tmp, fmt.Sprintf("tree%d", i))
		if _, err := output(ctx, root, "git", "worktree", "add", "--detach", trees[i], r); err != nil {
			return err
		}
		tree := trees[i]
		// A fresh context: the worktree goes even after an interrupt.
		defer output(context.Background(), root, "git", "worktree", "remove", "--force", tree)
		bins[i] = filepath.Join(tmp, fmt.Sprintf("bench%d", i))
		fmt.Fprintf(stderr, "building bench at %s\n", r)
		if _, err := output(ctx, "", "go", "build", "-C", filepath.Join(trees[i], "bench"), "-o", bins[i], "."); err != nil {
			return err
		}
	}
	specs, err := endToEnd(filepath.Join(trees[1], "BENCHMARK.json"))
	if err != nil {
		return err
	}

	var runs [2][]outcome
	runArgs := []string{"-workload", workload, "-trace", "0"}
	for p := 0; p < pairs; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			out, err := output(ctx, trees[side], bins[side], runArgs...)
			if err != nil {
				return err
			}
			o, err := lastOutcome(out)
			if err != nil {
				return fmt.Errorf("%s: %w", revs[side], err)
			}
			runs[side] = append(runs[side], o)
		}
		fmt.Fprintf(stderr, "pair %d/%d done\n", p+1, pairs)
	}
	report(stdout, workload, revs, specs, runs)
	return nil
}

// output runs a command and returns its standard output, or an error
// carrying its standard error.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), nil
}

// endToEnd reads the end-to-end metrics from a BENCHMARK.json.
func endToEnd(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// lastOutcome parses the last non-empty line of a bench run's output.
func lastOutcome(out string) (outcome, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return o, fmt.Errorf("reading the run's result line: %w", err)
	}
	return o, nil
}

// row is one metric's comparison.
type row struct {
	baseMedian, revMedian, baseIQR float64
	wins                           int
	verdict                        string
}

// summarize compares one metric's paired samples: base[i] and rev[i]
// ran back to back. failsOK reports whether the revision's runs failed
// no more operations than the base's; without it, no metric counts as a
// gain.
func summarize(spec metricSpec, base, rev []float64, failsOK bool) row {
	r := row{baseMedian: median(base), revMedian: median(rev)}
	sorted := append([]float64(nil), base...)
	sort.Float64s(sorted)
	r.baseIQR = nearestRank(sorted, 0.75) - nearestRank(sorted, 0.25)
	better := func(a, b float64) bool { // a better than b
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range base {
		if better(rev[i], base[i]) {
			r.wins++
		}
	}
	worse := r.revMedian - r.baseMedian
	if spec.Better == "higher" {
		worse = -worse
	}
	switch {
	case failsOK && 10*r.wins >= 9*len(base) && -worse > r.baseIQR:
		r.verdict = "gain"
	case worse > spec.Bound*math.Abs(r.baseMedian):
		r.verdict = "regression"
	default:
		r.verdict = "same"
	}
	return r
}

// tally is one side's operations over all its runs.
type tally struct {
	attempted, failed int
	correct           bool
}

func total(outs []outcome) tally {
	t := tally{correct: true}
	for _, o := range outs {
		t.attempted += o.Attempted
		t.failed += o.Failed
		t.correct = t.correct && o.Correct
	}
	return t
}

// report prints the comparison table.
func report(w io.Writer, workload string, revs [2]string, specs []metricSpec, runs [2][]outcome) {
	fmt.Fprintf(w, "%s: %s (base) vs %s, %d pairs\n", workload, revs[0], revs[1], len(runs[0]))
	totals := [2]tally{total(runs[0]), total(runs[1])}
	failsOK := totals[1].failed <= totals[0].failed
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbetter\tbase median\trev median\tchange\tbase IQR\twins\tverdict")
	for _, spec := range specs {
		var base, rev []float64
		for i := range runs[0] {
			b, okB := runs[0][i].Metrics[spec.Name]
			r, okR := runs[1][i].Metrics[spec.Name]
			if okB && okR {
				base, rev = append(base, b.Value), append(rev, r.Value)
			}
		}
		if len(base) == 0 {
			continue
		}
		r := summarize(spec, base, rev, failsOK)
		change := math.NaN()
		if r.baseMedian != 0 {
			change = 100 * (r.revMedian - r.baseMedian) / math.Abs(r.baseMedian)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.3g\t%d/%d\t%s\n",
			spec.Name, spec.Better, r.baseMedian, r.revMedian, change, r.baseIQR, r.wins, len(base), r.verdict)
	}
	tw.Flush()
	for side, t := range totals {
		fmt.Fprintf(w, "%s: correct=%v failed %d of %d operations\n", revs[side], t.correct, t.failed, t.attempted)
	}
	if !failsOK {
		fmt.Fprintf(w, "%s failed more operations than %s: no gain counts\n", revs[1], revs[0])
	}
}

// median is the middle value, or the mean of the two middle values.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the q-quantile of sorted values by nearest rank, the
// ledger's own estimator.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
