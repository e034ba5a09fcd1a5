package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	lower := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "qoe_mean_kbps", Better: "higher", Bound: 0.05}
	base := []float64{10, 11, 12, 10, 11, 13, 10, 12, 11, 10}
	for _, c := range []struct {
		name    string
		spec    metricSpec
		rev     []float64
		wins    int
		verdict string
		// moreFails: the revision's runs failed more operations.
		moreFails bool
	}{
		// 9 wins of 10 and medians 4 apart against an IQR of 2.
		{"gain", lower, []float64{7, 7, 8, 7, 7, 8, 7, 7, 7, 11}, 9, "gain", false},
		// Every pair won, but by less than the base's spread.
		{"within spread", lower, []float64{9.5, 10.5, 11.5, 9.5, 10.5, 12.5, 9.5, 11.5, 10.5, 9.5}, 10, "same", false},
		// 8 wins of 10 is not enough, however far apart the medians.
		{"too few wins", lower, []float64{1, 1, 1, 1, 1, 1, 1, 1, 20, 20}, 8, "same", false},
		{"regression", lower, []float64{14, 14, 15, 14, 14, 15, 14, 14, 14, 14}, 0, "regression", false},
		{"higher is better", higher, []float64{14, 14, 15, 14, 14, 15, 14, 14, 14, 14}, 10, "gain", false},
		{"identical", higher, base, 0, "same", false},
		// The "gain" row's samples, but more operations failed.
		{"more failures", lower, []float64{7, 7, 8, 7, 7, 8, 7, 7, 7, 11}, 9, "same", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := summarize(c.spec, base, c.rev, !c.moreFails)
			if r.baseMedian != 11 || r.baseIQR != 2 {
				t.Fatalf("base median %v, IQR %v, want 11 and 2", r.baseMedian, r.baseIQR)
			}
			if r.wins != c.wins || r.verdict != c.verdict {
				t.Errorf("%d wins, %q; want %d, %q", r.wins, r.verdict, c.wins, c.verdict)
			}
		})
	}
}

func TestLastOutcome(t *testing.T) {
	out := "  setup_s 1\n  correct=true\n{\"correct\":true,\"attempted\":4,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":2.5e-05,\"unit\":\"s\"}}}\n"
	o, err := lastOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Correct || o.Attempted != 4 || o.Failed != 1 || o.Metrics["setup_s"].Value != 2.5e-05 {
		t.Errorf("parsed %+v", o)
	}
	if _, err := lastOutcome("no result line\n"); err == nil {
		t.Error("a run without a result line parsed")
	}
}

func TestRunRefusesMissingFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "cell_churn"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("exit %d without -base, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-base") {
		t.Errorf("message %q does not name -base", stderr.String())
	}
}
