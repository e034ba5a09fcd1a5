package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"github.com/flare-sim/flare/internal/cellsim"
)

// quantile returns the exact q-quantile (nearest rank) of the samples.
// The slice is sorted in place; callers keep raw samples in one
// preallocated slice and hand it over once the timed region is done.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return sortedQuantile(samples, q)
}

// sortedQuantile is quantile over already-sorted samples.
func sortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the two middle values for an
// even count). The input is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowDecile is the estimator of setup_s: the lower decile of the set-up
// samples (the fastest one when there are fewer than ten). Interference
// from the host only ever adds time, and at times it reaches more than
// half of a run's samples: over a few minutes the median of one run's
// 500 cellsim.New samples moved by 40 %, their lower decile by 9 %.
func lowDecile(samples []float64) float64 {
	return quantile(append([]float64(nil), samples...), 0.10)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), the rule the acceptance check applies to
// the spread of repeated runs. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0], values[0]
		}
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median —
// the steadiness figure every bound is judged against.
func spreadShare(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// resultDigest is the SHA-256 of a run's canonical Result: everything
// the simulation decided, without the wall-clock solver timings (the
// only field that legitimately differs between two runs of one seed).
func resultDigest(results ...*cellsim.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		c := *r
		c.SolveTimesSec = nil
		b, err := json.Marshal(&c)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// mix derives an independent 64-bit stream value from a seed and an
// index (splitmix64 finaliser). Workload inputs are built only from
// these, so one seed always yields the same inputs.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
