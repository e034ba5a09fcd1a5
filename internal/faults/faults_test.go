package faults

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

func TestZeroConfigAlwaysPasses(t *testing.T) {
	in := New(Config{Seed: 7})
	if in.Enabled() {
		t.Fatal("zero config reports enabled")
	}
	for i := 0; i < 1000; i++ {
		if d := in.Decide(time.Duration(i) * time.Second); d.Outcome != Pass {
			t.Fatalf("zero config injected %v at i=%d", d.Outcome, i)
		}
	}
	c := in.Counts()
	if c.Total != 1000 || c.Passed != 1000 {
		t.Fatalf("counts %+v", c)
	}
}

func TestDecisionsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.2, FailRate: 0.1, DelayRate: 0.05,
		DelayBy: time.Millisecond}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 5000; i++ {
		da, db := a.Decide(0), b.Decide(0)
		if da != db {
			t.Fatalf("streams diverged at %d: %v vs %v", i, da, db)
		}
	}
	// A different seed gives a different stream.
	cfg.Seed = 43
	c := New(cfg)
	same := 0
	for i := 0; i < 5000; i++ {
		if New(Config{}).Decide(0); a.Decide(0) == c.Decide(0) {
			same++
		}
	}
	if same == 5000 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRatesRoughlyHold(t *testing.T) {
	cfg := Config{Seed: 1, DropRate: 0.3, FailRate: 0.2}
	in := New(cfg)
	const n = 20000
	for i := 0; i < n; i++ {
		in.Decide(0)
	}
	c := in.Counts()
	if frac := float64(c.Dropped) / n; frac < 0.27 || frac > 0.33 {
		t.Fatalf("drop fraction %v for rate 0.3", frac)
	}
	if frac := float64(c.Failed) / n; frac < 0.17 || frac > 0.23 {
		t.Fatalf("fail fraction %v for rate 0.2", frac)
	}
}

func TestBlackoutWindows(t *testing.T) {
	in := New(Config{Blackouts: []Window{{From: 60 * time.Second, To: 90 * time.Second}}})
	if d := in.Decide(59 * time.Second); d.Outcome != Pass {
		t.Fatalf("pre-blackout: %v", d.Outcome)
	}
	for _, at := range []time.Duration{60 * time.Second, 75 * time.Second, 90*time.Second - time.Millisecond} {
		if d := in.Decide(at); d.Outcome != Drop {
			t.Fatalf("inside blackout at %v: %v", at, d.Outcome)
		}
	}
	if d := in.Decide(90 * time.Second); d.Outcome != Pass {
		t.Fatalf("post-blackout: %v", d.Outcome)
	}
	if c := in.Counts(); c.BlackoutDrops != 3 {
		t.Fatalf("blackout drops %d", c.BlackoutDrops)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{DropRate: 0.5, FailRate: 0.5}, true},
		{Config{DropRate: -0.1}, false},
		{Config{DropRate: 1.1}, false},
		{Config{DropRate: 0.6, FailRate: 0.6}, false},
		// NaN fails every range test, so each rate is checked for it.
		{Config{DropRate: math.NaN()}, false},
		{Config{FailRate: math.NaN()}, false},
		{Config{DelayRate: math.NaN(), DelayBy: time.Millisecond}, false},
		{Config{DelayRate: 0.1}, false}, // needs DelayBy
		{Config{DelayRate: 0.1, DelayBy: time.Millisecond}, true},
		{Config{Blackouts: []Window{{From: 2 * time.Second, To: time.Second}}}, false},
		{Config{Blackouts: []Window{{From: 0, To: time.Second}}}, true},
	}
	for i, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, tc.ok)
		}
	}
}

// TestParseWindows: the blackout flag's syntax, and the split between
// the parser (syntax) and Config.Validate (an empty window).
func TestParseWindows(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []Window // nil: a parse error
		// valid is whether Config.Validate accepts the parsed windows.
		valid bool
	}{
		{"one", "60s-90s", []Window{{60 * time.Second, 90 * time.Second}}, true},
		{"spaced list", " 60s-90s , 300s-330s", []Window{{60 * time.Second, 90 * time.Second}, {300 * time.Second, 330 * time.Second}}, true},
		{"missing dash", "60s", nil, false},
		{"missing dash in a list", "60s-90s,100s", nil, false},
		{"bad from", "x-90s", nil, false},
		{"bad to", "60s-90", nil, false},
		{"empty string", "", nil, false},
		{"empty window", "60s-60s", []Window{{60 * time.Second, 60 * time.Second}}, false},
		{"reversed window", "90s-60s", []Window{{90 * time.Second, 60 * time.Second}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseWindows(tc.in)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("ParseWindows(%q) = %v, want an error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseWindows(%q): %v", tc.in, err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("ParseWindows(%q) = %v, want %v", tc.in, got, tc.want)
			}
			if err := (Config{Blackouts: got}).Validate(); (err == nil) != tc.valid {
				t.Fatalf("Validate(%v) = %v, want valid=%v", got, err, tc.valid)
			}
		})
	}
}

func TestRoundTripperOutcomes(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	// Full blackout: every request errors, server never hit.
	in := New(Config{Blackouts: []Window{{From: 0, To: time.Hour}}})
	client := &http.Client{Transport: NewRoundTripper(ts.Client().Transport, in, nil)}
	_, err := client.Get(ts.URL)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("blackout request error = %v", err)
	}
	if hits != 0 {
		t.Fatal("blackout request reached the server")
	}

	// Fail: synthesized 503, server never hit.
	in = New(Config{FailRate: 1})
	client = &http.Client{Transport: NewRoundTripper(ts.Client().Transport, in, nil)}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hits != 0 {
		t.Fatalf("fail outcome: status %d, hits %d", resp.StatusCode, hits)
	}
	_, _ = io.Copy(io.Discard, resp.Body)

	// Pass: request goes through.
	in = New(Config{})
	client = &http.Client{Transport: NewRoundTripper(ts.Client().Transport, in, nil)}
	resp, err = client.Get(ts.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pass outcome: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if hits != 1 {
		t.Fatalf("pass outcome hits = %d", hits)
	}
}

func TestMiddlewareBlackout(t *testing.T) {
	hits := 0
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.WriteHeader(http.StatusOK)
	})
	in := New(Config{Blackouts: []Window{{From: 0, To: time.Hour}}})
	ts := httptest.NewServer(Middleware(in, next))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hits != 0 {
		t.Fatalf("middleware blackout: status %d, hits %d", resp.StatusCode, hits)
	}
}
