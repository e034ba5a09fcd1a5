package driver

import (
	"testing"

	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/sim"
)

func testConfig() Config {
	return Config{Count: 2, SegmentSeconds: 2, RNG: sim.NewRNG(1)}
}

// TestRegisteredSchemes: each scheme's constructor builds a driver whose
// adapters are that scheme's algorithm, and which implements the
// optional hooks the engine relies on for it.
func TestRegisteredSchemes(t *testing.T) {
	schemes := []struct {
		name  string
		build func(Config) Controller
		isOwn func(has.Adapter) bool
	}{
		{"FLARE", NewFLARE, func(a has.Adapter) bool { _, ok := a.(*abr.FlarePlugin); return ok }},
		{"AVIS", NewAVIS, func(a has.Adapter) bool { _, ok := a.(*abr.Throughput); return ok }},
		{"FESTIVE", NewFESTIVE, func(a has.Adapter) bool { _, ok := a.(*abr.Festive); return ok }},
		{"GOOGLE", NewGOOGLE, func(a has.Adapter) bool { _, ok := a.(*abr.Google); return ok }},
		{"BBA", NewBBA, func(a has.Adapter) bool { _, ok := a.(*abr.BBA); return ok }},
		{"MPC", NewMPC, func(a has.Adapter) bool { _, ok := a.(*abr.MPC); return ok }},
	}
	for _, s := range schemes {
		c := s.build(testConfig())
		if c == nil {
			t.Fatalf("%s: constructor returned nil", s.name)
		}
		a, err := c.NewAdapter(0)
		if err != nil || a == nil {
			t.Fatalf("%s adapter: %v %v", s.name, a, err)
		}
		if !s.isOwn(a) {
			t.Errorf("%s driver built a %T adapter", s.name, a)
		}
	}

	flare := NewFLARE(testConfig())
	if _, ok := flare.(ArrivalAware); !ok {
		t.Error("FLARE driver does not open sessions on arrival")
	}
	if _, ok := flare.(ControlTelemetry); !ok {
		t.Error("FLARE driver reports no control telemetry")
	}
	if _, ok := flare.(FlowTelemetry); !ok {
		t.Error("FLARE driver reports no per-flow telemetry")
	}
	// FLARE's plugins are sized to the group: indices outside it are refused.
	for _, i := range []int{-1, 2} {
		if a, err := flare.NewAdapter(i); err == nil || a != nil {
			t.Errorf("FLARE NewAdapter(%d) = %v, %v; want an error", i, a, err)
		}
	}
	if _, ok := NewAVIS(testConfig()).(SliceSizer); !ok {
		t.Error("AVIS driver does not size its slice")
	}
}

// TestClientDriverBuildsEveryScheme: the client-only drivers need no
// network help, tick never, and give every flow its own adapter.
func TestClientDriverBuildsEveryScheme(t *testing.T) {
	builds := map[string]func(Config) Controller{
		"FESTIVE": NewFESTIVE, "GOOGLE": NewGOOGLE, "BBA": NewBBA, "MPC": NewMPC,
	}
	for name, build := range builds {
		c := build(testConfig())
		if c.SchedulerPolicy() != PolicyBestEffort {
			t.Errorf("%s is client-only but demands policy %d", name, c.SchedulerPolicy())
		}
		if c.Interval() != 0 {
			t.Errorf("%s is client-only but wants control ticks", name)
		}
		a0, err0 := c.NewAdapter(0)
		a1, err1 := c.NewAdapter(1)
		if err0 != nil || err1 != nil || a0 == nil || a1 == nil {
			t.Fatalf("%s adapters: %v %v, %v %v", name, a0, err0, a1, err1)
		}
		if a0 == a1 {
			t.Errorf("%s flows share one adapter", name)
		}
		if err := c.Init(nil, nil); err != nil {
			t.Errorf("%s Init: %v", name, err)
		}
		if err := c.OnBAI(0); err != nil {
			t.Errorf("%s OnBAI: %v", name, err)
		}
	}
}
