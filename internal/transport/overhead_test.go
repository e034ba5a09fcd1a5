package transport

import (
	"testing"

	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/sim"
)

func TestOverheadGoodputBelowWireRate(t *testing.T) {
	const iTbs = 10
	env := newTestEnv(t, iTbs, 1)
	cfg := DefaultConfig() // 1.04 overhead
	f := env.addFlow(t, 0, lte.ClassData, cfg)
	f.SetGreedy(true)
	env.run(10000)
	wire := f.WireDelivered()
	app := f.DeliveredTotal()
	if app >= wire {
		t.Fatalf("goodput %d >= wire %d", app, wire)
	}
	ratio := float64(wire) / float64(app)
	if ratio < 1.035 || ratio > 1.045 {
		t.Fatalf("overhead ratio %v, want ~1.04", ratio)
	}
}

func TestOverheadAppDeliveryCoversSend(t *testing.T) {
	// Whatever the overhead factor, the application must eventually
	// receive the bytes it asked for (ceil rounding may credit a byte
	// or two extra at the wire boundary, never fewer).
	for _, size := range []int64{1_000, 14_600, 100_001, 777_777} {
		env := newTestEnv(t, 12, 1)
		f := env.addFlow(t, 0, lte.ClassVideo, DefaultConfig())
		var got int64
		f.OnDelivered = sim.HandlerFunc(func(n int64) { got += n })
		f.Send(size)
		env.run(30000)
		if got < size {
			t.Fatalf("size %d: delivered only %d", size, got)
		}
		if got > size+2 {
			t.Fatalf("size %d: over-delivered %d", size, got)
		}
	}
}

func TestOverheadFactorOneIsExact(t *testing.T) {
	env := newTestEnv(t, 12, 1)
	cfg := DefaultConfig()
	cfg.OverheadFactor = 1
	f := env.addFlow(t, 0, lte.ClassVideo, cfg)
	var got int64
	f.OnDelivered = sim.HandlerFunc(func(n int64) { got += n })
	f.Send(123_456)
	env.run(10000)
	if got != 123_456 {
		t.Fatalf("delivered %d, want exact", got)
	}
	if f.WireDelivered() != f.DeliveredTotal() {
		t.Fatal("wire != app at factor 1")
	}
}

func TestOverheadValidation(t *testing.T) {
	env := newTestEnv(t, 10, 1)
	b := &lte.Bearer{ID: 0, UE: 0}
	cfg := DefaultConfig()
	cfg.OverheadFactor = 0.9
	if _, err := NewFlow(env, b, cfg); err == nil {
		t.Fatal("overhead < 1 accepted")
	}
}
