package transport

import (
	"testing"

	"github.com/flare-sim/flare/internal/lte"
)

// Unit tests for the flow-side fast-forward contract: Active/Quiescent
// semantics.

func TestActiveTracksPendingAndGreedy(t *testing.T) {
	env := newTestEnv(t, 10, 1)
	f := env.addFlow(t, 0, lte.ClassVideo, DefaultConfig())
	if f.Active() {
		t.Fatal("idle flow reported active")
	}
	f.Send(50_000)
	if !f.Active() {
		t.Fatal("flow with pending bytes not active")
	}
	// Drain the transfer completely: pending hits zero, flow goes idle.
	env.run(5_000)
	if f.Pending() != 0 {
		t.Fatalf("transfer did not drain: pending=%d", f.Pending())
	}
	if f.Active() {
		t.Fatal("drained flow still active")
	}
	if !f.Quiescent() {
		t.Fatal("inactive flow must be quiescent")
	}
	f.SetGreedy(true)
	if !f.Active() {
		t.Fatal("greedy flow not active")
	}
	f.SetGreedy(false)
	if f.Active() {
		t.Fatal("un-greedied drained flow still active")
	}
}

func TestQuiescentRequiresClosedWindow(t *testing.T) {
	env := newTestEnv(t, 10, 1)
	cfg := DefaultConfig()
	f := env.addFlow(t, 0, lte.ClassVideo, cfg)
	// Far more pending than one window: Send's internal trySend fills
	// the window and the flow is then provably stuck until an ACK
	// arrives.
	f.Send(10_000_000)
	if int64(f.Cwnd())-f.InFlight() > 0 {
		t.Fatalf("window not filled: cwnd=%v inFlight=%d", f.Cwnd(), f.InFlight())
	}
	if !f.Quiescent() {
		t.Fatal("window-closed flow with in-flight data not quiescent")
	}
	// An ACK reopens the window: the flow must stop claiming quiescence,
	// since Tick can now enqueue bytes.
	env.run(int64(cfg.RTTTTIs) + 5)
	if int64(f.Cwnd())-f.InFlight() > 0 && f.Pending() > 0 && f.Quiescent() {
		t.Fatal("flow with window space and pending bytes reported quiescent")
	}
}
