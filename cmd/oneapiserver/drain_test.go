package main

import (
	"errors"
	"net/http"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/faults"
	"github.com/flare-sim/flare/internal/graceful"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/oneapi"
)

// TestShutdownDrainsBAIRounds delivers SIGTERM (self-signal, like the
// graceful package's tests) while a BAI round is blocked mid-install in
// the PCEF, and asserts the drain waits for the round to complete —
// the round is never dropped mid-install — while new rounds are refused
// with ErrDraining.
func TestShutdownDrainsBAIRounds(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Delta = 1
	handler, _, server := buildHandler(cfg, faults.Config{}, 0)

	// A PCEF that parks the first install until released: the in-flight
	// round the shutdown must wait for.
	inInstall := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocking := func([]oneapi.GBRInstall) []error {
		once.Do(func() { close(inInstall) })
		<-release
		return nil
	}

	if _, err := server.Open(0, oneapi.SessionRequest{FlowID: 1, LadderBps: has.SimLadder()}); err != nil {
		t.Fatalf("open: %v", err)
	}
	report := oneapi.StatsReport{Flows: map[int]core.FlowStats{1: {Bytes: 2_000_000, RBs: 8000}}}
	roundDone := make(chan error, 1)
	go func() {
		_, err := server.RunBAIReport(0, report, blocking)
		roundDone <- err
	}()
	<-inInstall // the round is now in flight, blocked in its install

	srv := &http.Server{Addr: "127.0.0.1:0", Handler: handler}
	served := make(chan error, 1)
	go func() {
		served <- graceful.ServeDrain(srv, 2*time.Second, nil, func(grace time.Duration) {
			server.BeginDrain()
			server.DrainWait(grace / 2)
		})
	}()

	// Release the blocked install only after the drain has begun, so a
	// DrainWait that failed to wait would observe a still-running round.
	go func() {
		for !server.Draining() {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()

	// Let ServeDrain install its signal handler before self-signalling.
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeDrain returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeDrain did not return after SIGTERM")
	}
	select {
	case err := <-roundDone:
		if err != nil {
			t.Fatalf("in-flight BAI round failed during drain: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight BAI round never completed")
	}
	// The drain refuses new rounds but must have let the old one finish.
	if _, err := server.RunBAIReport(0, report, nil); !errors.Is(err, oneapi.ErrDraining) {
		t.Fatalf("post-drain BAI error = %v, want ErrDraining", err)
	}
	if _, err := server.Open(0, oneapi.SessionRequest{FlowID: 2, LadderBps: has.SimLadder()}); !errors.Is(err, oneapi.ErrDraining) {
		t.Fatalf("post-drain open error = %v, want ErrDraining", err)
	}
}
