package cellsim

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/obs"
)

// traceHash is an obs sink that hashes a run's trace as its JSONL lines,
// with the two parts a bearer's retirement may move or that vary from
// run to run left out: fast_forward events (the kernel's jumps over idle
// spans) and bai_solve's wall-clock dur_ns.
type traceHash struct {
	h      hash.Hash
	buf    []byte
	events int
}

func (s *traceHash) Write(e *obs.Event) error {
	if e.Kind == obs.KindFastForward {
		return nil
	}
	ev := *e
	ev.DurNs = 0
	s.buf = append(ev.AppendJSON(s.buf[:0]), '\n')
	s.h.Write(s.buf)
	s.events++
	return nil
}

func (s *traceHash) Close() error { return nil }

// TestChurnTraceUnchangedByRetirement pins the trace of churn cells,
// whose departed sessions' bearers are retired once they drain, to the
// hashes recorded before bearers could retire: a retired bearer must
// change no decision, so everything the trace records except the
// kernel's fast-forward jumps is what it was. Both loops must match
// the one hash: the naive loop records no jumps, and the rest of the
// two traces is the same.
func TestChurnTraceUnchangedByRetirement(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		events int
		sha256 string
	}{
		// The ledger's cell_churn shape: 200 declared FLARE sessions,
		// about 12 live, over 400 s.
		{"FLARE", churnConfig(1, 200, 400*time.Second, 12),
			133966, "255159cca73f71ea52da7d77ed645efdfbf9f9a71dd9c26e2bdc663e08c510f0"},
		{"AVIS", withScheme(churnConfig(2, 60, 120*time.Second, 8), SchemeAVIS),
			118, "0d006b97e44ecf0dee6ee203313327fa79afd845e6f22b8ee6d73cde49dea6b8"},
		{"FESTIVE", withScheme(churnConfig(3, 60, 120*time.Second, 8), SchemeFESTIVE),
			109, "e01863d0a8fcc65e5838d496d1286dd0ab4d5c773d669f47c9947c40921a8c8e"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, naive := range []bool{false, true} {
				sink := &traceHash{h: sha256.New()}
				cfg := c.cfg
				cfg.DisableFastForward = naive
				cfg.Obs = obs.New(obs.Options{RingSize: -1, Sinks: []obs.Sink{sink}})
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				got := hex.EncodeToString(sink.h.Sum(nil))
				t.Logf("naive=%v: %d events, sha256 %s", naive, sink.events, got)
				if sink.events != c.events || got != c.sha256 {
					t.Errorf("naive=%v: trace is %d events with sha256 %s, want %d with %s", naive, sink.events, got, c.events, c.sha256)
				}
			}
		})
	}
}

func withScheme(cfg Config, scheme Scheme) Config {
	cfg.Scheme = scheme
	return cfg
}

// TestRetireWaitsUntilNothingIsLeftToSend: a departed session's bearer
// is retired only once its player has ended, its transport flow holds
// no bytes and the bearer's queue is empty. Each TTI of a stopped
// player's last big response checks that the session stays listed
// while anything is left, including the TTIs where the queue has
// drained but the congestion window still holds bytes back.
func TestRetireWaitsUntilNothingIsLeftToSend(t *testing.T) {
	s, err := New(churnConfig(1, 4, 60*time.Second, 2))
	if err != nil {
		t.Fatal(err)
	}
	f := &s.videoSlab[0]
	s.departing = append(s.departing, f)
	s.retireDrained()
	if len(s.departing) != 1 {
		t.Fatal("retired a session whose player has not ended")
	}
	f.Player.Stop()
	f.Transport.Send(1 << 20)
	heldBack := 0
	for tti := int64(0); ; tti++ {
		if tti == 100_000 {
			t.Fatal("the response never drained")
		}
		s.env.events.RunDue(tti)
		f.Transport.Tick()
		s.enb.RunTTI(tti)
		left := f.Transport.Active() || f.Bearer.Backlog() > 0
		if f.Bearer.Backlog() == 0 && f.Transport.Active() {
			heldBack++
		}
		s.retireDrained()
		if left && len(s.departing) != 1 {
			t.Fatalf("tti %d: retired with %d bytes queued and %d pending", tti, f.Bearer.Backlog(), f.Transport.Pending())
		}
		if !left {
			if len(s.departing) != 0 {
				t.Error("a drained session's bearer was not retired")
			}
			break
		}
		s.env.clock.Advance()
	}
	if heldBack == 0 {
		t.Error("the queue never drained while the window held bytes back: the case under test did not occur")
	}
}
