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
// with the two parts that depend on the engine loop or vary from run to
// run left out: fast_forward events (the kernel's jumps over idle
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

// TestChurnTraceUnchangedByRetirement pins the trace of churn cells to
// the hashes recorded while departed sessions' bearers were still
// retired once drained, and idle bearers were still ticked every TTI:
// neither bearer retirement's removal nor aging idle bearers on read
// may change a decision, so everything the trace records except the
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
		// about 12 live, over 400 s. Re-recorded when sessions began to
		// open at their flows' arrival instead of all at t=0: each BAI
		// now solves, clamps and installs only the sessions playing
		// (133,966 events before). The engine with retirement switched
		// off recorded this hash too.
		{"FLARE", churnConfig(1, 200, 400*time.Second, 12),
			13951, "43246cb4f18d833aa8f1974583c27f9445b331bcc653b7992f62efc490a1980c"},
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
