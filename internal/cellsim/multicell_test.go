package cellsim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/cellsim/driver"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/obs"
)

// failScheme is a test-only scheme whose driver errors at its first
// control interval (1 s = TTI 1000). Because the engine polls ctx only
// at TTI multiples of 1024 (never TTI 0), every cell of this scheme
// that starts at all is guaranteed to reach its own failure before it
// can observe a sibling's cancellation — the property the
// cancellation-ordering test below pins down.
const failScheme = Scheme(97)

var errBAIBoom = errors.New("control interval deliberately failed")

func init() {
	schemes[failScheme] = schemeRow{"FAIL", "fail", func(driver.Config) driver.Controller { return &failingDriver{} }}
}

type fixedAdapter struct{}

func (fixedAdapter) Name() string                        { return "fixed" }
func (fixedAdapter) NextQuality(has.State) int           { return 0 }
func (fixedAdapter) OnSegmentComplete(has.SegmentRecord) {}

type failingDriver struct{ driver.Base }

func (*failingDriver) NewAdapter(int) (has.Adapter, error) { return fixedAdapter{}, nil }
func (*failingDriver) Interval() time.Duration             { return time.Second }
func (*failingDriver) OnBAI(time.Duration) error           { return errBAIBoom }

func failingCell(seed uint64) Config {
	cfg := DefaultConfig(failScheme)
	cfg.Seed = seed
	cfg.Duration = 3 * time.Second
	cfg.NumVideo = 1
	cfg.SegmentDuration = 2 * time.Second
	cfg.Channel = ChannelSpec{Kind: ChannelStatic, StaticITbs: 10}
	return cfg
}

// TestRunMultiCancellationOrdering: when several cells fail, the run
// must report the lowest-indexed cell's own error — not whichever
// goroutine lost the race to cancel its siblings — for every worker
// count.
func TestRunMultiCancellationOrdering(t *testing.T) {
	cells := []Config{failingCell(1), failingCell(2), failingCell(3), failingCell(4)}
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 5; rep++ {
			_, err := RunMultiConfig(context.Background(), MultiConfig{Workers: workers}, nil, cells...)
			if err == nil {
				t.Fatalf("workers=%d: failing cells reported no error", workers)
			}
			if !errors.Is(err, errBAIBoom) {
				t.Fatalf("workers=%d: got %v, want the driver failure", workers, err)
			}
			if !strings.Contains(err.Error(), "cell 0") {
				t.Fatalf("workers=%d rep=%d: error %q is not cell 0's (nondeterministic first-error selection)", workers, rep, err)
			}
			if strings.Contains(err.Error(), "context canceled") {
				t.Fatalf("workers=%d: sibling cancellation leaked into the reported error: %q", workers, err)
			}
		}
	}
}

// TestRunMultiCallerCancellation: when only the caller's ctx fires (no
// cell fails on its own), the run reports the cancellation.
func TestRunMultiCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := quickConfig(SchemeFESTIVE, 1, 0)
	cfg.Duration = 30 * time.Second
	_, err := RunMultiConfig(ctx, MultiConfig{Workers: 2}, nil, cfg, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunMultiRejectsSharedRecorder(t *testing.T) {
	rec := obs.New(obs.Options{RingSize: 64})
	a := quickConfig(SchemeFESTIVE, 1, 0)
	a.Obs = rec
	b := quickConfig(SchemeBBA, 1, 0)
	b.Obs = rec
	_, err := RunMulti(nil, a, b)
	if err == nil {
		t.Fatal("shared recorder accepted across concurrent cells")
	}
	if !strings.Contains(err.Error(), "recorder") || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("error %q does not explain the shared-recorder rejection", err)
	}
	// Distinct recorders are fine.
	b.Obs = obs.New(obs.Options{RingSize: 64})
	a.Duration, b.Duration = 5*time.Second, 5*time.Second
	if _, err := RunMulti(nil, a, b); err != nil {
		t.Fatalf("distinct recorders rejected: %v", err)
	}
}

func TestRunMultiInvalidWorkers(t *testing.T) {
	cfg := quickConfig(SchemeBBA, 1, 0)
	cfg.Duration = 2 * time.Second
	if _, err := RunMultiConfig(context.Background(), MultiConfig{Workers: -1}, nil, cfg); err == nil {
		t.Fatal("negative worker count accepted")
	}
	// 0 (auto) and an over-provisioned pool both work.
	for _, w := range []int{0, 16} {
		if _, err := RunMultiConfig(context.Background(), MultiConfig{Workers: w}, nil, cfg); err != nil {
			t.Fatalf("Workers=%d rejected: %v", w, err)
		}
	}
}
