package driver

import (
	"time"

	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/avis"
	"github.com/flare-sim/flare/internal/has"
)

// avisDriver runs the network-only baseline: a cell-level allocator
// recomputes GBR/MBR assignments every epoch from the eNodeB accounting,
// while each client adapts with its own throughput-based ABR — the
// indirect-enforcement mismatch the paper criticises.
type avisDriver struct {
	Base
	cfg   Config
	alloc *avis.Allocator

	e     Engine
	flows []*Flow
}

var (
	_ Controller = (*avisDriver)(nil)
	_ SliceSizer = (*avisDriver)(nil)
)

// NewAVIS builds the AVIS baseline's driver.
func NewAVIS(cfg Config) Controller {
	return &avisDriver{cfg: cfg, alloc: avis.NewAllocator()}
}

// SchedulerPolicy implements Controller: AVIS statically slices the cell.
func (d *avisDriver) SchedulerPolicy() SchedulerPolicy { return PolicySliced }

// VideoFraction implements SliceSizer: the video flows' head-count share
// of the whole population.
func (d *avisDriver) VideoFraction(numVideo, numBackground int) float64 {
	total := numVideo + numBackground
	if total == 0 {
		return 0
	}
	return float64(numVideo) / float64(total)
}

// NewAdapter implements Controller: the AVIS companion client — a simple
// throughput-based ABR requesting the highest sustainable rate.
func (d *avisDriver) NewAdapter(int) (has.Adapter, error) {
	return abr.NewThroughput(3), nil
}

// Init implements Controller: register every flow's ladder with the
// allocator (AVIS learns ladders by inspecting traffic in-network; here
// they are handed over directly).
func (d *avisDriver) Init(e Engine, flows []*Flow) error {
	d.e = e
	d.flows = flows
	for _, f := range flows {
		if err := d.alloc.Register(f.ID, f.Player.MPD().SharedLadder()); err != nil {
			return err
		}
	}
	return nil
}

// Interval implements Controller: the allocation epoch.
func (d *avisDriver) Interval() time.Duration { return avis.Window }

// OnBAI implements Controller: one allocation epoch — drain the window
// accounting, rerun the allocator, and install the GBR/MBR pairs.
func (d *avisDriver) OnBAI(time.Duration) error {
	assignments := d.alloc.RunEpoch(d.e.CollectStats(d.flows), len(d.cfg.BackgroundFlowIDs))
	for _, a := range assignments {
		if err := d.e.SetGBR(a.FlowID, a.GBRBps); err != nil {
			return err
		}
		if err := d.e.SetMBR(a.FlowID, a.MBRBps); err != nil {
			return err
		}
	}
	return nil
}

// OnFlowDeparture implements Controller: release the flow's slice share.
func (d *avisDriver) OnFlowDeparture(f *Flow) {
	d.alloc.Unregister(f.ID)
}
