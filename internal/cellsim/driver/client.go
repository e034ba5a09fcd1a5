package driver

import (
	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/has"
)

// clientDriver runs the client-only ABR family: no network control
// plane, no scheduler demands — each flow's adapter picks bitrates from
// its own measurements. One implementation serves every client scheme;
// the adapter constructor is the only varying part.
type clientDriver struct {
	Base
	cfg        Config
	newAdapter func(cfg *Config) has.Adapter
}

var _ Controller = (*clientDriver)(nil)

// NewFESTIVE builds the FESTIVE client baseline's driver.
func NewFESTIVE(cfg Config) Controller {
	return &clientDriver{cfg: cfg, newAdapter: func(cfg *Config) has.Adapter {
		return abr.NewFestive(cfg.RNG)
	}}
}

// NewGOOGLE builds the GOOGLE client baseline's driver.
func NewGOOGLE(cfg Config) Controller {
	return &clientDriver{cfg: cfg, newAdapter: func(*Config) has.Adapter {
		return abr.NewGoogle()
	}}
}

// NewBBA builds the buffer-based adaptation baseline's driver.
func NewBBA(cfg Config) Controller {
	return &clientDriver{cfg: cfg, newAdapter: func(*Config) has.Adapter {
		return abr.NewBBA()
	}}
}

// NewMPC builds the model-predictive-control baseline's driver.
func NewMPC(cfg Config) Controller {
	return &clientDriver{cfg: cfg, newAdapter: func(cfg *Config) has.Adapter {
		mcfg := abr.DefaultMPCConfig()
		mcfg.SegmentSeconds = cfg.SegmentSeconds
		return abr.NewMPC(mcfg)
	}}
}

// NewAdapter implements Controller.
func (d *clientDriver) NewAdapter(int) (has.Adapter, error) {
	return d.newAdapter(&d.cfg), nil
}
