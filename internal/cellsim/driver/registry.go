package driver

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds a scheme's driver from the engine-assembled view of the
// configuration.
type Factory func(cfg Config) (Controller, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register installs a driver factory under a scheme name. It panics on
// an empty name, a nil factory, or a duplicate registration — all are
// programming errors caught at init time, exactly like image or
// database/sql registrations.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" {
		panic("driver: Register with empty scheme name")
	}
	if f == nil {
		panic(fmt.Sprintf("driver: Register(%q) with nil factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("driver: Register(%q) called twice", name))
	}
	registry[name] = f
}

// New builds the driver registered under name. Unknown names are an
// error listing what is available.
func New(name string, cfg Config) (Controller, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("driver: unknown scheme %q (registered: %v)", name, Names())
	}
	cfg.Scheme = name
	return f(cfg)
}

// Known reports whether a scheme name has a registered driver.
func Known(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
