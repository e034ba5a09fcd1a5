package oneapi

import "sync"

// PCRF is the policy-and-charging-rules stand-in: the network function
// that "manages and monitors all flows in the network" and tells the
// OneAPI server how many non-video flows share each cell.
type PCRF struct {
	mu    sync.Mutex
	cells map[int]map[int]struct{} // cell -> data flow IDs
}

// NewPCRF creates an empty flow registry.
func NewPCRF() *PCRF {
	return &PCRF{cells: make(map[int]map[int]struct{})}
}

// RegisterDataFlow records a non-video flow in a cell.
func (p *PCRF) RegisterDataFlow(cellID, flowID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.cells[cellID]
	if !ok {
		c = make(map[int]struct{})
		p.cells[cellID] = c
	}
	c[flowID] = struct{}{}
}

// UnregisterDataFlow removes a departed data flow. A cell whose last
// data flow departs is dropped, so the registry holds only cells with
// data flows.
func (p *PCRF) UnregisterDataFlow(cellID, flowID int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.cells[cellID]
	delete(c, flowID)
	if len(c) == 0 {
		delete(p.cells, cellID)
	}
}

// NumDataFlows returns the live data-flow count for a cell.
func (p *PCRF) NumDataFlows(cellID int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cells[cellID])
}
