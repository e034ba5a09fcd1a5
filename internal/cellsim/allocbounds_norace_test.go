//go:build !race

package cellsim

// The allocation pins' bounds in a plain build; allocbounds_race_test.go
// holds the -race build's. Each is the figure measured in its build
// plus the margin the pin documents.
const (
	// TestCellAssemblyAllocsPerSession, FLARE on the 200-session
	// churn cell: measured 32, no margin.
	flareAssemblyAllocs = 32
	// TestMetroCellAssemblyAllocs: measured 36, no margin.
	metroAssemblyAllocs = 36
	// TestMultiCellAllocsPerCell: measured 49.5 per cell, half an
	// object of margin.
	multiCellAllocsPerCell = 50.0
	// TestAdmissionRunAllocs: measured 723, some 10 % of margin;
	// refusals that build errors for flows waiting for a session made
	// it 4,442.
	admissionRunAllocs = 795
)
