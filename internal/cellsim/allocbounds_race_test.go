//go:build race

package cellsim

// The allocation pins' bounds in a -race build, which counts a few
// objects more than a plain one; allocbounds_norace_test.go holds the
// plain build's. Each is the figure measured in its build plus the
// margin the pin documents.
const (
	// TestCellAssemblyAllocsPerSession, FLARE on the 200-session
	// churn cell: measured 33, no margin.
	flareAssemblyAllocs = 33
	// TestMetroCellAssemblyAllocs: measured 37, no margin.
	metroAssemblyAllocs = 37
	// TestMultiCellAllocsPerCell: measured 52.5 per cell, half an
	// object of margin.
	multiCellAllocsPerCell = 53.0
	// TestAdmissionRunAllocs: measured 1,022, some 10 % of margin;
	// refusals that build errors for flows waiting for a session made
	// it 6,943 to 7,053.
	admissionRunAllocs = 1125
)
