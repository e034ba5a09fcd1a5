package cellsim

// LedgerChurnConfig is churnConfig for the package's external tests.
var LedgerChurnConfig = churnConfig
