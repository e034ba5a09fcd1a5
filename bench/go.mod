module github.com/flare-sim/flare/bench

go 1.22

require github.com/flare-sim/flare v0.0.0

replace github.com/flare-sim/flare => ../
