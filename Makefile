# Build and verification entry points. `make check` is the CI gate:
# static analysis plus the full test suite under the race detector.

GO ?= go

# Pinned external tool versions. CI installs exactly these via `make
# tools`; locally, the lint/vuln targets run the tool when it is on
# PATH and skip with a notice otherwise (installing needs network).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: build test vet lint vuln fuzz-smoke tools race check results suite-quick loc bench-quick bench-selftest ledger pairs profile trace-demo clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs staticcheck when the binary is available (CI installs the
# pinned version via `make tools`; a dev container without network
# access skips it rather than failing the gate). The lock hierarchy is
# held by internal/lint's TestLockOrder, part of every `go test ./...`.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (run 'make tools' where network is available)"; \
	fi

# tools installs the pinned external analyzers (network required).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# vuln scans the module against the Go vulnerability database (network
# required; skipped gracefully when govulncheck is not installed).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (run 'make tools' where network is available)"; \
	fi

# fuzz-smoke gives each of the 16 fuzz targets a short adversarial
# budget on top of the committed seed corpora (which every plain
# `go test` run replays).
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzMCKP -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzGateApply -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzControllerOps -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzAdmission -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzExactSolverStaysFeasible -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime 10s
	$(GO) test ./internal/oneapi -run '^$$' -fuzz FuzzStatsReportDecode -fuzztime 10s
	$(GO) test ./internal/oneapi -run '^$$' -fuzz FuzzStatsResponseDecode -fuzztime 10s
	$(GO) test ./internal/oneapi -run '^$$' -fuzz FuzzAssignmentDecode -fuzztime 10s
	$(GO) test ./internal/oneapi -run '^$$' -fuzz FuzzWireEncode -fuzztime 10s
	$(GO) test ./internal/oneapi -run '^$$' -fuzz FuzzServerOps -fuzztime 10s
	$(GO) test ./internal/has -run '^$$' -fuzz FuzzTallyMatchesSlices -fuzztime 10s
	$(GO) test ./internal/has -run '^$$' -fuzz FuzzHighestAtMost -fuzztime 10s
	$(GO) test ./internal/has -run '^$$' -fuzz FuzzSegmentBytesAt -fuzztime 10s
	$(GO) test ./internal/lte -run '^$$' -fuzz FuzzLazyAging -fuzztime 10s

race:
	$(GO) test -race ./...

# check is the full verification gate: build, lint
# (staticcheck-if-present), vet, then race-enabled tests. Under -race an
# allocation pin counts a few objects more (the four-cell multi-cell run
# 52.5 per cell against 49.5), so each pin's bound is set per build in
# a build-tagged pair of files (allocbounds_race_test.go and
# allocbounds_norace_test.go): this run checks the -race figures and a
# plain `go test ./...` the plain ones, each to the pin's own margin.
check: build lint vet race

# bench-quick runs every benchmark exactly once — a smoke pass proving
# the bench harness builds and executes, not a timing measurement.
bench-quick:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-selftest runs the perf ledger's own checks. bench/ is a module
# of its own (BENCHMARK.json's command is `go run -C bench .`), so the
# root module's ./... patterns — and therefore `make check` — never
# reach it; this target is the only thing that vets and tests it.
# internal/lint's TestObsDiscipline scans bench/'s sources too.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# ledger is the perf ledger's correctness gate: every workload once at
# seed 1 and 15 s (BENCHMARK.json's command), failing on any incorrect
# run or on any digest that drifts from bench/baseline.json. Wall-clock
# metrics are recorded in bench/out/results.json, not gated.
ledger:
	$(GO) run -C bench . -repeats 1
	! grep -q sim_digest_changed bench/out/results.json

# pairs compares one ledger workload at BASE and at HEAD (committed
# trees only) in N alternating pairs of runs: both medians, BASE's
# interquartile range and the pairs HEAD won, per end-to-end metric —
# the evidence a claimed gain needs. The revisions are built in
# temporary git worktrees, removed afterwards.
#   make pairs W=cell_churn BASE=HEAD~1 N=10
N ?= 10
pairs:
	@test -n "$(W)" -a -n "$(BASE)" || { echo "usage: make pairs W=<workload> BASE=<rev> [N=10]"; exit 2; }
	$(GO) run ./cmd/benchpairs -workload $(W) -base $(BASE) -n $(N)

# profile runs the engine benchmark with pprof output (cpu.prof,
# mem.prof) for `go tool pprof`, then the four-cell metro_shared run
# (BenchmarkMultiCellRun) into multi-mem.prof, then cellsim.New on the
# 200-session churn cell (BenchmarkCellAssemble) into assemble-cpu.prof,
# then metro_shared's set-up sample, sixteen metro cells through
# NewInCell (BenchmarkMetroCellAssemble), into metro-assemble-cpu.prof
# (its runtime.GC between ops is in the profile: read it with
# `-focus NewInCell`).
# The memory profiles sample every allocation, so `go tool pprof
# -sample_index=alloc_objects mem.prof` counts a run's allocations site
# by site.
profile:
	$(GO) test -run '^$$' -bench BenchmarkEngineTick -benchtime 10x \
		-cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 1 .
	$(GO) test -run '^$$' -bench '^BenchmarkMultiCellRun$$' -benchtime 1x \
		-memprofile multi-mem.prof -memprofilerate 1 .
	$(GO) test -run '^$$' -bench '^BenchmarkCellAssemble$$' -benchtime 20000x \
		-cpuprofile assemble-cpu.prof .
	$(GO) test -run '^$$' -bench '^BenchmarkMetroCellAssemble$$' -benchtime 5000x \
		-cpuprofile metro-assemble-cpu.prof .

# trace-demo records a faulted run (the ext-faults blackout shape) with
# telemetry on, then replays its decision narrative — solver summaries,
# fallback causal chains, stall annotations — through flaretrace.
trace-demo:
	$(GO) run ./cmd/flaresim -duration 120s -videos 4 \
		-ctrl-blackout 40s-80s -trace trace-demo.jsonl
	$(GO) run ./cmd/flaretrace trace-demo.jsonl

# PAPER_SPECS are the flaresuite report specs: the paper's tables and
# figures plus the four extensions, in paper order.
PAPER_SPECS = table1,table2,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,ext-coexist,ext-abr,ext-faults,ext-saturation

# results regenerates results/ at full (paper) scale: results/<id>/<id>.txt
# and .csv per report spec, plus summary.json recording the build, scale,
# duration factor and run count. It builds the binary rather than using
# `go run`, whose builds carry no VCS stamp (their version reads
# "devel"). It exits non-zero when any spec's acceptance clauses fail;
# the files are written either way.
results:
	$(GO) build -o flaresuite ./cmd/flaresuite
	./flaresuite run -scale full -scenario $(PAPER_SPECS) -out results

# suite-quick runs every spec at quick scale through the flaresuite CLI,
# the scenario matrix expanded, writing per-scenario traces/reports plus
# summary.json under suite-out/.
suite-quick:
	$(GO) run ./cmd/flaresuite run -matrix -scale quick -out suite-out

# loc prints the non-test Go line count ROADMAP item 1's deletion PRs
# are gated on (bench/ is its own module and moves only under a ledger
# PR; testdata is test fixtures).
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:bench/*' ':!:*/testdata/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
