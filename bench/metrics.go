package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what someone running FLARE sees, as far as this machine
// can hold it steady. Every workload reports every one of them
// (BENCHMARK.json repeats this table; a test keeps the two in step).
// What each means on a simulator workload and on a control-plane
// workload is spelled out in README.md.
//
// No bound is above 10 % except setup_s's, which the benchmark contract
// exempts from the spread rule and asks to carry the largest bound. By
// the issue's rule a metric that cannot hold 10 % is demoted, not
// widened: on the shared 2-vCPU virtual machine the baseline was taken
// on, a fixed spin loop's own time has an interquartile spread of 5–8 %
// between runs, so every wall-clock figure (sim_simsec_per_s,
// bai_rtt_p50_ms and the rest) is a per-layer metric under its own
// name. What stays bounded is what a run reproduces: set-up, memory,
// allocations and the decisions themselves.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"sim_allocs_per_simsec", "count", "lower", 0.02},
	{"qoe_mean_kbps", "kbps", "higher", 0.05},
	{"qoe_jain", "ratio", "higher", 0.10},
}

// perLayer is the traced run's output: isolated per-op costs of each
// module measured through its exported API at the workload's own
// population shape, figures derived from the traced run, and the
// end-to-end metrics of the issue that do not apply to every workload
// or cannot hold a 10 % bound on this machine (kept under their own
// names, 0 where a workload does not exercise them).
var perLayer = []metricDef{
	{Name: "lte.tti_ns.all_active", Unit: "ns", Better: "lower"},
	{Name: "lte.tti_allocs", Unit: "count", Better: "lower"},
	{Name: "lte.tti_ns.sparse", Unit: "ns", Better: "lower"},
	{Name: "lte.ff_ns_per_jump", Unit: "ns", Better: "lower"},
	{Name: "lte.channel_update_ns_per_ue", Unit: "ns", Better: "lower"},
	{Name: "transport.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.eventq_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.pool_dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "core.solve_exact_ns", Unit: "ns", Better: "lower"},
	{Name: "core.solve_relaxed_ns", Unit: "ns", Better: "lower"},
	{Name: "core.runbai_ns", Unit: "ns", Better: "lower"},
	{Name: "core.runbai_allocs", Unit: "count", Better: "lower"},
	{Name: "core.solve_share", Unit: "ratio", Better: "lower"},
	{Name: "oneapi.round_self_ns", Unit: "ns", Better: "lower"},
	{Name: "oneapi.handler_self_ns", Unit: "ns", Better: "lower"},
	{Name: "oneapi.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "oneapi.stats_req_bytes", Unit: "B", Better: "lower"},
	{Name: "oneapi.stats_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "oneapi.wire_self_ns", Unit: "ns", Better: "lower"},
	{Name: "oneapi.poll_inproc_ns", Unit: "ns", Better: "lower"},
	{Name: "oneapi.open_inproc_ns", Unit: "ns", Better: "lower"},
	{Name: "oneapi.close_inproc_ns", Unit: "ns", Better: "lower"},
	{Name: "oneapi.handover_inproc_ns", Unit: "ns", Better: "lower"},
	{Name: "oneapi.handover_wire_ms", Unit: "ms", Better: "lower"},
	{Name: "oneapi.bytes_per_session", Unit: "B", Better: "lower"},
	{Name: "oneapi.client_retries", Unit: "count", Better: "lower"},
	{Name: "oneapi.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "cellsim.multi_speedup", Unit: "ratio", Better: "higher"},
	{Name: "cellsim.ns_per_flow_tti", Unit: "ns", Better: "lower"},
	{Name: "cellsim.setup_ns", Unit: "ns", Better: "lower"},
	{Name: "cellsim.ff_jumps_per_simsec", Unit: "1/s", Better: "higher"},
	{Name: "cellsim.ff_skipped_share", Unit: "ratio", Better: "higher"},
	{Name: "cellsim.ff_speedup", Unit: "ratio", Better: "higher"},
	{Name: "cellsim.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.recording_tax_pct", Unit: "%", Better: "lower"},
	{Name: "obs.events_per_simsec", Unit: "1/s", Better: "lower"},
	{Name: "oneapiserver.cpu_s_per_kround", Unit: "s", Better: "lower"},
	{Name: "oneapiserver.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "driver.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "build_s", Unit: "s", Better: "lower"},
	{Name: "env.calibration_ns", Unit: "ns", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "sim_simsec_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bai_rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bai_rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "qoe_stall_s", Unit: "s", Better: "lower"},
	{Name: "qoe_switches_per_min", Unit: "1/min", Better: "lower"},
	{Name: "bai_rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "poll_rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "session_opens_per_s", Unit: "1/s", Better: "higher"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output: the contract with
// whatever runs the benchmark.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is everything one run of one workload measured; the full
// runs collect these into a results file that -compare reads.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Flags     []string           `json:"flags,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Values    map[string]float64 `json:"values"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
	CalBefore float64            `json:"calibration_before_ns"`
	CalAfter  float64            `json:"calibration_after_ns"`
	Layers    []layerTime        `json:"trace_layers,omitempty"`
}

func newRunResult(workload string, seed uint64, seconds float64, traced bool) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Correct: true,
		Values: make(map[string]float64), Samples: make(map[string]int), Digests: make(map[string]string),
	}
}

// problem records a failed correctness check.
func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runResult) flag(name string) {
	for _, f := range r.Flags {
		if f == name {
			return
		}
	}
	r.Flags = append(r.Flags, name)
}

// line selects the metrics the contract asks for in this mode; a
// metric the run did not produce reads 0.
func (r *runResult) line() driverLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: r.Values[d.Name], Unit: d.Unit}
	}
	return out
}

// print writes the human-readable view: every metric the run produced,
// by name with its unit, then the checks.
func (r *runResult) print() {
	units := make(map[string]string)
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.Values))
	for n := range r.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d traced=%v\n", r.Workload, r.Seed, r.Traced)
	for _, n := range names {
		extra := ""
		if c, ok := r.Samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-32s %14.6g %-6s%s\n", n, r.Values[n], units[n], extra)
	}
	for _, lt := range r.Layers {
		fmt.Printf("  trace %-12s %-30s spans=%-7d total=%10.3fms self=%10.3fms self/span=%9.0fns\n",
			lt.Layer, lt.Name, lt.Spans, float64(lt.TotalNs)/1e6, float64(lt.SelfNs)/1e6, float64(lt.SelfNs)/float64(lt.Spans))
	}
	keys := make([]string, 0, len(r.Digests))
	for k := range r.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  digest %-12s %s\n", k, r.Digests[k])
	}
	fmt.Printf("  calibration before=%.0fns after=%.0fns flags=%v\n", r.CalBefore, r.CalAfter, r.Flags)
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// resultsFile is what a full run writes and -compare reads.
type resultsFile struct {
	Env       envBlock     `json:"env"`
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	EndToEnd  []metricDef  `json:"end_to_end"`
	PerLayer  []metricDef  `json:"per_layer"`
	Workloads []string     `json:"workloads"`
	Runs      []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
