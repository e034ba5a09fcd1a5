// Command bench is the repository's performance ledger: five named
// workloads, end-to-end metrics with fixed regression bounds, per-layer
// metrics, and a separate traced run. It measures cellsim, lte,
// transport, sim, core, oneapi and obs only from outside — by timing
// calls into their exported functions — and drives the real
// oneapiserver binary over loopback HTTP.
//
//	go run -C bench .                      every workload, -repeats times each, tracing off
//	go run -C bench . -trace               one traced run per workload: per-layer metrics, spans in bench/out/
//	go run -C bench . -compare a.json b.json
//	go run -C bench . --workload cell_busy --seed 1 --seconds 15 --trace 0
//
// The last form is one run of one workload in this process; its last
// line of output is the JSON object BENCHMARK.json's contract asks for.
// README.md explains the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	repeats  int
	out      string
	detail   string
	compare  bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeArgs lets -trace stand alone (the traced full run) while
// still accepting the contract's "--trace 0" and "--trace 1".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process and end with the contract's JSON line")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of one run's timed region")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and spans, tracing overhead stated")
	fs.IntVar(&o.repeats, "repeats", 5, "full run: runs per workload, seeds seed..seed+repeats-1")
	fs.StringVar(&o.out, "out", "", "full run: results file (default bench/out/results.json)")
	fs.StringVar(&o.detail, "detail", "", "single run: also write the full result to this file")
	fs.BoolVar(&o.compare, "compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	o.trace = trace != 0

	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	// Refuse to start with more driver connections than processors: the
	// generator would be measuring itself.
	for _, w := range workloads(1, runtime.NumCPU()) {
		if w.Plane == nil {
			continue
		}
		if _, err := driverConns(w.Plane, runtime.NumCPU()); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 2
		}
	}
	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if o.workload != "" {
		return runSingle(root, o)
	}
	return runFull(root, o)
}

// findWorkload looks a workload up by name. The command line always
// passes scale 1; the tests run a small fraction.
func findWorkload(name string, scale float64) (workload, bool) {
	for _, w := range workloads(scale, runtime.NumCPU()) {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runSingle is one run of one workload in this (fresh) process.
func runSingle(root string, o options) int {
	w, ok := findWorkload(o.workload, 1)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runOne(root, w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	checkStoredDigests(root, res)
	res.print()
	if o.detail != "" {
		if err := writeJSON(o.detail, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line := res.line()
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s is not a number\n", name)
			return 1
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runOne measures one workload, bracketed by the calibration loop.
func runOne(root string, w workload, o options) (*runResult, error) {
	res := newRunResult(w.Name, o.seed, o.seconds, o.trace)
	res.CalBefore = calibrate()
	var err error
	switch {
	case o.trace:
		err = traceRun(root, w, o, res)
	case w.Sim != nil:
		_, err = runSim(w, o.seed, o.seconds, nil, res)
	default:
		_, err = runPlane(root, w, o.seed, o.seconds, setupCycles, nil, res)
	}
	if err != nil {
		return nil, err
	}
	res.CalAfter = calibrate()
	res.Values["env.calibration_ns"] = res.CalAfter
	if math.Abs(res.CalAfter-res.CalBefore) > 0.10*res.CalBefore {
		res.flag("noisy")
	}
	return res, nil
}

// baselinePath is the committed results file of the reference machine:
// the baseline -compare is usually pointed at, and the store of digests
// a run at the same workload and seed is checked against.
func baselinePath(root string) string { return filepath.Join(root, "bench", "baseline.json") }

// checkStoredDigests flags a run whose digests differ from the
// baseline's for the same workload and seed. That is a flag, not a
// failure: the simulation's decisions changed, which a behaviour change
// does on purpose and a pure speed-up must not.
func checkStoredDigests(root string, res *runResult) {
	if res.Traced {
		return // a traced run's passes are shorter, so it verifies fewer rounds
	}
	base, err := readResults(baselinePath(root))
	if err != nil {
		return
	}
	for _, r := range base.Runs {
		if r.Workload != res.Workload || r.Seed != res.Seed || r.Seconds != res.Seconds {
			continue
		}
		for k, d := range r.Digests {
			if cur, ok := res.Digests[k]; ok && cur != d {
				res.flag("sim_digest_changed")
			}
		}
		return
	}
}

// runFull runs every workload o.repeats times, each run in a
// fresh child process, then prints the per-metric summary and writes
// the results file.
func runFull(root string, o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	rf := &resultsFile{Env: readEnv(root), Seed: o.seed, Seconds: o.seconds, EndToEnd: endToEnd, PerLayer: perLayer}
	fmt.Printf("env: %+v\n", rf.Env)
	repeats := o.repeats
	if o.trace {
		repeats = 1
	}
	status := 0
	for _, w := range workloads(1, runtime.NumCPU()) {
		rf.Workloads = append(rf.Workloads, w.Name)
		for i := 0; i < repeats; i++ {
			detail := filepath.Join(outDir(root), fmt.Sprintf("%s.%d.json", w.Name, i))
			traceArg := "0"
			if o.trace {
				traceArg = "1"
			}
			cmd := exec.Command(exe,
				"--workload", w.Name, "--seed", fmt.Sprint(o.seed+uint64(i)),
				"--seconds", fmt.Sprint(o.seconds), "--trace", traceArg, "--detail", detail)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.Name, i, err)
				status = 1
				continue
			}
			var res runResult
			b, err := os.ReadFile(detail)
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.Name, i, err)
				status = 1
				continue
			}
			os.Remove(detail)
			if !res.Correct {
				status = 1
			}
			rf.Runs = append(rf.Runs, &res)
		}
	}
	printSummary(rf)
	out := o.out
	if out == "" {
		name := "results.json"
		if o.trace {
			name = "results.trace.json"
		}
		out = filepath.Join(outDir(root), name)
	}
	if err := writeJSON(out, rf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s\n", out)
	return status
}
