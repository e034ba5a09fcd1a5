package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	// Every method must be callable on nil.
	r.Emit(Event{Kind: KindInstall, Flow: 1})
	r.SetNowTTI(func() int64 { return 42 })
	r.DumpOnError(nil)
	if err := r.Dump(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil Dump: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	if m := r.Metrics(); m.Snapshot()["events_total"] != nil {
		// Snapshot on nil metrics returns an empty map.
		t.Fatalf("nil metrics snapshot not empty")
	}

	// The disabled path must not allocate: this is the zero-cost-off
	// contract the engine's allocation pins rely on.
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(Event{
			Kind: KindClamp, Cell: 1, Flow: 3,
			Reco: 4, Level: 3, Prev: 3, Streak: 2, Need: 12,
			Bytes: 1 << 20, RBs: 900, Bps: 2.5e6,
		})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %v allocs/op, want 0", allocs)
	}
}

func TestRingWrapAndSnapshotOrder(t *testing.T) {
	r := New(Options{RingSize: 4})
	for i := 1; i <= 6; i++ {
		r.Emit(Event{Kind: KindInstall, Flow: int32(i), TTI: int64(i)})
	}
	events := r.Snapshot()
	if len(events) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(events))
	}
	for i, want := range []int32{3, 4, 5, 6} {
		if events[i].Flow != want {
			t.Fatalf("snapshot[%d].Flow = %d, want %d (oldest-first after wrap)", i, events[i].Flow, want)
		}
	}
	if got := r.Metrics().Installs.Load(); got != 6 {
		t.Fatalf("Installs = %d, want 6", got)
	}
}

func TestTTIStamping(t *testing.T) {
	r := New(Options{RingSize: 8})
	r.SetNowTTI(func() int64 { return 777 })
	r.Emit(Event{Kind: KindFlowStart, Flow: 0})
	r.Emit(Event{Kind: KindFlowStart, Flow: 1, TTI: 5}) // explicit wins
	ev := r.Snapshot()
	if ev[0].TTI != 777 || ev[1].TTI != 5 {
		t.Fatalf("TTIs = %d, %d; want 777, 5", ev[0].TTI, ev[1].TTI)
	}
	// No TTI clock: wall-clock stamping.
	r2 := New(Options{RingSize: 2})
	r2.Emit(Event{Kind: KindRetry, Flow: 0})
	if got := r2.Snapshot()[0]; got.Wall == 0 || got.TTI != 0 {
		t.Fatalf("wall-clock event = {TTI:%d Wall:%d}, want Wall set", got.TTI, got.Wall)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := New(Options{RingSize: 8, Sinks: []Sink{sink}})
	in := []Event{
		{Kind: KindBAISolve, TTI: 1000, Cell: 2, Flow: -1, Seq: 7, Need: 0, Value: 81.25, DurNs: 12345},
		{Kind: KindClamp, TTI: 1000, Cell: 2, Flow: 3, Reco: 4, Level: 3, Prev: 3, Streak: 5, Need: 20, Bytes: 999, RBs: 444, Bps: 1.5e6},
		{Kind: KindFault, TTI: 2000, Cell: 0, Flow: -1, Site: SitePoll, Outcome: 1},
		{Kind: KindFallback, TTI: 3000, Flow: 3, Reason: ReasonPolls, Streak: 3},
		{Kind: KindFastForward, TTI: 4000, Flow: -1, To: 9000},
	}
	for _, e := range in {
		r.Emit(e)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !strings.HasPrefix(buf.String(), `{"schema":"`+SchemaVersion+`"}`) {
		t.Fatalf("trace missing schema header: %q", buf.String()[:40])
	}
	out, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d round trip:\n got %+v\nwant %+v", i, out[i], in[i])
		}
	}
}

func TestReadJSONLRejectsWrongSchema(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"schema":"flare-trace/999"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema trace: err = %v, want schema error", err)
	}
}

func TestReadJSONLSkipsUnknownKinds(t *testing.T) {
	in := `{"schema":"` + SchemaVersion + `"}
{"kind":"install","tti":5,"cell":0,"flow":1}
{"kind":"from_the_future","tti":6,"cell":0,"flow":1}
{"kind":"stall_start","tti":7,"cell":0,"flow":1}
`
	out, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(out) != 2 || out[0].Kind != KindInstall || out[1].Kind != KindStallStart {
		t.Fatalf("got %+v, want install + stall_start only", out)
	}
}

func TestDumpOnError(t *testing.T) {
	var dump bytes.Buffer
	r := New(Options{RingSize: 8, ErrorDump: &dump})
	r.Emit(Event{Kind: KindInstallFail, Flow: 2, TTI: 10, Bps: 1e6, Seq: 3})
	r.DumpOnError(nil) // nil error: no dump
	if dump.Len() != 0 {
		t.Fatalf("dump on nil error wrote %d bytes", dump.Len())
	}
	r.DumpOnError(errTest)
	s := dump.String()
	if !strings.Contains(s, "flight recorder dump") || !strings.Contains(s, `"kind":"install_fail"`) {
		t.Fatalf("dump missing banner or event:\n%s", s)
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestHistogramQuantileAndPrometheus(t *testing.T) {
	var h Histogram
	for _, us := range []int64{1, 2, 4, 100, 1000, 100000} {
		h.Observe(us * 1000)
	}
	count, sum := h.CountSum()
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	if sum != (1+2+4+100+1000+100000)*1000 {
		t.Fatalf("sum = %d ns", sum)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 0.001 {
		t.Fatalf("p50 = %v s, want small", q)
	}
	if q := h.Quantile(1.0); q < 0.05 {
		t.Fatalf("p100 = %v s, want >= the 100 ms bucket", q)
	}
	var buf bytes.Buffer
	if err := h.writePrometheus(&buf, "x_seconds"); err != nil {
		t.Fatalf("writePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"# TYPE x_seconds histogram", `x_seconds_bucket{le="+Inf"} 6`, "x_seconds_count 6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsAndDebugHandlers(t *testing.T) {
	r := New(Options{RingSize: 16})
	r.SetNowTTI(func() int64 { return 1 })
	r.Emit(Event{Kind: KindBAISolve, Cell: 0, Flow: -1, DurNs: 2_000_000, Value: 3.5})
	r.Emit(Event{Kind: KindInstall, Flow: 0, Bps: 1e6, Seq: 1})
	r.Emit(Event{Kind: KindRetry, Flow: 0})

	srv := httptest.NewServer(MetricsHandler(r.Metrics()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	resp.Body.Close()
	for _, want := range []string{
		"flare_installs_total 1",
		"flare_client_retries_total 1",
		"flare_bai_solves_total 1",
		"flare_solver_latency_seconds_count 1",
	} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body.String())
		}
	}

	dsrv := httptest.NewServer(DebugHandler(r))
	defer dsrv.Close()
	dresp, err := dsrv.Client().Get(dsrv.URL + "?n=2")
	if err != nil {
		t.Fatalf("GET /debug/flare: %v", err)
	}
	defer dresp.Body.Close()
	var payload struct {
		Schema   string           `json:"schema"`
		Counters map[string]any   `json:"counters"`
		Events   []map[string]any `json:"events"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&payload); err != nil {
		t.Fatalf("decode /debug/flare: %v", err)
	}
	if payload.Schema != SchemaVersion {
		t.Fatalf("schema = %q", payload.Schema)
	}
	if len(payload.Events) != 2 {
		t.Fatalf("events = %d, want 2 (n=2 tail)", len(payload.Events))
	}
	if payload.Counters["installs_total"] != float64(1) {
		t.Fatalf("counters[installs_total] = %v", payload.Counters["installs_total"])
	}
}

// TestEnabledEmitDoesNotAllocate: a ring-only Emit allocates nothing. The
// clock reads a TTI two minutes into a run, not a small one: integers
// below 256 box into an interface for free, so a TTI of 9 would hide a
// formatting call on the stamped time.
func TestEnabledEmitDoesNotAllocate(t *testing.T) {
	r := New(Options{RingSize: 1024})
	r.SetNowTTI(func() int64 { return 120_000 })
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(Event{Kind: KindClamp, Flow: 1, Reco: 2, Level: 1, Prev: 1, Bytes: 3, RBs: 4, Bps: 5})
	})
	if allocs != 0 {
		t.Fatalf("ring-only Emit allocates %v allocs/op, want 0", allocs)
	}
}

// TestJSONLSinkEmitDoesNotAllocate: a recorder streaming to the JSONL
// sink — the in-tree Sink a traced run streams through — encodes
// into one reused buffer behind a bufio.Writer, so once the header is out
// and the buffer has grown, an Emit allocates nothing.
func TestJSONLSinkEmitDoesNotAllocate(t *testing.T) {
	r := New(Options{RingSize: 1024, Sinks: []Sink{NewJSONLSink(io.Discard)}})
	r.SetNowTTI(func() int64 { return 120_000 })
	ev := Event{Kind: KindBAISolve, Cell: 2, Flow: -1, Seq: 7, Bytes: 3 << 20, RBs: 50_000, Bps: 2.5e6, Value: -1.25, DurNs: 71_000}
	r.Emit(ev) // the schema header and the encode buffer's growth
	allocs := testing.AllocsPerRun(1000, func() { r.Emit(ev) })
	if allocs != 0 {
		t.Fatalf("Emit through the JSONL sink allocates %v allocs/op, want 0", allocs)
	}
}
