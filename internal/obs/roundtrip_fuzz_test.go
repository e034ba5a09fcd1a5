package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// sameEvent is event equality with a NaN field equal to a NaN field:
// the trace keeps a float's value, and NaN is one value to a reader.
func sameEvent(a, b Event) bool {
	sameFloat := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	if !sameFloat(a.Bps, b.Bps) || !sameFloat(a.Value, b.Value) {
		return false
	}
	a.Bps, a.Value, b.Bps, b.Value = 0, 0, 0, 0
	return a == b
}

// FuzzTraceRoundTrip takes arbitrary field values through every typed
// constructor, Recorder.Emit, the JSONL sink and ReadJSONL, and
// requires each event back unchanged — NaN, ±Inf and the integer
// extremes included. An event has no free-form string field (kind, site
// and reason are enums), so the fuzzed string goes where a newer
// writer's strings would: the kind of a record this build does not
// know, spliced into the stream after the first event. It may hold
// control bytes or invalid UTF-8; the reader must skip the record and
// return every event around it.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(int64(7), int32(0), int32(3), int64(12), int32(2), int32(1), int32(4),
		int64(1_000_000), int64(40_000), 2.5e6, 41.25, int64(12_345), uint8(0x21), "newer_kind")
	f.Add(int64(0), int32(-1), int32(-1), int64(0), int32(0), int32(0), int32(0),
		int64(0), int64(0), math.Inf(-1), math.Inf(1), int64(0), uint8(0), "")
	f.Add(int64(math.MaxInt64), int32(math.MaxInt32), int32(math.MinInt32), int64(math.MinInt64),
		int32(math.MinInt32), int32(math.MaxInt32), int32(-1),
		int64(math.MaxInt64), int64(math.MinInt64), math.NaN(), -math.MaxFloat64, int64(math.MinInt64),
		uint8(0xff), "\x00\x1f\"\\\n")
	f.Add(int64(1), int32(1), int32(1), int64(1), int32(1), int32(1), int32(1),
		int64(1), int64(1), math.SmallestNonzeroFloat64, math.Copysign(0, -1), int64(1), uint8(0x12), "\xff\xfe\xc3")
	f.Fuzz(func(t *testing.T, now int64, cell, flow int32, seq int64, a, b, c int32,
		n1, n2 int64, x, y float64, dur int64, enums uint8, s string) {
		site := Site(enums % 4)
		reason := Reason(enums >> 2 % 3)
		outcome := enums >> 4
		want := []Event{
			BAISolve(cell, seq, a, n1, x, dur),
			Clamp(cell, flow, seq, a, b, c, a^b, b^c, n1, n2, y),
			Install(cell, flow, seq, a, x),
			InstallFail(cell, flow, seq, b, y),
			SessionOpen(cell, flow),
			SessionClose(cell, flow),
			StaleReport(cell, seq),
			ReportLost(cell),
			PollLost(cell, flow),
			Deliver(cell, flow, seq, c, x),
			Fallback(cell, flow, reason, a),
			Recovery(cell, flow, b),
			FlowStart(cell, flow),
			FlowDepart(cell, flow),
			StallStart(cell, flow),
			StallEnd(cell, flow),
			Fault(cell, site, outcome),
			FastForward(cell, n1, n2),
			Retry(cell, flow, seq),
			Reopen(cell, flow),
			ClientFail(cell, flow),
			Admit(cell, flow, a&1 == 0),
			Reject(cell, flow, b&1 == 0),
			QueuePromote(cell, flow, c),
			Downgrade(cell, seq, a, x),
			Restore(cell, seq, b, y),
			Handover(cell, a, flow),
		}

		var out bytes.Buffer
		rec := New(Options{RingSize: -1, Sinks: []Sink{NewJSONLSink(&out)}, NowTTI: func() int64 { return now }})
		for i := range want {
			rec.Emit(want[i])
			if want[i].TTI == 0 && want[i].Wall == 0 {
				want[i].TTI = now // what Emit stamps
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}

		kind, err := json.Marshal("x-" + s) // never a kind this build knows
		if err != nil {
			t.Fatal(err)
		}
		trace := out.Bytes()
		cut := bytes.IndexByte(trace, '\n') + 1       // the header
		cut += bytes.IndexByte(trace[cut:], '\n') + 1 // the first event
		foreign := append(append([]byte(`{"kind":`), kind...), `,"cell":1,"flow":2}`+"\n"...)
		spliced := append(append(append([]byte(nil), trace[:cut]...), foreign...), trace[cut:]...)

		got, err := ReadJSONL(bytes.NewReader(spliced))
		if err != nil {
			t.Fatalf("trace rejected: %v\n%s", err, spliced)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d events, wrote %d\n%s", len(got), len(want), spliced)
		}
		for i := range want {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("event %d (%s) came back changed:\nwrote %+v\nread  %+v", i, want[i].Kind, want[i], got[i])
			}
		}
	})
}
