package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzReadJSONL feeds arbitrary byte streams to the trace reader and
// checks its safety contract: it never panics, an error always comes
// with a nil event slice, accepted events always carry a known kind,
// parsing is pure (same bytes, same result), and every accepted event
// survives an AppendJSON -> ReadJSONL round trip unchanged — the
// property that makes flaretrace's offline analysis trustworthy.
func FuzzReadJSONL(f *testing.F) {
	// A well-formed trace: header plus a few real events.
	var trace bytes.Buffer
	trace.WriteString(`{"schema":"` + SchemaVersion + `","fields":"doc"}` + "\n")
	for _, e := range []Event{
		BAISolve(0, 1, 3, 500_000, 41.25, 12_345),
		Clamp(0, 7, 1, 4, 3, 2, 1, 2, 1_000_000, 40_000, 2.5e6),
		Fault(1, SiteStats, 2),
		Fallback(0, 7, ReasonPolls, 3),
	} {
		line := e.AppendJSON(nil)
		trace.Write(line)
		trace.WriteByte('\n')
	}
	f.Add(trace.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"kind":"install","cell":0,"flow":1,"level":3,"bps":1e6}`))
	f.Add([]byte(`{"schema":"flare-trace/999"}`))
	f.Add([]byte(`{"kind":"no-such-kind","cell":0,"flow":0}`))
	f.Add([]byte(`{"kind":`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"kind":"clamp","bps":"NaN"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if evs != nil {
				t.Fatalf("error %v returned alongside %d events", err, len(evs))
			}
			return
		}
		for i, e := range evs {
			if e.Kind == KindNone || e.Kind.String() == "" {
				t.Fatalf("accepted event %d has unknown kind %d", i, e.Kind)
			}
		}

		// Purity: a second pass over the same bytes is identical.
		again, err2 := ReadJSONL(bytes.NewReader(data))
		if err2 != nil || len(again) != len(evs) {
			t.Fatalf("re-read diverged: %d events err=%v vs %d events", len(again), err2, len(evs))
		}
		for i := range evs {
			if !sameEvent(evs[i], again[i]) {
				t.Fatalf("re-read event %d differs: %+v vs %+v", i, evs[i], again[i])
			}
		}

		// Round trip: re-encode what was accepted, read it back.
		var buf bytes.Buffer
		var scratch []byte
		for i := range evs {
			scratch = evs[i].AppendJSON(scratch[:0])
			buf.Write(scratch)
			buf.WriteByte('\n')
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("round trip %d events, want %d", len(back), len(evs))
		}
		for i := range evs {
			if !sameEvent(back[i], evs[i]) {
				t.Fatalf("round trip event %d: %+v != %+v", i, back[i], evs[i])
			}
		}
	})
}

// TestReadJSONLRejectsForeignSchema pins the header rule outside the
// fuzzer: a different major schema version is an error, a version-1
// trace and a headerless stream are accepted.
func TestReadJSONLRejectsForeignSchema(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewReader([]byte(`{"schema":"flare-trace/999"}`))); err == nil {
		t.Fatal("foreign schema accepted")
	}
	v1 := `{"schema":"flare-trace/1"}` + "\n" + `{"kind":"install","cell":0,"flow":1,"bps":1e6}`
	if evs, err := ReadJSONL(bytes.NewReader([]byte(v1))); err != nil || len(evs) != 1 || evs[0].Bps != 1e6 {
		t.Fatalf("version-1 trace: %+v, err=%v", evs, err)
	}
	evs, err := ReadJSONL(bytes.NewReader([]byte(`{"kind":"install","cell":0,"flow":1}`)))
	if err != nil || len(evs) != 1 {
		t.Fatalf("headerless stream: %d events, err=%v", len(evs), err)
	}
}

// TestNonFiniteFloatIsJSON pins the schema's encoding of a non-finite
// float: an infeasible solve's -Inf objective is the JSON string "-Inf".
func TestNonFiniteFloatIsJSON(t *testing.T) {
	e := BAISolve(0, 1, 0, 500, math.Inf(-1), 10)
	line := e.AppendJSON(nil)
	if !json.Valid(line) || !bytes.Contains(line, []byte(`"value":"-Inf"`)) {
		t.Fatalf("infeasible solve encodes as %s", line)
	}
}
