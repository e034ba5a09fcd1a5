package oneapi

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/flare-sim/flare/internal/core"
)

// Differential tests of the hand-written wire codecs (messages.go,
// jsonwire.go) against encoding/json, which survives for the hot
// messages only as this oracle: a decoder must accept exactly the
// documents json.Unmarshal accepts and store exactly the value it
// stores; an encoder must emit exactly json.Marshal's bytes and fail
// exactly when it fails.

// shapeReport is a statistics report the size of a bench/ plane shape:
// plane_small is 8 sessions on a 6-rung ladder, plane_dense 128 on 12.
func shapeReport(sessions int) StatsReport {
	flows := make(map[int]core.FlowStats, sessions)
	for f := 0; f < sessions; f++ {
		flows[f] = core.FlowStats{Bytes: int64(150_000 + 977*f), RBs: int64(9_000 + 31*f)}
	}
	flows[sessions-1] = core.FlowStats{Bytes: 1, RBs: 2, BytesPerRBHint: 21.25}
	return StatsReport{Flows: flows, NumDataFlows: 2, Seq: int64(sessions)}
}

// shapeResponse is the reply to shapeReport on a ladder of rungs rungs.
func shapeResponse(sessions, rungs int) StatsResponse {
	resp := StatsResponse{BAISeq: 41}
	for f := 0; f < sessions; f++ {
		level := f % rungs
		resp.Assignments = append(resp.Assignments,
			core.Assignment{FlowID: f, Level: level, RateBps: 200_000 * math.Pow(1.28, float64(level))})
	}
	return resp
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// trickyDocuments are the corners of json.Unmarshal's behaviour the
// decoders must reproduce; every decode target is seeded with all of
// them, whatever message they were written for.
var trickyDocuments = []string{
	``, ` `, `null`, ` null `, `{}`, `[]`, `7`, `"x"`, `true`, `{} x`, `{}{}`, `{"a":1,}`, `{,}`, `[1,]`, `nul`, `{"flows"}`,
	// duplicate members merge into the struct, and a repeated map key replaces the entry
	`{"flows":{"1":{"bytes":1}},"flows":{"2":{"rbs":2},"1":{"rbs":3}}}`,
	`{"flows":{"1":{"bytes":1,"bytes":2}},"seq":1,"seq":2,"seq":null}`,
	// null clears maps and slices, leaves scalars and structs alone
	`{"flows":{"1":{"bytes":1}},"flows":null}`,
	`{"flows":{"1":null,"2":{"bytes":null,"rbs":4}},"num_data_flows":null}`,
	`{"flows":{}}`, `{"flows":{},"flows":null,"flows":{}}`,
	// keys: escaped, case-folded (Kelvin sign and long s included), unknown, non-integer
	`{"flows":{"1":{"BYTES":1,"Rbs":2,"rbſ":3,"bytes_per_rb_hint":1e-7}}}`,
	"{\"FLOWS\":{\"7\":{\"rbſ\":5}},\"K\":1,\"Seq\":3,\"ſeq\":4}",
	`{"fl\u006fws":{"1":{"r\u0062s":2}},"s\u0065q":3}`, `{"\u0046LOWS":{"\u0031":{"BYTE\u0053":1}},"\u017feq":5}`,
	`{"flow\u005fid":4,"cell\u005Fseq":5,"r\u0061te_bps":1.5}`, `{"assignments":[{"flow\u005fid":1,"r\u0061te_bps":2}],"bai\u005fseq":3}`,
	`{"se\ud800q":1,"\ud83d\ude00":2,"s\"eq":3,"s\/eq":4,"seq\u0000":5,"\u0073eq":6}`, "{\"seq\xff\":2,\"fl\u00f6ws\":{},\"\\u0066lows\":null}",
	`{"flows":{"+1":{},"-0":{},"007":{}}}`, `{"flows":{"1.0":{}}}`, `{"flows":{"":{}}}`, `{"flows":{" 1":{}}}`,
	`{"flows":{"9223372036854775807":{},"-9223372036854775808":{}}}`, `{"flows":{"9223372036854775808":{}}}`,
	`{"unknown":[{"deep":[1,2,{"x":"}]"}]}],"seq":9,"more":"\"\\"}`,
	"{\"flows\":{\"1\":{}},\"bad\xffkey\":1,\"reason\":\"\xff\"}",
	// numbers: exponents and fractions into ints, range, float syntax
	`{"seq":1e3}`, `{"seq":1.0}`, `{"seq":-0}`, `{"seq":9223372036854775808}`, `{"seq":-9223372036854775808}`,
	`{"num_data_flows":-1}`, `{"num_data_flows":"1"}`, `{"num_data_flows":true}`, `{"num_data_flows":[1]}`, `{"seq":01}`, `{"seq":+1}`, `{"seq":.5}`, `{"seq":1.}`, `{"seq":1e}`,
	`{"flows":{"1":{"bytes_per_rb_hint":1e400}}}`, `{"flows":{"1":{"bytes_per_rb_hint":-0.0}}}`, `{"flows":{"1":{"bytes_per_rb_hint":5e-324}}}`,
	`{"flows":{"1":{"bytes_per_rb_hint":1E+2}}}`, `{"flows":{"1":{"bytes_per_rb_hint":"1"}}}`, `{"rate_bps":1e21,"level":2.5}`,
	// wrong kinds
	`{"flows":[]}`, `{"flows":3}`, `{"flows":"x"}`, `{"flows":{"1":[]}}`, `{"flows":{"1":7}}`, `{"assignments":{}}`, `{"assignments":[7]}`,
	// slices: null, empty, merge into what an earlier member left, stale tail
	`{"assignments":null}`, `{"assignments":[]}`, `{"assignments":[{"flow_id":1,"level":2}],"assignments":[{"level":3}]}`,
	`{"assignments":[{"flow_id":1},{"flow_id":2},{"flow_id":3}],"assignments":[{}],"assignments":[{},{},{},{}]}`,
	`{"assignments":[{"flow_id":1}],"assignments":[]}`, `{"assignments":[{"flow_id":1}],"assignments":null,"assignments":[{}]}`,
	`{"assignments":[null,{"flow_id":2},null]}`,
	// string values are only ever skipped: no hot message holds one
	`{"failed":"x"}`, `{"failed":[{"flow_id":2,"reason":"a<b 😀 \ud83d \udc00 \ud83dx \n\t\"\\\/"}],"bai_seq":3}`,
	`{"failed":[{"reason":null},{"reason":7}]}`, `{"failed":[{"reason":"é "}]}`, `{"failed":[{"reason":"bad \x escape"}]}`, `{"failed":[{"reason":"\u12"}]}`,
	"{\"failed\":[{\"reason\":\"ctl\x01\"}]}", "{\"failed\":[{\"reason\":\"tab\t\"}]}",
	// poll
	`{"flow_id":3,"rate_bps":1500000,"level":3,"bai_seq":2,"cell_seq":2}`, `{"FLOW_ID":3,"Rate_Bps":1.5e6,"cell_seq":null}`, `{"flow_id":3}   garbage`,
	"\t{\r\n \"flow_id\" : 3 , \"level\" :\n4 }\n",
}

// nested is a document with depth arrays inside its one object.
func nested(depth int) string {
	return `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
}

// TestDepthLimitMatchesJSON is kept out of the fuzz seeds (20 KB
// documents slow the mutator): the last depth json accepts and the
// first it refuses.
func TestDepthLimitMatchesJSON(t *testing.T) {
	for _, depth := range []int{maxJSONDepth - 1, maxJSONDepth} {
		sameDecode(t, []byte(nested(depth)), decodeStatsReport)
	}
	if err := decodeStatsReport([]byte(nested(maxJSONDepth)), new(StatsReport)); err != errJSONDepth {
		t.Errorf("over-deep document: %v", err)
	}
}

func seedDecode(f *testing.F) {
	for _, doc := range trickyDocuments {
		f.Add([]byte(doc))
	}
	for _, sessions := range []int{8, 128} {
		f.Add(mustMarshal(f, shapeReport(sessions)))
		f.Add(mustMarshal(f, shapeResponse(sessions, 6+6*(sessions/128))))
	}
	f.Add(mustMarshal(f, AssignmentResponse{FlowID: 5, RateBps: 734003.2, Level: 4, BAISeq: 17, CellSeq: 19}))
}

// sameDecode holds one decoder to json.Unmarshal on one document.
func sameDecode[T any](t *testing.T, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	if got, want := checkJSON(data) == nil, json.Valid(data); got != want {
		t.Fatalf("checkJSON accepts=%v, json.Valid=%v for %q", got, want, data)
	}
	var want, got T
	wantErr := json.Unmarshal(data, &want)
	gotErr := decode(data, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("decode error = %v, json.Unmarshal error = %v for %q", gotErr, wantErr, data)
	}
	if wantErr != nil {
		return
	}
	// DeepEqual tells nil from empty; the re-encoding tells -0 from 0.
	if !reflect.DeepEqual(got, want) || !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
		t.Fatalf("decoded %#v, json.Unmarshal gives %#v for %q", got, want, data)
	}
}

func FuzzStatsReportDecode(f *testing.F) {
	seedDecode(f)
	f.Fuzz(func(t *testing.T, data []byte) { sameDecode(t, data, decodeStatsReport) })
}

func FuzzStatsResponseDecode(f *testing.F) {
	seedDecode(f)
	f.Fuzz(func(t *testing.T, data []byte) { sameDecode(t, data, decodeStatsResponse) })
}

func FuzzAssignmentDecode(f *testing.F) {
	seedDecode(f)
	f.Fuzz(func(t *testing.T, data []byte) { sameDecode(t, data, decodeAssignmentResponse) })
}

// sameEncode holds one encoder's output to json.Marshal's.
func sameEncode(t *testing.T, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("encode error = %v, json.Marshal error = %v for %#v", gotErr, wantErr, v)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("encoded %s\njson.Marshal %s", got, want)
	}
}

func FuzzWireEncode(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, 5e-324, 2.2250738585072014e-308, 1e-6, 999999999999999868928,
		math.NaN(), math.Inf(1), math.Inf(-1), 1500000, 734003.2, -1e-9, 1.7976931348623157e308, 123456789.125}
	for i, x := range floats {
		f.Add(i, -i*10, int64(i)*1_000_003, int64(i), x, floats[(i+5)%len(floats)], "pcef: <b>&\"\\\t \xff café \x01", uint8(i))
	}
	f.Add(9, 10, int64(math.MaxInt64), int64(math.MinInt64), 21.5, 3e6, "", uint8(3))
	f.Add(math.MinInt, math.MaxInt, int64(0), int64(0), 0.0, 0.0, " ", uint8(128))
	f.Fuzz(func(t *testing.T, a, b int, n, m int64, x, y float64, reason string, flows uint8) {
		report := StatsReport{NumDataFlows: b, Seq: m}
		if flows%5 != 0 { // leave some reports with a nil map
			report.Flows = map[int]core.FlowStats{}
			for i := 0; i < int(flows); i++ {
				// Keys whose decimal strings interleave: prefixes of one
				// another, both signs, different lengths.
				id := []int{a, b, a * 10, a / 10, -a, a + i, b - i, i, -i, i * 100}[i%10]
				report.Flows[id] = core.FlowStats{Bytes: n + int64(i), RBs: m, BytesPerRBHint: []float64{0, x, y}[i%3]}
			}
		}
		got, err := appendStatsReport(nil, report)
		sameEncode(t, report, got, err)

		resp := StatsResponse{BAISeq: n}
		switch flows % 3 {
		case 1:
			resp.Assignments = []core.Assignment{}
		case 2:
			resp.Assignments = []core.Assignment{{FlowID: a, Level: b, RateBps: x}, {FlowID: b, Level: a, RateBps: y}}
			// json:"-": neither encoder may emit the failures.
			resp.Failed = []EnforcementFailure{{FlowID: a, Reason: reason}, {FlowID: b}}
		}
		got, err = appendStatsResponse(nil, resp)
		sameEncode(t, resp, got, err)

		poll := AssignmentResponse{FlowID: a, RateBps: x, Level: b, BAISeq: n, CellSeq: m}
		got, err = appendAssignmentResponse(nil, poll)
		sameEncode(t, poll, got, err)
	})
}

// TestWireShapesRoundTrip runs the two bench/ plane shapes through both
// directions of each codec: encode equals json.Marshal, and decoding
// that encoding gives the value back.
func TestWireShapesRoundTrip(t *testing.T) {
	for _, shape := range []struct{ sessions, rungs int }{{8, 6}, {128, 12}} {
		report := shapeReport(shape.sessions)
		enc, err := appendStatsReport(nil, report)
		sameEncode(t, report, enc, err)
		var back StatsReport
		if err := decodeStatsReport(enc, &back); err != nil || !reflect.DeepEqual(back, report) {
			t.Fatalf("%d-session report did not round-trip: %v", shape.sessions, err)
		}
		if len(enc) > statsReportSize(report) {
			t.Errorf("%d-session report is %d B, statsReportSize says %d", shape.sessions, len(enc), statsReportSize(report))
		}
		resp := shapeResponse(shape.sessions, shape.rungs)
		enc, err = appendStatsResponse(nil, resp)
		sameEncode(t, resp, enc, err)
		var respBack StatsResponse
		if err := decodeStatsResponse(enc, &respBack); err != nil || !reflect.DeepEqual(respBack, resp) {
			t.Fatalf("%d-session response did not round-trip: %v", shape.sessions, err)
		}
		if len(enc) > statsResponseSize(resp) {
			t.Errorf("%d-session response is %d B, statsResponseSize says %d", shape.sessions, len(enc), statsResponseSize(resp))
		}
	}
}

// TestCompareDecimal checks the map-key order against the definition:
// the order of the keys' decimal strings.
func TestCompareDecimal(t *testing.T) {
	keys := []int{0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 109, 110, 123, 1230, 1234, 12345, 999999, 1000000,
		math.MaxInt32, math.MaxInt, math.MaxInt - 1, math.MaxInt / 10, 922337203685477580, 92233720368547758}
	for _, k := range append([]int(nil), keys...) {
		keys = append(keys, -k)
	}
	keys = append(keys, math.MinInt, math.MinInt+1, math.MinInt/10)
	sign := func(v int) int {
		switch {
		case v < 0:
			return -1
		case v > 0:
			return 1
		}
		return 0
	}
	for _, a := range keys {
		for _, b := range keys {
			want := strings.Compare(strconv.Itoa(a), strconv.Itoa(b))
			if got := sign(compareDecimal(a, b)); got != want {
				t.Errorf("compareDecimal(%d, %d) = %d, strings say %d", a, b, got, want)
			}
		}
	}
}

// TestDecodeErrorsNameTheField keeps the decoders' refusals legible:
// the 400 a malformed report earns should say what was wrong.
func TestDecodeErrorsNameTheField(t *testing.T) {
	for doc, want := range map[string]string{
		`{"flows":[]}`:                       "cannot decode array into StatsReport.flows",
		`{"flows":{"x":{}}}`:                 `flow id "x"`,
		`{"flows":{"1":{"bytes":1.5}}}`:      "number 1.5 into FlowStats.bytes",
		`{"seq":"1"}`:                        "cannot decode string into StatsReport.seq",
		`{"flows":{"1":{"bytes":1}},"seq":}`: "invalid character '}' at offset 33",
		`{"flows":`:                          "unexpected EOF",
		``:                                   "EOF",
	} {
		var r StatsReport
		err := decodeStatsReport([]byte(doc), &r)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("decodeStatsReport(%q) = %v, want an error containing %q", doc, err, want)
		}
	}
}
