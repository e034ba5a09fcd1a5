// Package oneapi implements the coordination overlay between the FLARE
// client plugins, the network (PCRF/PCEF), and the per-cell bitrate
// controller — the role the paper assigns to an OMA OneAPI server.
//
// The server is transport-agnostic: simulations call it in-process, and
// Handler binds it to JSON-over-HTTP, the shape of the OMA RESTful
// Network API the paper builds on, as cmd/oneapiserver serves it to the
// femtocell testbed and to load generators. Clients
// register only their bitrate ladder and optional preferences — never
// the video identity — matching the paper's privacy-minimisation
// principle.
package oneapi

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/flare-sim/flare/internal/core"
)

// SessionRequest registers a video flow with the OneAPI server: the
// plugin sends the bitrate ladder parsed from the MPD (with identifying
// metadata removed) and its optional client preferences.
//
// LadderBps is handed over, not copied: a session the request opens (at
// once or from the admission queue) keeps it for its lifetime, so the
// sender must not write to it afterwards. Sharing one read-only ladder
// across requests is fine.
type SessionRequest struct {
	FlowID      int              `json:"flow_id"`
	LadderBps   []float64        `json:"ladder_bps"`
	Preferences core.Preferences `json:"preferences"`
}

// StatsReport is the eNodeB Communication Module's periodic report: the
// per-flow RB/byte accounting for the last BAI plus the PCRF's count of
// concurrent data flows in the cell.
type StatsReport struct {
	Flows        map[int]core.FlowStats `json:"flows"`
	NumDataFlows int                    `json:"num_data_flows"`
	// Seq, when positive, orders reports from one eNodeB: the server
	// rejects a report whose Seq is not greater than the last accepted
	// one (ErrStaleReport), so a delayed or duplicated report — e.g. a
	// retransmission after a control-plane timeout — cannot rewind the
	// BAI state. Zero means unsequenced: always accepted.
	Seq int64 `json:"seq,omitempty"`
}

// StatsResponse carries the enforcement decisions back to the eNodeB:
// the GBR to install per video bearer (the PCEF pathway piggybacked on
// the report exchange) and the BAI sequence the decisions came from.
type StatsResponse struct {
	Assignments []core.Assignment `json:"assignments"`
	BAISeq      int64             `json:"bai_seq,omitempty"`
	// Failed lists the flows whose install through an in-process
	// caller's PCEF failed and kept their previous assignment. It never
	// goes on the wire: over HTTP the eNodeB installs each GBR itself.
	Failed []EnforcementFailure `json:"-"`
}

// AssignmentResponse is what a polling plugin receives: its current
// bitrate assignment, the BAI sequence number it was installed in, and
// the cell's current BAI sequence. A widening CellSeq-BAISeq gap means
// the flow's assignment is going stale (e.g. its PCEF installs keep
// failing) even though the control plane is reachable.
type AssignmentResponse struct {
	FlowID  int     `json:"flow_id"`
	RateBps float64 `json:"rate_bps"`
	Level   int     `json:"level"`
	BAISeq  int64   `json:"bai_seq"`
	CellSeq int64   `json:"cell_seq,omitempty"`
}

// ErrorResponse is the JSON error envelope of the HTTP binding. Code is
// machine-readable (see the Code* constants); Error is human-readable.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// HandoverRequest asks the server to move a live session into another
// cell (the session and source cell are in the URL path).
type HandoverRequest struct {
	ToCell int `json:"to_cell"`
}

// Wire codecs for the messages that carry the traffic: the plugin poll
// (AssignmentResponse) and the eNodeB statistics exchange (StatsReport,
// StatsResponse). Each append function emits the bytes json.Marshal
// emits for the value, and each decode function stores into its
// argument what json.Unmarshal would — same documents accepted, same
// documents refused — without reflection (see jsonwire.go for the
// contract's fine print). The other messages are sent once per session
// or less and stay on encoding/json.

// appendAssignmentResponse appends a's JSON encoding to dst.
func appendAssignmentResponse(dst []byte, a AssignmentResponse) ([]byte, error) {
	e := wireEnc{b: dst}
	e.raw(`{"flow_id":`)
	e.int(int64(a.FlowID))
	e.raw(`,"rate_bps":`)
	e.float(a.RateBps)
	e.raw(`,"level":`)
	e.int(int64(a.Level))
	e.raw(`,"bai_seq":`)
	e.int(a.BAISeq)
	if a.CellSeq != 0 {
		e.raw(`,"cell_seq":`)
		e.int(a.CellSeq)
	}
	e.raw(`}`)
	return e.b, e.err
}

// appendStatsResponse appends r's JSON encoding to dst.
func appendStatsResponse(dst []byte, r StatsResponse) ([]byte, error) {
	e := wireEnc{b: dst}
	e.raw(`{"assignments":`)
	if r.Assignments == nil {
		e.raw(`null`)
	} else {
		e.raw(`[`)
		for i, a := range r.Assignments {
			if i > 0 {
				e.raw(`,`)
			}
			e.raw(`{"flow_id":`)
			e.int(int64(a.FlowID))
			e.raw(`,"level":`)
			e.int(int64(a.Level))
			e.raw(`,"rate_bps":`)
			e.float(a.RateBps)
			e.raw(`}`)
		}
		e.raw(`]`)
	}
	if r.BAISeq != 0 {
		e.raw(`,"bai_seq":`)
		e.int(r.BAISeq)
	}
	e.raw(`}`)
	return e.b, e.err
}

// statsResponseSize is a capacity for r's encoding that the ladders and
// flow counts in use do not outgrow, so a response is one allocation.
func statsResponseSize(r StatsResponse) int { return 64 + 64*len(r.Assignments) }

// appendStatsReport appends r's JSON encoding to dst, flows in the
// order json.Marshal gives a map: by key as a decimal string.
func appendStatsReport(dst []byte, r StatsReport) ([]byte, error) {
	e := wireEnc{b: dst}
	e.raw(`{"flows":`)
	if r.Flows == nil {
		e.raw(`null`)
	} else {
		ids := make([]int, 0, len(r.Flows))
		for id := range r.Flows {
			ids = append(ids, id)
		}
		slices.SortFunc(ids, compareDecimal)
		e.raw(`{`)
		for i, id := range ids {
			if i > 0 {
				e.raw(`,`)
			}
			fs := r.Flows[id]
			e.raw(`"`)
			e.int(int64(id))
			e.raw(`":{"bytes":`)
			e.int(fs.Bytes)
			e.raw(`,"rbs":`)
			e.int(fs.RBs)
			if fs.BytesPerRBHint != 0 {
				e.raw(`,"bytes_per_rb_hint":`)
				e.float(fs.BytesPerRBHint)
			}
			e.raw(`}`)
		}
		e.raw(`}`)
	}
	e.raw(`,"num_data_flows":`)
	e.int(int64(r.NumDataFlows))
	if r.Seq != 0 {
		e.raw(`,"seq":`)
		e.int(r.Seq)
	}
	e.raw(`}`)
	return e.b, e.err
}

// statsReportSize is statsResponseSize's counterpart for a report.
func statsReportSize(r StatsReport) int { return 64 + 64*len(r.Flows) }

// decodeStatsReport is json.Unmarshal(data, r).
func decodeStatsReport(data []byte, r *StatsReport) error {
	if err := checkJSON(data); err != nil {
		return err
	}
	d := wireDec{b: data}
	isObject, err := d.open('{', "StatsReport")
	for first := true; isObject && err == nil && d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "flows"):
			err = d.flowsInto(&r.Flows)
		case keyIs(key, "num_data_flows"):
			err = d.intInto(&r.NumDataFlows, "StatsReport.num_data_flows")
		case keyIs(key, "seq"):
			err = d.int64Into(&r.Seq, "StatsReport.seq")
		default:
			d.skip()
		}
	}
	return err
}

// flowsInto stores a flows object: a repeated member adds to the map
// the first one made, a repeated flow replaces the earlier entry whole.
func (d *wireDec) flowsInto(m *map[int]core.FlowStats) error {
	isObject, err := d.open('{', "StatsReport.flows")
	if err != nil {
		return err
	}
	if !isObject {
		*m = nil
		return nil
	}
	if *m == nil {
		*m = make(map[int]core.FlowStats, d.sizeHint())
	}
	for first := true; d.more('}', first); first = false {
		key := d.key()
		id, err := strconv.ParseInt(string(key), 10, strconv.IntSize)
		if err != nil {
			return fmt.Errorf("oneapi: json: cannot decode flow id %q into StatsReport.flows", key)
		}
		var fs core.FlowStats
		if err := d.flowStatsInto(&fs); err != nil {
			return err
		}
		(*m)[int(id)] = fs
	}
	return nil
}

func (d *wireDec) flowStatsInto(fs *core.FlowStats) error {
	isObject, err := d.open('{', "FlowStats")
	for first := true; isObject && err == nil && d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "bytes"):
			err = d.int64Into(&fs.Bytes, "FlowStats.bytes")
		case keyIs(key, "rbs"):
			err = d.int64Into(&fs.RBs, "FlowStats.rbs")
		case keyIs(key, "bytes_per_rb_hint"):
			err = d.floatInto(&fs.BytesPerRBHint, "FlowStats.bytes_per_rb_hint")
		default:
			d.skip()
		}
	}
	return err
}

// decodeStatsResponse is json.Unmarshal(data, r).
func decodeStatsResponse(data []byte, r *StatsResponse) error {
	if err := checkJSON(data); err != nil {
		return err
	}
	d := wireDec{b: data}
	isObject, err := d.open('{', "StatsResponse")
	for first := true; isObject && err == nil && d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "assignments"):
			err = decodeSlice(&d, &r.Assignments, "StatsResponse.assignments", (*wireDec).assignmentInto)
		case keyIs(key, "bai_seq"):
			err = d.int64Into(&r.BAISeq, "StatsResponse.bai_seq")
		default:
			d.skip()
		}
	}
	return err
}

func (d *wireDec) assignmentInto(a *core.Assignment) error {
	isObject, err := d.open('{', "Assignment")
	for first := true; isObject && err == nil && d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "flow_id"):
			err = d.intInto(&a.FlowID, "Assignment.flow_id")
		case keyIs(key, "level"):
			err = d.intInto(&a.Level, "Assignment.level")
		case keyIs(key, "rate_bps"):
			err = d.floatInto(&a.RateBps, "Assignment.rate_bps")
		default:
			d.skip()
		}
	}
	return err
}

// decodeAssignmentResponse is json.Unmarshal(data, a).
func decodeAssignmentResponse(data []byte, a *AssignmentResponse) error {
	if err := checkJSON(data); err != nil {
		return err
	}
	d := wireDec{b: data}
	isObject, err := d.open('{', "AssignmentResponse")
	for first := true; isObject && err == nil && d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "flow_id"):
			err = d.intInto(&a.FlowID, "AssignmentResponse.flow_id")
		case keyIs(key, "rate_bps"):
			err = d.floatInto(&a.RateBps, "AssignmentResponse.rate_bps")
		case keyIs(key, "level"):
			err = d.intInto(&a.Level, "AssignmentResponse.level")
		case keyIs(key, "bai_seq"):
			err = d.int64Into(&a.BAISeq, "AssignmentResponse.bai_seq")
		case keyIs(key, "cell_seq"):
			err = d.int64Into(&a.CellSeq, "AssignmentResponse.cell_seq")
		default:
			d.skip()
		}
	}
	return err
}
