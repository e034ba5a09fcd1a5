package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one BAI round share Round; Parent
// names the span that caused this one (0 = root).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Round    int64  `json:"round"`
	// Replayed marks a span whose duration was measured by replaying
	// the identical request against an in-process twin (or estimated
	// from an isolated per-op cost times an op count), and then placed
	// inside its parent: the duration is real, the position is not.
	Replayed bool `json:"replayed,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer is the disabled state: every method is a no-op, so the
// timed (untraced) runs pay nothing.
type tracer struct {
	mu       sync.Mutex
	spans    []span
	next     int64
	workload string
	epoch    time.Time
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// since converts a wall instant to the trace's nanosecond clock.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch).Nanoseconds()
}

// add records a span and returns its ID.
func (t *tracer) add(parent int64, layer, name string, startNs, endNs, round int64, replayed bool) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Layer: layer, Name: name,
		StartNs: startNs, EndNs: endNs, Workload: t.workload, Round: round, Replayed: replayed,
	})
	return t.next
}

// nest records a replayed child of the given duration centred inside
// its parent's interval and returns the child's ID and interval.
func (t *tracer) nest(parent, pStart, pEnd int64, layer, name string, dur time.Duration, round int64) (id, start, end int64) {
	d := dur.Nanoseconds()
	if d > pEnd-pStart {
		d = pEnd - pStart
	}
	start = pStart + (pEnd-pStart-d)/2
	end = start + d
	return t.add(parent, layer, name, start, end, round, true), start, end
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the total and self time of one kind of span (a layer
// and the operation it served) over a trace.
type layerTime struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes computes, per layer and span name, the summed span duration
// and the self time: each span's duration minus the part of its
// interval that its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := make(map[[2]string]*layerTime)
	for _, s := range spans {
		key := [2]string{s.Layer, s.Name}
		lt := byLayer[key]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer, Name: s.Name}
			byLayer[key] = lt
		}
		dur := s.EndNs - s.StartNs
		lt.Spans++
		lt.TotalNs += dur
		lt.SelfNs += dur - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of the parent's interval its children cover.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		a, b := k.StartNs, k.EndNs
		if a < parent.StartNs {
			a = parent.StartNs
		}
		if b > parent.EndNs {
			b = parent.EndNs
		}
		if b <= a {
			continue
		}
		if curEnd < curStart || a > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = a, b
			continue
		}
		if b > curEnd {
			curEnd = b
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}
