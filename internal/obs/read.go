package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// ReadJSONL decodes a JSONL trace (as written by JSONLSink or
// Recorder.Dump) into events. The schema header line is validated when
// present: a trace of a schema version this build cannot read (see
// readableSchemas) is rejected, a headerless stream (hand-cut traces,
// old dumps) is accepted as-is.
// Records whose kind is unknown to this build are skipped, not fatal —
// newer writers may emit kinds an older reader has no use for.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		if line == 1 && strings.Contains(raw, `"schema"`) {
			var hdr struct {
				Schema string `json:"schema"`
			}
			if err := json.Unmarshal([]byte(raw), &hdr); err == nil && hdr.Schema != "" {
				if !slices.Contains(readableSchemas[:], hdr.Schema) {
					return nil, fmt.Errorf("obs: trace schema %q; this build reads %q", hdr.Schema, readableSchemas)
				}
				continue
			}
		}
		var we wireEvent
		if err := json.Unmarshal([]byte(raw), &we); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		e := we.event()
		if e.Kind == KindNone {
			continue // unknown or header-like record: skip
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return out, nil
}
