package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// Sink receives every recorded event as it happens — the streaming
// counterpart of the flight-recorder ring. Sinks are called under the
// recorder's lock, in Emit order; implementations must not call back
// into the recorder.
type Sink interface {
	// Write observes one event. The pointee is only valid for the call.
	Write(e *Event) error
	// Close flushes and releases the sink.
	Close() error
}

// JSONLSink streams events as one JSON object per line — the trace
// format cmd/flaretrace ingests. The first line is a schema header
// ({"schema":"flare-trace/2"}). Encoding is allocation-free on the
// steady state: a hand-rolled encoder appends into a reused buffer
// behind a bufio.Writer.
type JSONLSink struct {
	w           *bufio.Writer
	closer      io.Closer
	buf         []byte
	wroteHeader bool
}

// NewJSONLSink wraps w. If w is an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 64<<10)}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	return s
}

// CreateJSONLFile creates (truncating) a JSONL trace file at path.
func CreateJSONLFile(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace file: %w", err)
	}
	return NewJSONLSink(f), nil
}

// Write implements Sink.
func (s *JSONLSink) Write(e *Event) error {
	if !s.wroteHeader {
		s.wroteHeader = true
		if _, err := fmt.Fprintf(s.w, "{\"schema\":%q}\n", SchemaVersion); err != nil {
			return err
		}
	}
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	_, err := s.w.Write(s.buf)
	return err
}

// Close implements Sink: flush, then close the underlying writer if it
// is closable.
func (s *JSONLSink) Close() error {
	err := s.w.Flush()
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// MemorySink buffers every event in memory — the test sink, and the
// input side of the in-process analyzer (obs/analyze works straight
// off []Event).
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Write implements Sink.
func (s *MemorySink) Write(e *Event) error {
	s.mu.Lock()
	s.events = append(s.events, *e)
	s.mu.Unlock()
	return nil
}

// Close implements Sink.
func (s *MemorySink) Close() error { return nil }

// Events returns a copy of everything recorded so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Len returns the number of recorded events.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}
