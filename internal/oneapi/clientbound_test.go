package oneapi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// TestClientBoundsResponses: the plugin client and the stats call read
// every response body — success and error alike, with a declared length
// or chunked — through maxResponseBytes. A body of exactly the bound
// still decodes; one byte more is an error, not a longer read.
func TestClientBoundsResponses(t *testing.T) {
	pad := bytes.Repeat([]byte{' '}, maxResponseBytes)
	var size int
	var declared bool
	answer := func(w http.ResponseWriter, status int, doc string) {
		if declared {
			w.Header().Set("Content-Length", strconv.Itoa(size))
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(doc))
		_, _ = w.Write(pad[:size-len(doc)])
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/oneapi/v4/cells/0/assignments/1":
			answer(w, http.StatusOK, `{"flow_id":1,"rate_bps":400000,"level":1,"bai_seq":3}`)
		case "/oneapi/v4/cells/0/stats":
			answer(w, http.StatusOK, `{"assignments":[{"flow_id":1,"level":1,"rate_bps":400000}],"bai_seq":3}`)
		default:
			answer(w, http.StatusNotFound, `{"error":"no such session","code":"unknown_session"}`)
		}
	}))
	defer srv.Close()
	poll := NewClient(srv.URL, 0, 1, srv.Client())
	unknown := NewClient(srv.URL, 0, 2, srv.Client())

	for _, declared = range []bool{true, false} {
		for _, size = range []int{maxResponseBytes, maxResponseBytes + 1} {
			over := size > maxResponseBytes
			a, ok, err := poll.Poll()
			if over != (err != nil) || !over && (!ok || a.BAISeq != 3) {
				t.Errorf("declared=%v, %d B: poll = %+v, %v, %v", declared, size, a, ok, err)
			}
			resp, err := ReportStatsContext(context.Background(), srv.Client(), srv.URL, 0, StatsReport{})
			if over != (err != nil) || !over && resp.BAISeq != 3 {
				t.Errorf("declared=%v, %d B: stats = %+v, %v", declared, size, resp, err)
			}
			_, _, err = unknown.Poll()
			if errors.Is(err, ErrUnknownSession) == over || over && !errors.Is(err, errResponseTooLarge) {
				t.Errorf("declared=%v, %d B: 404 poll error %v", declared, size, err)
			}
		}
	}
}
