package faults

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ErrInjected is the transport-level error surfaced for dropped
// exchanges; callers (and the hardened oneapi.Client) treat it exactly
// like any other network failure. Use errors.Is to detect it in tests.
var ErrInjected = errors.New("faults: injected control-plane failure")

// RoundTripper wraps an http.RoundTripper with fault injection, so the
// real JSON/HTTP OneAPI binding can be exercised against loss, error,
// delay and scheduled blackouts without touching the
// server or client code under test.
type RoundTripper struct {
	inner http.RoundTripper
	inj   *Injector
	now   func() time.Duration
	// sleep is swappable for tests; defaults to time.Sleep.
	sleep func(time.Duration)
}

// NewRoundTripper builds a fault-injecting transport. inner nil uses
// http.DefaultTransport; now nil uses wall time since construction
// (so Window schedules are relative to transport creation).
func NewRoundTripper(inner http.RoundTripper, inj *Injector, now func() time.Duration) *RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	return &RoundTripper{inner: inner, inj: inj, now: now, sleep: time.Sleep}
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	d := rt.inj.Decide(rt.now())
	switch d.Outcome {
	case Drop:
		return nil, fmt.Errorf("%w: %s %s dropped", ErrInjected, req.Method, req.URL.Path)
	case Fail:
		return syntheticError(req), nil
	case Delay:
		if d.Delay > 0 {
			rt.sleep(d.Delay)
		}
		return rt.inner.RoundTrip(req)
	default:
		return rt.inner.RoundTrip(req)
	}
}

func syntheticError(req *http.Request) *http.Response {
	body := `{"error":"injected upstream failure","code":"injected"}`
	return &http.Response{
		Status:        http.StatusText(http.StatusServiceUnavailable),
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// Middleware wraps an http.Handler with server-side fault injection:
// dropped exchanges are answered 503 after the handler is skipped
// (an HTTP server cannot truly lose a request, but the client-visible
// effect — no useful response — matches), failed exchanges 503, and
// delayed ones are held before handling.
func Middleware(inj *Injector, next http.Handler) http.Handler {
	start := time.Now()
	return MiddlewareClock(inj, func() time.Duration { return time.Since(start) }, next)
}

// MiddlewareClock is Middleware with an explicit clock, so blackout
// windows can be driven by simulated or test-controlled time.
func MiddlewareClock(inj *Injector, now func() time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := inj.Decide(now())
		switch d.Outcome {
		case Drop, Fail:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"injected server failure","code":"injected"}`))
		case Delay:
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}
