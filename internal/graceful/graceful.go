// Package graceful runs an http.Server until SIGINT/SIGTERM and then
// drains in-flight requests under a deadline — the shared shutdown path
// for the repository's long-running binaries (oneapiserver,
// mediaserver). Extracted so both servers stop the same way: first
// signal starts an orderly drain, second signal kills the process
// (default Go signal behavior is restored as soon as the drain begins).
package graceful

import (
	"context"
	"errors"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DefaultGrace bounds the drain when callers pass grace <= 0.
const DefaultGrace = 5 * time.Second

// NotifyContext returns a context cancelled on the first SIGINT or
// SIGTERM — the drain signal for non-HTTP binaries (flaresuite's matrix
// runner stops admitting new scenarios and flushes completed-scenario
// artifacts). Signal handling is restored to the Go default as soon as
// the context is done, so a second signal kills the process, matching
// Serve's two-signal contract.
func NotifyContext(parent context.Context) context.Context {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx
}

// Serve runs srv until it fails or the process receives SIGINT or
// SIGTERM, then shuts it down gracefully, allowing in-flight requests
// up to grace to complete. logf (optional) receives one message when
// the drain begins. http.ErrServerClosed is folded into a nil return;
// any other listen or shutdown error is returned.
func Serve(srv *http.Server, grace time.Duration, logf func(format string, args ...any)) error {
	return ServeDrain(srv, grace, logf, nil)
}

// ServeDrain is Serve with an application-level drain hook: after the
// first signal, before the HTTP listener shuts down, drain (optional)
// is invoked with the grace budget. Servers use it to refuse new work
// and wait for in-flight application operations — e.g. the OneAPI
// server stops accepting BAI rounds and waits for running rounds to
// finish, so none is dropped mid-install. The hook shares
// the grace budget with the HTTP drain, so it must return within it.
func ServeDrain(srv *http.Server, grace time.Duration, logf func(format string, args ...any), drain func(grace time.Duration)) error {
	if grace <= 0 {
		grace = DefaultGrace
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		stop() // second signal falls through to the default handler
		if logf != nil {
			logf("shutting down: draining in-flight requests (up to %v)", grace)
		}
		if drain != nil {
			drain(grace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		// The listener goroutine exits with http.ErrServerClosed.
		<-errCh
		return nil
	}
}
