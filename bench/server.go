package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// outDir is where the benchmark keeps what it builds and writes: the
// oneapiserver binary, traces and result files.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// buildServer compiles the real oneapiserver from the checkout's
// sources. After the first call the Go build cache makes it a check
// that nothing changed.
func buildServer(root string) (string, error) {
	bin := filepath.Join(outDir(root), "oneapiserver")
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/oneapiserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build oneapiserver: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is a running oneapiserver child process.
type serverProc struct {
	cmd *exec.Cmd
	url string
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// startServer launches the binary on a free loopback port and returns
// once it answers requests.
func startServer(bin string) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		cmd := exec.Command(bin, "-addr", addr)
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start oneapiserver: %w", err)
		}
		s := &serverProc{cmd: cmd, url: "http://" + addr}
		if lastErr = s.waitReady(5 * time.Second); lastErr == nil {
			return s, nil
		}
		// Most likely another process took the port between the probe
		// and the server's own listen; stop this one and pick again.
		s.stop()
	}
	return nil, lastErr
}

func (s *serverProc) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.url + "/metrics")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("oneapiserver at %s not ready within %v", s.url, limit)
}

// stop ends the process (graceful first, then by force) and waits for
// it, so no run leaves a server behind.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(8 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}
