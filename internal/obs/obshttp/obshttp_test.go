package obshttp

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestServe spins up the live endpoint on an ephemeral port and checks the
// /metrics JSON and the pprof index respond.
func TestServe(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("explore.states").Add(7)
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"explore.states": 7`) {
		t.Errorf("metrics body = %s", body)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

// TestServeGracefulShutdown: shutdown drains cleanly (no error on the
// graceful path) and the listener actually stops serving afterwards.
func TestServeGracefulShutdown(t *testing.T) {
	r := obs.NewRegistry()
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after shutdown")
	}
}
