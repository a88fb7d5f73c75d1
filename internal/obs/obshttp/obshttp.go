// Package obshttp serves an obs registry over HTTP for the CLI tools'
// -metrics-addr flag. It is a leaf package of its own so that net/http,
// expvar and net/http/pprof stay out of the import closure of everything
// that imports obs — the virtual runtime, and through it every sched-DSL
// program the static front end type-checks from source.
package obshttp

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// expvarOnce guards the one-time expvar publication of the Default
// registry (expvar.Publish panics on duplicate names).
var expvarOnce sync.Once

// Serve starts the live metrics endpoint for long explorations on addr
// (the CLI tools' -metrics-addr flag) and returns the bound address (useful
// with ":0") and a shutdown function.
//
// Layout:
//
//	/metrics        registry snapshot as key-sorted JSON
//	/debug/vars     expvar JSON (includes the registry under "obs")
//	/debug/pprof/   the standard net/http/pprof profile handlers
func Serve(addr string, r *obs.Registry) (bound string, shutdown func() error, err error) {
	if r == obs.Default {
		expvarOnce.Do(func() {
			expvar.Publish("obs", expvar.Func(func() any { return obs.Default.Snapshot() }))
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		b, err := r.Snapshot().Encode()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Shutdown below reports ErrServerClosed
	// Graceful teardown: let in-flight /metrics and pprof responses finish
	// (a profile download aborted mid-body is worthless) but bound the
	// wait, falling back to a hard Close if a client stalls past it.
	shutdown = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}
