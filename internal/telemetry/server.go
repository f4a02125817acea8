package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Handler builds the telemetry HTTP mux: Prometheus text format at
// /metrics, a JSON snapshot at /telemetry.json, and the stdlib profiler
// under /debug/pprof/. The pprof handlers are wired explicitly so nothing
// leaks onto http.DefaultServeMux.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/telemetry.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry HTTP listener.
type Server struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	ln   net.Listener
}

// ListenAndServe binds addr and serves Handler(reg) in a background
// goroutine. The returned server reports the resolved address (useful
// with ":0") and is shut down with Close.
func ListenAndServe(reg *Registry, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: Handler(reg), ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the listener immediately. In-flight scrapes are cut off;
// prefer Shutdown on a clean exit so a scrape that raced the end of the
// run still gets its response.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Shutdown stops accepting new scrapes and waits — up to the context
// deadline — for in-flight responses to flush before closing the
// listener. This is the clean-exit path: a Prometheus scrape that landed
// just as the run finished is answered instead of reset.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		// Past the deadline: fall back to the hard close so the process
		// never hangs on a stuck scraper.
		return s.srv.Close()
	}
	return nil
}

// WriteDebugDump writes a point-in-time diagnostic pair into dir:
// goroutine stacks (goroutines-<stamp>.txt) and a telemetry snapshot
// (telemetry-<stamp>.json). It is the SIGQUIT payload for diagnosing
// wedged campaigns. Returns the two paths written.
func WriteDebugDump(dir string, reg *Registry) (stackPath, snapPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	stamp := time.Now().UTC().Format("20060102T150405.000")
	stackPath = filepath.Join(dir, "goroutines-"+stamp+".txt")
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	if err := os.WriteFile(stackPath, buf, 0o644); err != nil {
		return "", "", err
	}
	snapPath = filepath.Join(dir, "telemetry-"+stamp+".json")
	f, err := os.Create(snapPath)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		return "", "", err
	}
	return stackPath, snapPath, nil
}
