package obs

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"time"
)

// Server exposes an observer over HTTP:
//
//	/metrics  Prometheus text exposition (version 0.0.4) of the
//	          observer's process-level registry: phase totals over all
//	          solves, joules per phase, pool and Go runtime state
//	/trace    Perfetto/Chrome trace-event JSON: one process per scope,
//	          spans nested solve → iteration → phase → kernel
//	/flight   controller flight log as JSONL (404 until SetFlight)
//
// The server runs on its own goroutine; Close shuts it down and reports any
// serve error other than normal shutdown.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	serveErr chan error
}

// Serve starts an HTTP server for o on addr (e.g. ":9090", or
// "127.0.0.1:0" to pick a free port — see Addr).
func Serve(addr string, o *Observer) (*Server, error) {
	if o == nil {
		return nil, errors.New("obs: Serve requires a non-nil Observer")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		match, ok := parseMatch(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Reg.WritePrometheusMatch(w, match); err != nil {
			// Headers are already out; nothing useful left to do.
			return
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteTraceJSON(w, o.TraceSnapshot()); err != nil {
			return
		}
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		src := o.Flight()
		if src == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := src.WriteJSONL(w); err != nil {
			return
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:       ln,
		srv:      &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		serveErr: make(chan error, 1),
	}
	//lint:ignore leakspawn one-off accept-loop goroutine; joined at Close through the buffered serveErr channel
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// writeQueryError rejects a request with HTTP 400 and a JSON body naming
// the offending parameter — malformed input gets a hard error, never a
// silent clamp.
func writeQueryError(w http.ResponseWriter, param, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg, "param": param}); err != nil {
		return
	}
}

// maxMatchLen bounds the ?match filter; longer values are rejected as
// malformed rather than scanned against every series name.
const maxMatchLen = 256

func validMatch(s string) bool {
	if len(s) > maxMatchLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return false
		}
	}
	return true
}

// parseMatch validates the /metrics ?match parameter. On malformed input
// it writes the 400 response and reports ok=false.
func parseMatch(w http.ResponseWriter, r *http.Request) (string, bool) {
	v := r.URL.Query().Get("match")
	if v != "" && !validMatch(v) {
		writeQueryError(w, "match", "match must be a printable substring of at most 256 bytes")
		return "", false
	}
	return v, true
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Close shuts the server down and returns any serve-loop error.
func (s *Server) Close() error {
	if err := s.srv.Close(); err != nil {
		return err
	}
	if err := <-s.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
