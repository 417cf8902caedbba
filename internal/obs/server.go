package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"time"
)

// Server exposes an observer over HTTP:
//
//	/metrics  Prometheus text exposition (version 0.0.4): fleet metrics
//	          plus every scope's metrics under a solve="<name>" label
//	/trace    Perfetto/Chrome trace-event JSON: one process per scope,
//	          spans nested solve → iteration → phase → kernel
//	/events   live telemetry stream (NDJSON): periodic per-solve
//	          heartbeats plus solve lifecycle and detector findings;
//	          ?interval=250ms tunes the heartbeat cadence (at least 50ms;
//	          anything else is a 400)
//	/flight   controller flight log as JSONL (404 until SetFlight)
//	/healthz  liveness probe: JSON with uptime, scope population, and the
//	          latest detector finding
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
		if err := o.WritePrometheusMatch(w, match); err != nil {
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
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(w, r, o)
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
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.WriteHealthJSON(w); err != nil {
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

// Health is the /healthz payload: enough of the fleet's vital signs that
// a probe (or a human with curl) can tell a healthy long-running server
// from a wedged one without scraping the full exposition.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_s"`
	ActiveSolves  int     `json:"active_solves"`
	RetiredSolves int     `json:"retired_solves"`
	EvictedSolves int64   `json:"evicted_solves"`
	FindingsTotal int64   `json:"findings_total"`
	LastFinding   string  `json:"last_finding,omitempty"` // RFC3339Nano, absent when none
	EventsDropped int64   `json:"events_dropped_total"`
}

// HealthSnapshot assembles the /healthz payload.
func (o *Observer) HealthSnapshot() Health {
	h := Health{Status: "ok"}
	if o == nil {
		return h
	}
	h.UptimeSeconds = o.Uptime().Seconds()
	h.ActiveSolves, h.RetiredSolves, h.EvictedSolves = o.ScopeCounts()
	var last time.Time
	h.FindingsTotal, last = o.Hub().Findings()
	if !last.IsZero() {
		h.LastFinding = last.Format(time.RFC3339Nano)
	}
	h.EventsDropped = o.Hub().Dropped()
	return h
}

// WriteHealthJSON writes the /healthz payload.
func (o *Observer) WriteHealthJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(o.HealthSnapshot())
}

// minEventsInterval is the fastest heartbeat cadence /events accepts.
const minEventsInterval = 50 * time.Millisecond

// serveEvents streams NDJSON telemetry: a hello line, then periodic
// heartbeats for every active scope interleaved with hub events
// (solve-start/solve-end/finding). It runs inside the handler's own
// goroutine and exits when the client disconnects, so no goroutine
// accounting is needed; a slow client drops hub events (the hub never
// blocks) but keeps receiving fresh heartbeats.
func serveEvents(w http.ResponseWriter, r *http.Request, o *Observer) {
	interval := 500 * time.Millisecond
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < minEventsInterval {
			writeQueryError(w, "interval", "interval must be a duration of at least 50ms")
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc := json.NewEncoder(w)

	events, cancel := o.Hub().Subscribe(256)
	defer cancel()

	hello := Event{Type: "hello", ActiveSolves: len(o.activeScopes())}
	hello.stamp()
	if enc.Encode(hello) != nil {
		return
	}
	flush()

	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-events:
			if enc.Encode(ev) != nil {
				return
			}
			flush()
		case <-tick.C:
			for _, s := range o.activeScopes() {
				if enc.Encode(heartbeat(s)) != nil {
					return
				}
			}
			flush()
		}
	}
}

// heartbeat snapshots one active scope's live stats into a stream event.
func heartbeat(s *Scope) Event {
	live := s.Live()
	ev := Event{
		Type:     "heartbeat",
		Solve:    s.Name(),
		Iter:     live.Iter(),
		Frontier: live.Frontier(),
		FarLen:   live.FarLen(),
		X2:       live.X2(),
		Delta:    live.Delta(),
		SetPoint: live.SetPoint(),
		EnergyJ:  s.Energy().TotalJoules(),
		SimMs:    float64(live.SimNs()) / 1e6,
		Strategy: s.Strategy(),
	}
	ev.stamp()
	return ev
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
