package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServer(t *testing.T) {
	o := New(32)
	sc := o.NewScope("t")
	sp := sc.Tracer().Begin(PhaseAdvance)
	sp.End(9)
	c := o.Reg.Counter("test_hits_total", "hits")
	c.Add(3)

	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	base := "http://" + srv.Addr()

	body, ctype := get(t, base+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("metrics content-type = %q", ctype)
	}
	for _, want := range []string{
		"test_hits_total 3",
		// Fleet aggregate over all scopes, bare name.
		`obs_phase_spans_total{phase="advance"} 1`,
		// The scope's own copy carries the solve label.
		`obs_phase_spans_total{phase="advance",solve="` + sc.Name() + `"} 1`,
		"go_goroutines ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	tbody, tctype := get(t, base+"/trace")
	if !strings.HasPrefix(tctype, "application/json") {
		t.Errorf("trace content-type = %q", tctype)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tbody), &f); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(f.TraceEvents) < 4 { // 3 metadata + 1 span
		t.Fatalf("/trace has %d events, want >= 4", len(f.TraceEvents))
	}

	// A closed scope still renders (retired ring) until evicted.
	sc.Close()
	body2, _ := get(t, base+"/metrics")
	if !strings.Contains(body2, `solve="`+sc.Name()+`"`) {
		t.Errorf("retired scope vanished from /metrics")
	}

	hbody, hctype := get(t, base+"/healthz")
	if !strings.HasPrefix(hctype, "application/json") {
		t.Errorf("healthz content-type = %q", hctype)
	}
	var h Health
	if err := json.Unmarshal([]byte(hbody), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, hbody)
	}
	if h.Status != "ok" || h.UptimeSeconds < 0 || h.ActiveSolves != 0 || h.RetiredSolves != 1 {
		t.Errorf("/healthz payload = %+v", h)
	}
}

// TestServerHealthzFindings checks /healthz reflecting a published
// detector finding: the running count and an RFC3339Nano timestamp.
func TestServerHealthzFindings(t *testing.T) {
	o := New(32)
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	base := "http://" + srv.Addr()

	o.Hub().Publish(Event{Type: "finding", Kind: "oscillation", Solve: "x"})

	hbody, _ := get(t, base+"/healthz")
	var h Health
	if err := json.Unmarshal([]byte(hbody), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.FindingsTotal != 1 || h.LastFinding == "" {
		t.Fatalf("/healthz after a finding = %+v", h)
	}
	if _, err := time.Parse(time.RFC3339Nano, h.LastFinding); err != nil {
		t.Fatalf("last_finding %q not RFC3339Nano: %v", h.LastFinding, err)
	}
}

// TestServerEvents exercises the live NDJSON stream end to end: hello on
// connect, heartbeats for active scopes, and solve lifecycle events
// published while the client is attached.
func TestServerEvents(t *testing.T) {
	o := New(32)
	sc := o.NewScope("live")
	defer sc.Close()
	sc.SetStrategy("rho")
	sc.Live().Iteration(3, 10, 5, 7, 2.5, 4e6)

	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+srv.Addr()+"/events?interval=50ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && ctx.Err() == nil {
			t.Error(cerr)
		}
	}()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("events content-type = %q", ct)
	}

	sc2 := o.NewScope("burst") // published while subscribed
	sc2.Close()

	scan := bufio.NewScanner(resp.Body)
	seen := map[string]Event{}
	for scan.Scan() {
		var ev Event
		if err := json.Unmarshal(scan.Bytes(), &ev); err != nil {
			t.Fatalf("stream line not JSON: %q: %v", scan.Text(), err)
		}
		if ev.T == "" || ev.Type == "" {
			t.Fatalf("event missing t/type: %+v", ev)
		}
		if _, dup := seen[ev.Type]; !dup {
			seen[ev.Type] = ev
		}
		if len(seen) >= 4 { // hello, heartbeat, solve-start, solve-end
			break
		}
	}
	if len(seen) < 4 {
		t.Fatalf("stream ended early, saw %v (err %v)", seen, scan.Err())
	}

	hb := seen["heartbeat"]
	if hb.Iter != 3 || hb.Frontier != 10 || hb.FarLen != 5 || hb.X2 != 7 ||
		hb.Delta != 2.5 || hb.SimMs != 4 || hb.Strategy != "rho" {
		t.Fatalf("heartbeat payload wrong: %+v", hb)
	}
	if seen["solve-start"].Solve != sc2.Name() || seen["solve-end"].Solve != sc2.Name() {
		t.Fatalf("lifecycle events wrong: start=%+v end=%+v", seen["solve-start"], seen["solve-end"])
	}
	cancel() // detach cleanly before the server closes
}

func TestServeNilObserver(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil) must error")
	}
}

// stubFlight satisfies FlightSource the same way *flight.Recorder does,
// without coupling this package's tests to internal/flight.
type stubFlight struct{ payload string }

func (s stubFlight) WriteJSONL(w io.Writer) error {
	_, err := io.WriteString(w, s.payload)
	return err
}

func TestServerFlightEndpoint(t *testing.T) {
	o := New(32)
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	base := "http://" + srv.Addr()

	// No source attached: 404, not an empty 200 that looks like a log.
	resp, err := http.Get(base + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/flight without a source: status %d, want 404", resp.StatusCode)
	}

	o.SetFlight(stubFlight{payload: "{\"schema\":\"energysssp-flight\"}\n"})
	body, ctype := get(t, base+"/flight")
	if !strings.HasPrefix(ctype, "application/x-ndjson") {
		t.Errorf("flight content-type = %q", ctype)
	}
	if !strings.Contains(body, "energysssp-flight") {
		t.Errorf("/flight body = %q", body)
	}

	// Detach: back to 404. Also exercises nil-observer SetFlight/Flight.
	o.SetFlight(nil)
	if o.Flight() != nil {
		t.Fatal("SetFlight(nil) did not detach")
	}
	var nilObs *Observer
	nilObs.SetFlight(stubFlight{})
	if nilObs.Flight() != nil {
		t.Fatal("nil observer Flight() != nil")
	}
}
