package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
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
	o.Reg.Gauge("test_hits", "hits").Set(3)

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
		"test_hits 3",
		`obs_phase_spans_total{phase="advance"} 1`,
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

	sc.Close()

	// The server explains solves; it keeps no live stream or liveness
	// probe beside them.
	for _, path := range []string{"/events", "/healthz"} {
		if code, _ := getStatus(t, base+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
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
