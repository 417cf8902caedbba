package energysssp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// obsRun executes one self-tuning solve on the simulated TK1 with the given
// observer (nil = observability off).
func obsRun(t *testing.T, o *Observer) *RunOutput {
	t.Helper()
	g := CalLike(0.01, 42)
	out, err := Run(g, 0, RunConfig{
		Algorithm: SelfTuning,
		SetPoint:  200,
		Device:    "TK1",
		Profile:   true,
		Obs:       o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObsBitIdenticalSim is the acceptance invariant of the observability
// layer: attaching an observer must not change the simulated results at all —
// same simulated time, bit-identical energy, same distances.
func TestObsBitIdenticalSim(t *testing.T) {
	off := obsRun(t, nil)
	on := obsRun(t, NewObserver(0))
	if off.SimTime != on.SimTime {
		t.Errorf("SimTime changed with observability: off=%v on=%v", off.SimTime, on.SimTime)
	}
	if math.Float64bits(off.EnergyJ) != math.Float64bits(on.EnergyJ) {
		t.Errorf("EnergyJ changed with observability: off=%v on=%v", off.EnergyJ, on.EnergyJ)
	}
	if off.Iterations != on.Iterations {
		t.Errorf("Iterations changed with observability: off=%d on=%d", off.Iterations, on.Iterations)
	}
	for v := range off.Dist {
		if off.Dist[v] != on.Dist[v] {
			t.Fatalf("distance changed with observability at vertex %d: %d vs %d", v, off.Dist[v], on.Dist[v])
		}
	}
}

// TestObsMetricsMatchProfile scrapes a live /metrics endpoint after a solve
// and checks the controller-health gauges against the recorded profile:
// both are derived from the same per-iteration flight records, so they
// must agree exactly.
func TestObsMetricsMatchProfile(t *testing.T) {
	o := NewObserver(0)
	out := obsRun(t, o)

	srv, err := ServeMetrics("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	scraped := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q: %v", line, err)
		}
		scraped[line[:i]] = v
	}

	const setPoint = 200.0
	last, mean := out.Profile.TrackingError(setPoint)
	conv := out.Profile.ConvergenceIter()
	checks := []struct {
		name string
		want float64
	}{
		{"sssp_controller_set_point", setPoint},
		{"sssp_controller_tracking_error", last},
		{"sssp_controller_tracking_error_mean", mean},
		{"sssp_controller_model_convergence_iters", float64(conv)},
	}
	for _, c := range checks {
		got, ok := scraped[c.name]
		if !ok {
			t.Errorf("metric %s missing from /metrics scrape", c.name)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v from /metrics, profile says %v", c.name, got, c.want)
		}
	}
	if got := scraped["sssp_solves_total"]; got != 1 {
		t.Errorf("sssp_solves_total = %v, want 1", got)
	}
	if got := scraped[`obs_phase_spans_total{phase="advance"}`]; got < 1 {
		t.Errorf("no advance spans recorded: %v", got)
	}
	if got := scraped["sssp_solve_seconds_count"]; got != 1 {
		t.Errorf("sssp_solve_seconds_count = %v, want 1 (one retired solve)", got)
	}
}

// TestObsWriteTrace checks the exported Perfetto trace at the API level:
// valid JSON, the trace-event keys Perfetto requires, and monotonically
// non-decreasing timestamps per track.
func TestObsWriteTrace(t *testing.T) {
	o := NewObserver(0)
	obsRun(t, o)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, o); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans int
	lastTs := map[int]float64{}
	for i, ev := range tf.TraceEvents {
		if ev.Name == nil || ev.Ph == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing required keys: %+v", i, ev)
		}
		if *ev.Ph != "X" {
			continue
		}
		spans++
		if ev.Ts == nil {
			t.Fatalf("span event %d has no ts", i)
		}
		if *ev.Ts < lastTs[*ev.Tid] {
			t.Fatalf("event %d: ts %v goes backwards on tid %d", i, *ev.Ts, *ev.Tid)
		}
		lastTs[*ev.Tid] = *ev.Ts
	}
	if spans == 0 {
		t.Fatal("trace contains no spans")
	}
	if err := WriteTrace(io.Discard, nil); err == nil {
		t.Fatal("WriteTrace(nil observer) should error")
	}
}
