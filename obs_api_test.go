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
// and checks that it is process-level: one advance span per profiled
// iteration and one retired solve, no per-solve label, and none of the
// families that copied the flight record (controller health) or the
// Result (solver counters). The controller's tracking error has one
// source, the per-iteration record, so the profile and the flight log
// must reduce it to the same value.
func TestObsMetricsMatchProfile(t *testing.T) {
	const setPoint = 200.0
	o := NewObserver(0)
	rec := NewFlightRecorder(0)
	out, err := Run(CalLike(0.01, 42), 0, RunConfig{
		Algorithm: SelfTuning,
		SetPoint:  setPoint,
		Device:    "TK1",
		Profile:   true,
		Obs:       o,
		FlightLog: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := rec.Log()
	if _, mean := out.Profile.TrackingError(setPoint); math.Float64bits(mean) != math.Float64bits(DiffFlightLogs(l, l).TrackErrA) {
		t.Errorf("profile tracking error %v, flight log %v", mean, DiffFlightLogs(l, l).TrackErrA)
	}

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

	for series := range scraped {
		for _, gone := range []string{`solve="`, "sssp_controller_", "sssp_advances_total", "sssp_x2_updates", "sssp_scratch_"} {
			if strings.Contains(series, gone) {
				t.Errorf("/metrics carries %s", series)
			}
		}
	}
	if got := scraped[`obs_phase_spans_total{phase="advance"}`]; got != float64(out.Profile.Len()) {
		t.Errorf("advance spans = %v, want one per profiled iteration (%d)", got, out.Profile.Len())
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
