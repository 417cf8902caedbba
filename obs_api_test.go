package energysssp

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"energysssp/internal/obs"
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

// TestObsMetricsMatchProfile checks that the observer's phase totals and
// the run's per-iteration records agree: one advance span per profiled
// iteration and one retired solve. The controller's tracking error has one
// source, the per-iteration record, so the profile and the flight log must
// reduce it to the same value.
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

	if got := o.PhaseTotals(obs.PhaseAdvance).Count; got != int64(out.Profile.Len()) {
		t.Errorf("advance spans = %d, want one per profiled iteration (%d)", got, out.Profile.Len())
	}
	if got := len(o.TraceSnapshot()); got != 1 {
		t.Errorf("%d scopes, want 1 (one retired solve)", got)
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
