package energysssp

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// flightRun performs one deterministic (single-threaded) self-tuning solve
// with a flight recorder attached and returns its log.
func flightRun(t *testing.T, seed uint64) *FlightLog {
	t.Helper()
	g := CalLike(0.01, seed)
	rec := NewFlightRecorder(1 << 16)
	out, err := Run(g, 0, RunConfig{
		Algorithm: SelfTuning,
		SetPoint:  200,
		Device:    "TK1",
		FlightLog: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := rec.Log()
	if len(l.Records) != out.Iterations {
		t.Fatalf("recorded %d iterations, run reports %d", len(l.Records), out.Iterations)
	}
	return l
}

// TestCommittedFlightLogPinned re-records the configuration of the
// committed results/flight_cal_tk1.jsonl through Run, the path `sssp
// -flight-out` takes, and requires every record to match the committed log
// bit for bit and the fresh log to replay: a change to how the kernels run
// on the host cannot move one charged count or simulated figure.
func TestCommittedFlightLogPinned(t *testing.T) {
	f, err := os.Open("results/flight_cal_tk1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadFlightLog(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	rec := NewFlightRecorder(1 << 16)
	if _, err := Run(CalLike(0.005, 42), 0, RunConfig{
		Algorithm: SelfTuning,
		SetPoint:  500,
		Device:    "TK1",
		Workers:   1,
		FlightLog: rec,
	}); err != nil {
		t.Fatal(err)
	}
	got := rec.Log()
	if d := DiffFlightLogs(want, got); !d.Identical() {
		t.Fatalf("fresh log diverges from the committed one: lengths %d vs %d, first divergence at iteration %d: %+v",
			d.LenA, d.LenB, d.FirstDivergence, d.Fields)
	}
	rep, err := ReplayFlight(got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fresh log does not replay: %+v", rep.Mismatches)
	}
}

// TestFlightAPI exercises the public surface end to end: record through
// Run, serialize, read back, replay bit-identically, diff two same-seed
// runs to zero divergence, and render the dashboard.
func TestFlightAPI(t *testing.T) {
	a := flightRun(t, 42)

	rep, err := ReplayFlight(a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("replay diverged: %+v", rep.Mismatches)
	}

	var buf bytes.Buffer
	if err := WriteFlightLog(&buf, a); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadFlightLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffFlightLogs(a, decoded); !d.Identical() {
		t.Fatalf("serialization changed the log: %+v", d)
	}

	// Two runs of the same deterministic configuration must diff clean.
	b := flightRun(t, 42)
	if d := DiffFlightLogs(a, b); !d.Identical() {
		t.Fatalf("same-seed runs diverged at iteration %d: %+v", d.FirstDivergence, d.Fields)
	}

	// A different input must be visibly different (guards against a diff
	// that trivially reports "identical").
	c := flightRun(t, 43)
	if d := DiffFlightLogs(a, c); d.Identical() {
		t.Fatal("different-seed runs reported identical")
	}

	_ = FlightFindings(a) // healthy runs usually yield none; must not panic

	var dash bytes.Buffer
	if err := WriteFlightDashboard(&dash, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dash.String(), "selftuning") {
		t.Fatalf("dashboard missing algorithm line:\n%s", dash.String())
	}
}
