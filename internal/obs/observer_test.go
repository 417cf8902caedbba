package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilObserverAndScope(t *testing.T) {
	var o *Observer
	sc := o.NewScope("x")
	if sc != nil {
		t.Fatal("nil observer must hand out a nil scope")
	}
	// Every scope accessor must be a usable no-op.
	if sc.Name() != "" || sc.Tracer() != nil || sc.Observer() != nil {
		t.Fatal("nil scope accessors must return no-op handles")
	}
	sc.Close()
	if tot := o.PhaseTotals(PhaseAdvance); tot != (PhaseTotals{}) {
		t.Fatal("nil observer PhaseTotals must be zero")
	}
	if o.Energy() != nil || o.PoolStats() != nil {
		t.Fatal("nil observer must return nil handles")
	}
	o.Energy().Charge(PhaseScan, 0, 1)
	if o.Energy().PhaseJoules(PhaseScan) != 0 || o.Energy().TotalJoules() != 0 {
		t.Fatal("nil meter must be a no-op")
	}
}

// TestObserverPhaseTotalsSurviveEviction: the observer's per-phase aggregates
// must stay exact as scopes retire and the retired ring evicts old ones
// (folding their totals into the accumulator and recycling their slabs).
func TestObserverPhaseTotalsSurviveEviction(t *testing.T) {
	o := New(32)
	total := retiredScopes + 5
	for i := 0; i < total; i++ {
		sc := o.NewScope("s")
		sp := sc.Tracer().Begin(PhaseAdvance)
		sp.EndSim(10, 0, time.Millisecond)
		sc.Close()
		sc.Close() // idempotent
	}
	tot := o.PhaseTotals(PhaseAdvance)
	if tot.Count != int64(total) || tot.Items != int64(10*total) {
		t.Fatalf("PhaseTotals = %+v, want Count=%d Items=%d", tot, total, 10*total)
	}
	if want := int64(total) * int64(time.Millisecond); tot.SimNs != want {
		t.Fatalf("SimNs = %d, want %d", tot.SimNs, want)
	}
	// Only the retained ring renders in the trace.
	if got := len(o.TraceSnapshot()); got != retiredScopes {
		t.Fatalf("TraceSnapshot covers %d scopes, want %d", got, retiredScopes)
	}
}

func TestWriteEnergyJSON(t *testing.T) {
	o := New(32)
	o.Energy().Charge(PhaseAdvance, 0, 1.25)
	o.Energy().Charge(PhaseFilter, 1.25, 2)

	var buf bytes.Buffer
	if err := o.WriteEnergyJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Phases map[string]float64 `json:"phases"`
		TotalJ float64            `json:"total_joules"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields() // phases and total only: no strategy ledger
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("energy report not JSON: %v\n%s", err, buf.String())
	}
	if rep.Phases["advance"] != 1.25 || rep.Phases["filter"] != 0.75 {
		t.Fatalf("per-phase joules wrong: %+v", rep.Phases)
	}
	if rep.TotalJ != 2 {
		t.Fatalf("total joules wrong: %+v", rep)
	}
}

func TestPoolStatsWorkers(t *testing.T) {
	var ps PoolStats
	ps.RecordWorker(0, time.Second) // before EnableWorkers: no-op
	ps.EnableWorkers(2)
	ps.EnableWorkers(1) // shrink request: keeps the larger table
	if ps.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", ps.Workers())
	}
	ps.RecordWorker(0, 3*time.Millisecond)
	ps.RecordWorker(1, 5*time.Millisecond)
	ps.RecordWorker(7, time.Second) // out of range: dropped
	if ps.WorkerBusyNs(0) != int64(3*time.Millisecond) || ps.WorkerBusyNs(1) != int64(5*time.Millisecond) {
		t.Fatalf("worker busy = %d,%d", ps.WorkerBusyNs(0), ps.WorkerBusyNs(1))
	}
	ps.EnableWorkers(4) // grow preserves counts
	if ps.WorkerBusyNs(1) != int64(5*time.Millisecond) {
		t.Fatalf("grow lost counts: %d", ps.WorkerBusyNs(1))
	}
	if f := ps.AwakeFraction(0); f < 0 || f > 1 {
		t.Fatalf("awake fraction out of range: %v", f)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ps.RecordWorker(1, time.Microsecond)
		ps.Record(time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("RecordWorker allocates %v/op, want 0", allocs)
	}
}
