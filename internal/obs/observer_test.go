package obs

import (
	"bytes"
	"encoding/json"
	"strings"
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
	if sc.Name() != "" || sc.Tracer() != nil || sc.Registry() != nil ||
		sc.Energy() != nil || sc.PoolStats() != nil {
		t.Fatal("nil scope accessors must return no-op handles")
	}
	sc.Close()
	if tot := o.PhaseTotals(PhaseAdvance); tot != (PhaseTotals{}) {
		t.Fatal("nil observer PhaseTotals must be zero")
	}
	if err := o.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if o.Energy() != nil || o.PoolStats() != nil {
		t.Fatal("nil observer must return nil handles")
	}
}

// TestScopeChaining: scope counters/histograms sum into the fleet registry,
// gauges pass through last-write-wins, and each scope's own values stay
// isolated.
func TestScopeChaining(t *testing.T) {
	o := New(32)
	a, b := o.NewScope("a"), o.NewScope("b")

	ca := a.Registry().Counter("sssp_iterations_total", "iters")
	cb := b.Registry().Counter("sssp_iterations_total", "iters")
	ca.Add(10)
	cb.Add(32)
	if ca.Value() != 10 || cb.Value() != 32 {
		t.Fatalf("scope counters not isolated: %d %d", ca.Value(), cb.Value())
	}
	if v, ok := o.Reg.Value("sssp_iterations_total"); !ok || v != 42 {
		t.Fatalf("fleet counter = %v,%v want 42 (sum of scopes)", v, ok)
	}

	ga := a.Registry().Gauge("sssp_controller_set_point", "p")
	ga.Set(1000)
	if v, ok := o.Reg.Value("sssp_controller_set_point"); !ok || v != 1000 {
		t.Fatalf("fleet gauge = %v,%v want pass-through 1000", v, ok)
	}

	ha := a.Registry().Histogram("sssp_x2_updates", "", []float64{1, 10})
	hb := b.Registry().Histogram("sssp_x2_updates", "", []float64{1, 10})
	ha.Observe(5)
	hb.Observe(50)
	if got := ha.Count(); got != 1 {
		t.Fatalf("scope histogram count = %d, want 1", got)
	}
	if v, ok := o.Reg.Value("sssp_x2_updates"); !ok || v != 2 {
		t.Fatalf("fleet histogram count = %v,%v want 2", v, ok)
	}

	// The fleet exposition renders the fleet family bare and each scope
	// with its solve label, one HELP/TYPE header per family.
	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"\nsssp_iterations_total 42\n",
		`sssp_iterations_total{solve="` + a.Name() + `"} 10`,
		`sssp_iterations_total{solve="` + b.Name() + `"} 32`,
		`sssp_x2_updates_bucket{le="10",solve="` + a.Name() + `"} 1`,
		`sssp_x2_updates_quantile{q="0.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet exposition missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE sssp_iterations_total "); n != 1 {
		t.Errorf("family emitted %d TYPE headers, want 1", n)
	}
}

// TestObserverPhaseTotalsSurviveEviction: the fleet per-phase aggregates
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
	sc := o.NewScope("e")
	sc.Energy().Charge(PhaseAdvance, 0, 1.25)
	sc.Energy().Charge(PhaseFilter, 1.25, 2)
	sc.Close()

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
