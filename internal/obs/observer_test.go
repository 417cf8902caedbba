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
		sc.Energy() != nil || sc.PoolStats() != nil || sc.Strategy() != "" {
		t.Fatal("nil scope accessors must return no-op handles")
	}
	sc.Live().Iteration(1, 2, 3, 4, 5, 6)
	sc.Live().SetSetPoint(9)
	sc.SetStrategy("x")
	sc.Publish(Event{Type: "finding"})
	sc.Close()
	if tot := o.PhaseTotals(PhaseAdvance); tot != (PhaseTotals{}) {
		t.Fatal("nil observer PhaseTotals must be zero")
	}
	if err := o.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	o.Hub().Publish(Event{})
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

// TestStrategyJoules: closing a scope banks its joules under the declared
// strategy; active scopes contribute live.
func TestStrategyJoules(t *testing.T) {
	o := New(32)
	a := o.NewScope("a")
	a.SetStrategy("rho")
	a.Energy().Charge(PhaseAdvance, 0, 2.5)
	a.Close()

	b := o.NewScope("b")
	b.SetStrategy("rho")
	b.Energy().Charge(PhaseRebalance, 1, 2) // live, not yet closed

	if got := o.strategyJoules("rho"); got != 3.5 {
		t.Fatalf("strategyJoules(rho) = %v, want 3.5", got)
	}
	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `obs_strategy_joules_total{strategy="rho"} 3.5`) {
		t.Fatalf("exposition missing strategy joules:\n%s", sb.String())
	}
	// Fleet energy chained from both scopes.
	if got := o.Energy().TotalJoules(); got != 3.5 {
		t.Fatalf("fleet joules = %v, want 3.5", got)
	}
}

func TestWriteEnergyJSON(t *testing.T) {
	o := New(32)
	sc := o.NewScope("e")
	sc.SetStrategy("fused")
	sc.Energy().Charge(PhaseAdvance, 0, 1.25)
	sc.Energy().Charge(PhaseFilter, 1.25, 2)
	sc.Close()

	var buf bytes.Buffer
	if err := o.WriteEnergyJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Phases     map[string]float64 `json:"phases"`
		Strategies map[string]float64 `json:"strategies"`
		TotalJ     float64            `json:"total_joules"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("energy report not JSON: %v\n%s", err, buf.String())
	}
	if rep.Phases["advance"] != 1.25 || rep.Phases["filter"] != 0.75 {
		t.Fatalf("per-phase joules wrong: %+v", rep.Phases)
	}
	if rep.Strategies["fused"] != 2 || rep.TotalJ != 2 {
		t.Fatalf("strategy/total joules wrong: %+v", rep)
	}
}

// TestHub: subscribers get published events, a full subscriber drops rather
// than blocking the publisher, and cancel unregisters.
func TestHub(t *testing.T) {
	h := newHub()
	ch, cancel := h.Subscribe(2)
	h.Publish(Event{Type: "a"})
	h.Publish(Event{Type: "b"})
	h.Publish(Event{Type: "dropped"}) // buffer full: must not block
	if ev := <-ch; ev.Type != "a" || ev.T == "" {
		t.Fatalf("first event = %+v", ev)
	}
	if ev := <-ch; ev.Type != "b" {
		t.Fatalf("second event = %+v", ev)
	}
	select {
	case ev := <-ch:
		t.Fatalf("overflow event should be dropped, got %+v", ev)
	default:
	}
	cancel()
	h.Publish(Event{Type: "after-cancel"}) // no subscriber: no-op

	var nilHub *Hub
	nilHub.Publish(Event{Type: "x"})
	nch, ncancel := nilHub.Subscribe(0)
	if nch != nil {
		t.Fatal("nil hub Subscribe must return nil channel")
	}
	ncancel()
}

func TestSolveStats(t *testing.T) {
	var s SolveStats
	s.Iteration(7, 100, 50, 900, 12.5, 3_000_000)
	s.SetSetPoint(1000)
	if s.Iter() != 7 || s.Frontier() != 100 || s.FarLen() != 50 || s.X2() != 900 ||
		s.Delta() != 12.5 || s.SetPoint() != 1000 || s.SimNs() != 3_000_000 {
		t.Fatalf("SolveStats round-trip wrong: %+v", &s)
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
