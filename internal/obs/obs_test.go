package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(PhaseAdvance)
	sp.End(10)
	sp.EndSim(10, time.Second, time.Second)
	sp.Kernel(1, 0, 0)
	tr.BeginSolve().End(0)
	tr.BeginIter(3).End(0)
	tr.Mark(PhaseFilter, 1, 0, 0)
	tr.Reset()
	tr.Release()
	if tr.Len() != 0 || tr.Cap() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report empty state")
	}
	if got := tr.Snapshot(nil); got != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", got)
	}
	if tot := tr.Totals(PhaseAdvance); tot != (PhaseTotals{}) {
		t.Fatalf("nil tracer Totals = %+v, want zero", tot)
	}
}

func TestTracerRecordAndTotals(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Begin(PhaseAdvance)
	sp.EndSim(100, 5*time.Millisecond, 2*time.Millisecond)
	tr.Mark(PhaseAdvance, 50, 7*time.Millisecond, time.Millisecond)

	tot := tr.Totals(PhaseAdvance)
	if tot.Count != 2 || tot.Items != 150 {
		t.Fatalf("Totals = %+v, want Count=2 Items=150", tot)
	}
	if want := int64(3 * time.Millisecond); tot.SimNs != want {
		t.Fatalf("SimNs = %d, want %d", tot.SimNs, want)
	}
	evs := tr.Snapshot(nil)
	if len(evs) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(evs))
	}
	if evs[0].ID != 0 || evs[1].ID != 1 {
		t.Fatalf("Snapshot order wrong: %+v", evs)
	}
	if evs[0].SimStartNs != int64(5*time.Millisecond) || evs[0].SimNs != int64(2*time.Millisecond) {
		t.Fatalf("sim interval not recorded: %+v", evs[0])
	}
	if evs[1].HostNs != 0 {
		t.Fatalf("Mark should record zero host duration, got %d", evs[1].HostNs)
	}
	if evs[0].HostNs < 0 || evs[1].StartNs < evs[0].StartNs {
		t.Fatalf("host timestamps not monotonic: %+v", evs)
	}
}

// TestTracerHierarchy drives the solve → iteration → phase → kernel stack
// and checks every recorded parent edge and iteration tag.
func TestTracerHierarchy(t *testing.T) {
	tr := NewTracer(64)
	solve := tr.BeginSolve()
	for k := 0; k < 2; k++ {
		iter := tr.BeginIter(k)
		ph := tr.Begin(PhaseAdvance)
		ph.Kernel(10, time.Duration(k)*time.Millisecond, time.Millisecond)
		ph.EndSim(10, time.Duration(k)*time.Millisecond, time.Millisecond)
		tr.Mark(PhaseRebalance, 5, 0, 0)
		iter.End(int64(k))
	}
	solve.End(2)

	evs := tr.Snapshot(nil)
	// solve, then per iteration: iter, phase, kernel child, mark = 1 + 2*4.
	if len(evs) != 9 {
		t.Fatalf("Snapshot len = %d, want 9: %+v", len(evs), evs)
	}
	if evs[0].Kind != SpanSolve || evs[0].Parent != -1 {
		t.Fatalf("root span wrong: %+v", evs[0])
	}
	for _, k := range []int32{0, 1} {
		base := 1 + k*4
		iter, phase, kern, mark := evs[base], evs[base+1], evs[base+2], evs[base+3]
		if iter.Kind != SpanIter || iter.Parent != evs[0].ID || iter.Iter != k {
			t.Fatalf("iter %d span wrong: %+v", k, iter)
		}
		if phase.Kind != SpanPhase || phase.Parent != iter.ID || phase.Phase != PhaseAdvance {
			t.Fatalf("phase span wrong: %+v", phase)
		}
		if kern.Kind != SpanKernel || kern.Parent != phase.ID || kern.HostNs != 0 {
			t.Fatalf("kernel child wrong: %+v", kern)
		}
		if mark.Kind != SpanKernel || mark.Parent != iter.ID || mark.Phase != PhaseRebalance {
			t.Fatalf("mark should parent to the open iteration: %+v", mark)
		}
	}
	// Kernel children detail the phase span; only the phase feeds totals.
	if tot := tr.Totals(PhaseAdvance); tot.Count != 2 || tot.Items != 20 {
		t.Fatalf("advance totals = %+v, want Count=2 Items=20", tot)
	}
	if tot := tr.Totals(PhaseRebalance); tot.Count != 2 || tot.Items != 10 {
		t.Fatalf("Mark must feed totals: %+v", tot)
	}
}

// TestTracerBudget exhausts the span budget and checks drop semantics: the
// tracer never overwrites (the front of the trace keeps the ancestry
// skeleton), drops are counted, and aggregates stay exact.
func TestTracerBudget(t *testing.T) {
	tr := NewTracer(16)
	if tr.Cap() < 16 {
		t.Fatalf("Cap = %d, want >= 16", tr.Cap())
	}
	max := tr.Cap()
	total := 3*max + 5
	for i := 0; i < total; i++ {
		tr.Mark(PhaseScan, int64(i), 0, 0)
	}
	if tr.Len() != max {
		t.Fatalf("Len = %d, want %d", tr.Len(), max)
	}
	if want := uint64(total - max); tr.Dropped() != want {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), want)
	}
	evs := tr.Snapshot(nil)
	if len(evs) != max {
		t.Fatalf("Snapshot len = %d, want %d", len(evs), max)
	}
	for i, ev := range evs {
		// Oldest spans retained: items are the first recording order.
		if ev.ID != int32(i) || ev.Items != int64(i) {
			t.Fatalf("event %d: ID=%d Items=%d, want %d (drop, not overwrite)", i, ev.ID, ev.Items, i)
		}
	}
	// Aggregates are exact despite the drops.
	if tot := tr.Totals(PhaseScan); tot.Count != int64(total) {
		t.Fatalf("Totals.Count = %d, want %d (aggregates must survive drops)", tot.Count, total)
	}
	// A dropped phase span still feeds its aggregate on EndSim.
	sp := tr.Begin(PhaseFilter)
	sp.EndSim(7, 0, time.Millisecond)
	if tot := tr.Totals(PhaseFilter); tot.Count != 1 || tot.Items != 7 {
		t.Fatalf("dropped phase span lost its aggregate: %+v", tot)
	}
	// Snapshot appends into the destination without clobbering it.
	pre := []SpanEvent{{Items: 999}}
	both := tr.Snapshot(pre)
	if len(both) != max+1 || both[0].Items != 999 {
		t.Fatalf("Snapshot must append to dst, got len=%d first=%+v", len(both), both[0])
	}
}

// TestTracerResetRelease: Reset keeps the slabs (reuse stays
// allocation-free), Release returns them to the pool.
func TestTracerResetRelease(t *testing.T) {
	tr := NewTracer(32)
	for i := 0; i < 10; i++ {
		tr.Mark(PhaseAdvance, 1, 0, 0)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("Reset left state: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	if tot := tr.Totals(PhaseAdvance); tot != (PhaseTotals{}) {
		t.Fatalf("Reset left aggregates: %+v", tot)
	}
	allocs := testing.AllocsPerRun(50, func() {
		tr.Mark(PhaseAdvance, 1, 0, 0)
		tr.Reset()
	})
	if allocs != 0 {
		t.Fatalf("reuse after Reset allocates %v/op, want 0", allocs)
	}
	tr.Release()
	if tr.Len() != 0 {
		t.Fatalf("Release left %d spans", tr.Len())
	}
	// A released tracer can record again (slabs re-acquired from the pool).
	tr.Mark(PhaseScan, 2, 0, 0)
	if tr.Len() != 1 {
		t.Fatalf("tracer unusable after Release")
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines while a
// reader snapshots — meaningful under -race, and checks the aggregate
// arithmetic is exact under contention.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ph := Phase(w % NumPhases)
			for i := 0; i < perWorker; i++ {
				sp := tr.Begin(ph)
				sp.EndSim(1, time.Duration(i), time.Duration(1))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var scratch []SpanEvent
		for i := 0; i < 200; i++ {
			scratch = tr.Snapshot(scratch[:0])
			_ = tr.Len()
			_ = tr.Dropped()
			for p := Phase(0); p < numPhases; p++ {
				_ = tr.Totals(p)
			}
		}
	}()
	wg.Wait()
	<-done

	var count, items int64
	for p := Phase(0); p < numPhases; p++ {
		tot := tr.Totals(p)
		count += tot.Count
		items += tot.Items
	}
	if want := int64(workers * perWorker); count != want || items != want {
		t.Fatalf("totals under contention: count=%d items=%d, want %d", count, items, want)
	}
	if got := tr.Dropped() + uint64(tr.Len()); got != uint64(workers*perWorker) {
		t.Fatalf("dropped+retained = %d, want %d", got, workers*perWorker)
	}
}

// TestTracerSteadyStateAllocs: recording hierarchical spans into a warm
// tracer must not allocate — this is the property the solver-level
// TestSpanSteadyStateAllocs builds on.
func TestTracerSteadyStateAllocs(t *testing.T) {
	tr := NewTracer(1 << 14)
	g := &Gauge{}
	hist := NewRegistry().Histogram("x", "", []float64{1, 10, 100})
	// Warm the slab list past the first crossing so Get from a cold pool
	// doesn't count against the measurement.
	for i := 0; i < spanSlabSize+1; i++ {
		tr.Mark(PhaseScan, 0, 0, 0)
	}
	tr.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		solve := tr.BeginSolve()
		iter := tr.BeginIter(1)
		sp := tr.Begin(PhaseAdvance)
		sp.Kernel(9, 2, 3)
		sp.EndSim(17, 3, 5)
		tr.Mark(PhaseRebalance, 4, 1, 2)
		iter.End(17)
		solve.End(1)
		g.Set(1.5)
		hist.Observe(42)
		tr.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state span+metric path allocates %v allocs/op, want 0", allocs)
	}
	if math.Abs(hist.Sum()-42*101) > 1e-9 {
		t.Fatalf("histogram sum = %v", hist.Sum())
	}
}
