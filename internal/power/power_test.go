package power

import (
	"math"
	"testing"
	"time"

	"energysssp/internal/sim"
)

func seg(startMs, endMs int, w float64) sim.PowerSeg {
	return sim.PowerSeg{
		Start: time.Duration(startMs) * time.Millisecond,
		End:   time.Duration(endMs) * time.Millisecond,
		Watts: w,
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.AvgWatts != 0 || s.EnergyJ != 0 || s.Duration != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeConstant(t *testing.T) {
	s := Summarize([]sim.PowerSeg{seg(0, 1000, 5)})
	if s.AvgWatts != 5 || s.MedianWatts != 5 || s.PeakWatts != 5 || s.MinWatts != 5 {
		t.Fatalf("constant summary: %+v", s)
	}
	if math.Abs(s.EnergyJ-5.0) > 1e-9 {
		t.Fatalf("energy %.9f, want 5", s.EnergyJ)
	}
}

func TestSummarizeMixed(t *testing.T) {
	// 900 ms at 4 W, 100 ms at 10 W.
	s := Summarize([]sim.PowerSeg{seg(0, 900, 4), seg(900, 1000, 10)})
	wantAvg := (0.9*4 + 0.1*10) / 1.0
	if math.Abs(s.AvgWatts-wantAvg) > 1e-9 {
		t.Fatalf("avg %.4f, want %.4f", s.AvgWatts, wantAvg)
	}
	if s.MedianWatts != 4 {
		t.Fatalf("median %.2f, want 4 (time-weighted)", s.MedianWatts)
	}
	if s.P95Watts != 10 {
		t.Fatalf("p95 %.2f, want 10", s.P95Watts)
	}
	if s.PeakWatts != 10 || s.MinWatts != 4 {
		t.Fatalf("peak/min: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSummarizeSkipsEmptySegments(t *testing.T) {
	s := Summarize([]sim.PowerSeg{seg(5, 5, 99), seg(0, 100, 3)})
	if s.PeakWatts != 3 {
		t.Fatalf("zero-length segment contributed: %+v", s)
	}
}

// TestSummarizeMachineTrace: the summary of a machine's own trace must
// account for the machine's whole clock and energy, with the average
// between the extremes.
func TestSummarizeMachineTrace(t *testing.T) {
	m := sim.NewMachine(sim.TK1())
	m.EnableTrace()
	for i := 0; i < 50; i++ {
		m.Kernel(sim.KernelAdvance, 200000)
		m.Kernel(sim.KernelFilter, 50000)
	}
	s := Summarize(m.Trace())
	if s.Duration != m.Now() {
		t.Fatalf("summary covers %v, machine clock %v", s.Duration, m.Now())
	}
	if math.Abs(s.EnergyJ-m.Energy()) > 1e-9*m.Energy() {
		t.Fatalf("summary energy %.12g J, machine %.12g J", s.EnergyJ, m.Energy())
	}
	if !(s.MinWatts <= s.AvgWatts && s.AvgWatts <= s.PeakWatts) || s.MinWatts == s.PeakWatts {
		t.Fatalf("min/avg/peak %.3f/%.3f/%.3f", s.MinWatts, s.AvgWatts, s.PeakWatts)
	}
}
