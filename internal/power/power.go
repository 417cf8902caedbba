// Package power summarizes the simulated machine's piecewise-constant power
// trace into the statistics the paper's power/performance figures report.
package power

import (
	"fmt"
	"math"
	"sort"
	"time"

	"energysssp/internal/sim"
)

// Summary captures the distributional power statistics reported in the
// paper's figures.
type Summary struct {
	AvgWatts    float64
	MedianWatts float64
	P95Watts    float64
	PeakWatts   float64
	MinWatts    float64
	EnergyJ     float64
	Duration    time.Duration
}

// Summarize computes a Summary directly from the piecewise-constant trace
// (time-weighted, so it is exact rather than sample-rate dependent).
func Summarize(trace []sim.PowerSeg) Summary {
	var s Summary
	if len(trace) == 0 {
		return s
	}
	s.MinWatts = math.Inf(1)
	var segs []wd
	var total time.Duration
	for _, seg := range trace {
		d := seg.End - seg.Start
		if d <= 0 {
			continue
		}
		segs = append(segs, wd{seg.Watts, d})
		total += d
		s.EnergyJ += seg.Watts * d.Seconds()
		if seg.Watts > s.PeakWatts {
			s.PeakWatts = seg.Watts
		}
		if seg.Watts < s.MinWatts {
			s.MinWatts = seg.Watts
		}
	}
	if total <= 0 {
		s.MinWatts = 0
		return s
	}
	s.Duration = total
	s.AvgWatts = s.EnergyJ / total.Seconds()
	sort.Slice(segs, func(i, j int) bool { return segs[i].w < segs[j].w })
	s.MedianWatts = weightedQuantile(segs, total, 0.5)
	s.P95Watts = weightedQuantile(segs, total, 0.95)
	return s
}

// wd is a (watts, duration) pair used for time-weighted quantiles.
type wd struct {
	w float64
	d time.Duration
}

func weightedQuantile(sorted []wd, total time.Duration, q float64) float64 {
	target := time.Duration(float64(total) * q)
	var acc time.Duration
	for _, s := range sorted {
		acc += s.d
		if acc >= target {
			return s.w
		}
	}
	return sorted[len(sorted)-1].w
}

// String renders the summary as a single log-friendly line.
func (s Summary) String() string {
	return fmt.Sprintf("avg=%.2fW median=%.2fW p95=%.2fW peak=%.2fW energy=%.3fJ over %v",
		s.AvgWatts, s.MedianWatts, s.P95Watts, s.PeakWatts, s.EnergyJ, s.Duration)
}
