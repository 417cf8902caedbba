// Package metrics records per-iteration runtime characteristics of the SSSP
// solvers — the X¹..X⁴ frontier sizes of Section 3.1, the delta threshold,
// and simulated time/energy — and computes the distributional statistics
// (density, quantiles, variability) behind the paper's concurrency-profile
// figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"energysssp/internal/fp"
)

// IterStat describes one solver iteration k.
type IterStat struct {
	K  int // iteration index
	X1 int // input frontier size (advance input)
	X2 int // successful distance updates (available parallelism)
	X3 int // filter output size (deduplicated)
	X4 int // frontier size entering the rebalancer / bisect-far-queue

	Delta    float64       // the absolute near/far split threshold in effect
	DHat     float64       // ADVANCE-MODEL estimate d (0 when not applicable)
	AlphaHat float64       // BISECT-MODEL estimate α (0 when not applicable)
	FarSize  int           // far-queue entries after the iteration
	Edges    int64         // edges relaxed during advance
	SimTime  time.Duration // cumulative simulated time at end of iteration
	EnergyJ  float64       // cumulative simulated energy at end of iteration
	AvgWatts float64       // average power during the iteration
}

// Profile is the ordered iteration log of one solver run.
type Profile struct {
	Iters []IterStat
}

// Append records one iteration.
func (p *Profile) Append(s IterStat) { p.Iters = append(p.Iters, s) }

// Len reports the number of recorded iterations.
func (p *Profile) Len() int { return len(p.Iters) }

// Parallelism returns the available-parallelism series (X² per iteration),
// the quantity plotted in Figures 1, 2, 3 and 5.
func (p *Profile) Parallelism() []float64 {
	out := make([]float64, len(p.Iters))
	for i, it := range p.Iters {
		out[i] = float64(it.X2)
	}
	return out
}

// Deltas returns the per-iteration threshold series.
func (p *Profile) Deltas() []float64 {
	out := make([]float64, len(p.Iters))
	for i, it := range p.Iters {
		out[i] = it.Delta
	}
	return out
}

// TotalEdges sums the relaxed-edge counts (the work metric used to quantify
// redundant work at large deltas).
func (p *Profile) TotalEdges() int64 {
	var sum int64
	for _, it := range p.Iters {
		sum += it.Edges
	}
	return sum
}

// ModelConvergenceRelTol is the relative-movement threshold below which the
// controller's two model estimates (d̂ and α̂) are considered converged:
// both moved less than 1% between consecutive iterations.
const ModelConvergenceRelTol = 0.01

// ControllerHealth computes the controller-health statistics one iteration
// at a time: the set-point tracking error |X² − P| / P (last and mean) and
// the iteration at which the model estimates converged. It is the one
// implementation of both formulas; a recorded Profile and a flight log
// both reduce through it. The zero value is ready to use.
type ControllerHealth struct {
	errLast, errSum float64
	n               int

	prevD, prevA float64
	havePrev     bool
	convK        int
	converged    bool
}

// Track folds one iteration's X² into the tracking error against
// setPoint. Iterations without a positive set-point are skipped.
func (h *ControllerHealth) Track(x2 int64, setPoint float64) {
	if setPoint <= 0 {
		return
	}
	h.errLast = math.Abs(float64(x2)-setPoint) / setPoint
	h.errSum += h.errLast
	h.n++
}

// TrackingError returns the last tracked iteration's error and the mean
// over every tracked iteration (0, 0 before the first).
func (h *ControllerHealth) TrackingError() (last, mean float64) {
	if h.n == 0 {
		return 0, 0
	}
	return h.errLast, h.errSum / float64(h.n)
}

// Models folds iteration k's model estimates d̂ and α̂ into the convergence
// test: the first iteration where both moved less than
// ModelConvergenceRelTol relative to the previous estimated iteration.
// Iterations without estimates (either ≤ 0) are skipped.
func (h *ControllerHealth) Models(k int, d, alpha float64) {
	if h.converged || d <= 0 || alpha <= 0 {
		return
	}
	if h.havePrev &&
		math.Abs(d-h.prevD) <= ModelConvergenceRelTol*h.prevD &&
		math.Abs(alpha-h.prevA) <= ModelConvergenceRelTol*h.prevA {
		h.converged, h.convK = true, k
		return
	}
	h.prevD, h.prevA, h.havePrev = d, alpha, true
}

// ConvergenceIter returns the iteration at which the model estimates
// converged, or -1 if they have not.
func (h *ControllerHealth) ConvergenceIter() int {
	if !h.converged {
		return -1
	}
	return h.convK
}

// TrackingError returns the controller's set-point tracking error
// |X² − P| / P for the last iteration and its mean over the profile.
func (p *Profile) TrackingError(setPoint float64) (last, mean float64) {
	var h ControllerHealth
	for _, it := range p.Iters {
		h.Track(int64(it.X2), setPoint)
	}
	return h.TrackingError()
}

// ConvergenceIter returns the iteration index K at which the controller's
// model estimates first converged — both DHat and AlphaHat moved less than
// ModelConvergenceRelTol relative to the previous iteration — or -1 if they
// never did (or the profile carries no model estimates).
func (p *Profile) ConvergenceIter() int {
	var h ControllerHealth
	for _, it := range p.Iters {
		h.Models(it.K, it.DHat, it.AlphaHat)
	}
	return h.ConvergenceIter()
}

// Summary holds distribution statistics of a series.
type Summary struct {
	N              int
	Mean, Median   float64
	Min, Max       float64
	Q1, Q3         float64
	P95            float64
	Variance       float64
	StdDev         float64
	CoefOfVar      float64 // StdDev / Mean; the paper's "variability"
	DynamicRangeDB float64 // 10·log10(max/max(min,1)); spread measure
}

// Summarize computes distribution statistics for a series.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	s.Median = Quantile(sorted, 0.5)
	s.Q1 = Quantile(sorted, 0.25)
	s.Q3 = Quantile(sorted, 0.75)
	s.P95 = Quantile(sorted, 0.95)
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	s.Variance = ss / float64(s.N)
	s.StdDev = math.Sqrt(s.Variance)
	if !fp.Zero(s.Mean) {
		s.CoefOfVar = s.StdDev / s.Mean
	}
	den := s.Min
	if den < 1 {
		den = 1
	}
	if s.Max > 0 {
		s.DynamicRangeDB = 10 * math.Log10(s.Max/den)
	}
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// series using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Bin is one histogram bucket.
type Bin struct {
	Lo, Hi float64
	Count  int
}

// Histogram buckets xs into nbins equal-width bins over [min, max] — the
// "Density" insets of Figure 1.
func Histogram(xs []float64, nbins int) []Bin {
	if len(xs) == 0 || nbins <= 0 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if fp.Eq(hi, lo) {
		return []Bin{{Lo: lo, Hi: hi, Count: len(xs)}}
	}
	width := (hi - lo) / float64(nbins)
	bins := make([]Bin, nbins)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = bins[i].Lo + width
	}
	for _, x := range xs {
		i := int((x - lo) / width)
		if i >= nbins {
			i = nbins - 1
		}
		bins[i].Count++
	}
	return bins
}

// LogHistogram buckets positive xs into nbins log-spaced bins, which is how
// a long-tailed parallelism distribution is legible. Non-positive values
// land in the first bin.
func LogHistogram(xs []float64, nbins int) []Bin {
	if len(xs) == 0 || nbins <= 0 {
		return nil
	}
	maxV := 1.0
	for _, x := range xs {
		if x > maxV {
			maxV = x
		}
	}
	logMax := math.Log10(maxV)
	if logMax <= 0 {
		return Histogram(xs, nbins)
	}
	width := logMax / float64(nbins)
	bins := make([]Bin, nbins)
	for i := range bins {
		bins[i].Lo = math.Pow(10, float64(i)*width)
		bins[i].Hi = math.Pow(10, float64(i+1)*width)
	}
	bins[0].Lo = 0
	for _, x := range xs {
		i := 0
		if x > 1 {
			i = int(math.Log10(x) / width)
			if i >= nbins {
				i = nbins - 1
			}
		}
		bins[i].Count++
	}
	return bins
}

// String renders a compact one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f median=%.1f [q1=%.1f q3=%.1f p95=%.1f] min=%.1f max=%.1f cv=%.2f",
		s.N, s.Mean, s.Median, s.Q1, s.Q3, s.P95, s.Min, s.Max, s.CoefOfVar)
}
