package flight

import (
	"math"

	"energysssp/internal/metrics"
)

// diffFields enumerates the per-record scalar fields run-diff compares.
// Comparison is on exact bits (math.Float64bits), not epsilon closeness:
// two runs of a deterministic configuration must match exactly, and the
// first bit of drift is precisely the signal run-diff exists to localize.
var diffFields = []struct {
	name string
	get  func(*Record) float64
}{
	{"x1", func(r *Record) float64 { return float64(r.X1) }},
	{"x2", func(r *Record) float64 { return float64(r.X2) }},
	{"x3", func(r *Record) float64 { return float64(r.X3) }},
	{"x4", func(r *Record) float64 { return float64(r.X4) }},
	{"farLen", func(r *Record) float64 { return float64(r.FarLen) }},
	{"farSize", func(r *Record) float64 { return float64(r.FarSize) }},
	{"p", func(r *Record) float64 { return r.SetPoint }},
	{"deltaIn", func(r *Record) float64 { return r.DeltaIn }},
	{"rawDelta", func(r *Record) float64 { return r.RawDelta }},
	{"deltaOut", func(r *Record) float64 { return r.DeltaOut }},
	{"appliedDelta", func(r *Record) float64 { return r.AppliedDelta }},
	{"d", func(r *Record) float64 { return r.D }},
	{"alpha", func(r *Record) float64 { return r.Alpha }},
	{"advance.theta", func(r *Record) float64 { return r.Advance.Theta }},
	{"bisect.theta", func(r *Record) float64 { return r.Bisect.Theta }},
	{"simNs", func(r *Record) float64 { return float64(r.SimTimeNs) }},
	{"energyJ", func(r *Record) float64 { return r.EnergyJ }},
}

// FieldDiff reports one field's values in the two runs at a divergent
// iteration, plus the maximum absolute difference seen across all compared
// iterations.
type FieldDiff struct {
	Field  string
	A, B   float64 // values at the first divergent iteration
	MaxAbs float64 // max |A−B| across all compared iterations
}

// DiffReport is the result of aligning two flight logs iteration by
// iteration.
type DiffReport struct {
	LenA, LenB int
	Compared   int // iterations compared: min(LenA, LenB)

	// FirstDivergence is the iteration index of the first record where any
	// compared field differs in bits, or -1 when every compared iteration
	// matches exactly. A length mismatch with identical common prefixes
	// keeps FirstDivergence at -1 but is visible via LenA != LenB.
	FirstDivergence int

	// Fields holds every compared field that differs anywhere, ordered as
	// compared, with values at the first iteration where that field
	// diverged and its max absolute delta.
	Fields []FieldDiff

	// DivergentIters counts iterations with at least one differing field.
	DivergentIters int

	// TrackErrA/B are each run's mean set-point tracking error
	// |X²−P|/P (0 when the log has no set-point), the figure-of-merit the
	// paper evaluates controllers by — so a diff ends with "which run
	// tracked better", not only "where they split".
	TrackErrA, TrackErrB float64
}

// Identical reports whether the two logs matched bit-for-bit over their
// common length and had equal lengths.
func (d *DiffReport) Identical() bool {
	return d.FirstDivergence < 0 && d.LenA == d.LenB
}

// DiffLogs aligns two flight logs iteration by iteration and reports the
// first divergence and per-field deltas. Records are matched by position
// (both logs must be contiguous from iteration 0 for positions to mean the
// same iteration; see Log.Contiguous).
func DiffLogs(a, b *Log) *DiffReport {
	d := &DiffReport{
		LenA:            len(a.Records),
		LenB:            len(b.Records),
		FirstDivergence: -1,
	}
	d.Compared = min(d.LenA, d.LenB)
	_, d.TrackErrA = logHealth(a).TrackingError()
	_, d.TrackErrB = logHealth(b).TrackingError()

	type fieldState struct {
		firstK int
		a, b   float64
		maxAbs float64
	}
	states := make([]fieldState, len(diffFields))
	for i := range states {
		states[i].firstK = -1
	}

	for k := 0; k < d.Compared; k++ {
		ra, rb := &a.Records[k], &b.Records[k]
		diverged := false
		for i, f := range diffFields {
			va, vb := f.get(ra), f.get(rb)
			if math.Float64bits(va) == math.Float64bits(vb) {
				continue
			}
			diverged = true
			st := &states[i]
			if st.firstK < 0 {
				st.firstK, st.a, st.b = k, va, vb
			}
			if abs := math.Abs(va - vb); abs > st.maxAbs {
				st.maxAbs = abs
			}
		}
		if diverged {
			d.DivergentIters++
			if d.FirstDivergence < 0 {
				d.FirstDivergence = k
			}
		}
	}
	for i, st := range states {
		if st.firstK >= 0 {
			d.Fields = append(d.Fields, FieldDiff{
				Field: diffFields[i].name, A: st.a, B: st.b, MaxAbs: st.maxAbs,
			})
		}
	}
	return d
}

// logHealth reduces the log through metrics.ControllerHealth, scoring each
// record against its own P so power-capped runs are judged against the
// set-point in effect at the time.
func logHealth(l *Log) *metrics.ControllerHealth {
	var h metrics.ControllerHealth
	for i := range l.Records {
		rec := &l.Records[i]
		h.Track(rec.X2, rec.SetPoint)
		h.Models(int(rec.K), rec.D, rec.Alpha)
	}
	return &h
}
