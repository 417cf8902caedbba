package flight

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Dashboard rendering: a fixed-width ASCII view of a flight log for
// terminals and logs — the Figure-1 convergence narrative (δ trajectory, X²
// against the set-point, model estimates) without leaving the shell.

// dashCols is the plot width; longer runs are bucketed (each column shows
// the mean of its iteration bucket).
const dashCols = 72

// dashLevels are the intensity glyphs, low to high.
const dashLevels = " .:-=+*#%@"

// WriteDashboard renders an ASCII convergence dashboard for the log:
// header summary, tracking statistics, sparkline rows for X², δ, d̂ and α̂,
// and the detector findings.
func WriteDashboard(w io.Writer, l *Log) error {
	hdr := l.Header
	n := len(l.Records)
	if _, err := fmt.Fprintf(w, "flight %s v%d: %s  |V|=%d |E|=%d src=%d  iterations=%d\n",
		hdr.Schema, hdr.Version, hdr.Algorithm, hdr.Vertices, hdr.Edges, hdr.Source, n); err != nil {
		return err
	}
	if hdr.Label != "" {
		if _, err := fmt.Fprintf(w, "label: %s\n", hdr.Label); err != nil {
			return err
		}
	}
	if n == 0 {
		_, err := fmt.Fprintln(w, "(no records)")
		return err
	}

	if hdr.SetPoint > 0 {
		last := &l.Records[n-1]
		h := logHealth(l)
		_, meanErr := h.TrackingError()
		conv := h.ConvergenceIter()
		convStr := "never"
		if conv >= 0 {
			convStr = fmt.Sprintf("k=%d", conv)
		}
		if _, err := fmt.Fprintf(w, "P=%g  tracking error mean=%.3f  model convergence: %s  final d̂=%.3g α̂=%.3g\n",
			hdr.SetPoint, meanErr, convStr, last.D, last.Alpha); err != nil {
			return err
		}
	}
	if last := &l.Records[n-1]; last.SimTimeNs > 0 {
		if _, err := fmt.Fprintf(w, "simulated: time=%.3fms energy=%.3fJ\n",
			float64(last.SimTimeNs)/1e6, last.EnergyJ); err != nil {
			return err
		}
	}

	rows := []struct {
		name string
		log  bool // log10 scale (for the heavy-tailed series)
		get  func(*Record) float64
	}{
		{"X2 (parallelism)", true, func(r *Record) float64 { return float64(r.X2) }},
		{"delta", true, func(r *Record) float64 { return r.DeltaIn }},
		{"d-hat", false, func(r *Record) float64 { return r.D }},
		{"alpha-hat", true, func(r *Record) float64 { return r.Alpha }},
	}
	for _, row := range rows {
		series := make([]float64, n)
		for i := range l.Records {
			series[i] = row.get(&l.Records[i])
		}
		line, lo, hi := sparkline(series, row.log)
		if _, err := fmt.Fprintf(w, "%-17s |%s| [%.3g .. %.3g]\n", row.name, line, lo, hi); err != nil {
			return err
		}
	}

	findings := Detect(l, DetectOptions{})
	if len(findings) == 0 {
		_, err := fmt.Fprintln(w, "findings: none")
		return err
	}
	if _, err := fmt.Fprintf(w, "findings: %d\n", len(findings)); err != nil {
		return err
	}
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "  - [%s] %s\n", f.Kind, f.Detail); err != nil {
			return err
		}
	}
	return nil
}

// sparkline buckets the series into dashCols columns and maps each bucket
// mean onto the glyph ramp, returning the rendered line and the displayed
// range. Log scaling applies log10(1+x) so zero stays at the bottom.
func sparkline(series []float64, logScale bool) (string, float64, float64) {
	cols := dashCols
	if len(series) < cols {
		cols = len(series)
	}
	buckets := make([]float64, cols)
	for c := 0; c < cols; c++ {
		lo := c * len(series) / cols
		hi := (c + 1) * len(series) / cols
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range series[lo:hi] {
			sum += v
		}
		buckets[c] = sum / float64(hi-lo)
	}
	rawMin, rawMax := buckets[0], buckets[0]
	for _, v := range buckets {
		rawMin = math.Min(rawMin, v)
		rawMax = math.Max(rawMax, v)
	}
	scale := func(v float64) float64 {
		if logScale {
			return math.Log10(1 + math.Max(v, 0))
		}
		return v
	}
	lo, hi := scale(rawMin), scale(rawMax)
	var b strings.Builder
	for _, v := range buckets {
		idx := 0
		if hi > lo {
			idx = int((scale(v) - lo) / (hi - lo) * float64(len(dashLevels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(dashLevels) {
			idx = len(dashLevels) - 1
		}
		b.WriteByte(dashLevels[idx])
	}
	return b.String(), rawMin, rawMax
}
