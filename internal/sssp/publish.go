package sssp

import (
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/metrics"
)

// publisher passes each iteration's flight record to every sink attached
// to a solve: the flight recorder and the Profile. The record is the one
// per-iteration record; every other view is derived from it. The zero
// publisher has no sink; while active reports false the loop skips filling
// the record.
type publisher struct {
	rec  *flight.Recorder
	prof *metrics.Profile

	// Cumulative simulated time and energy of the previous record, for the
	// Profile's per-iteration average power.
	prevSimNs int64
	prevJ     float64
}

// active reports whether any sink is attached.
func (p *publisher) active() bool {
	return p.rec != nil || p.prof != nil
}

// publish hands one finished iteration's record to every sink. edges is
// the iteration's relaxed-edge count, which the Profile carries and the
// flight schema does not.
func (p *publisher) publish(rec *flight.Record, edges int64) {
	p.rec.Append(rec)
	if p.prof != nil {
		st := metrics.IterStat{
			K: int(rec.K), X1: int(rec.X1), X2: int(rec.X2), X3: int(rec.X3), X4: int(rec.X4),
			Delta: rec.DeltaOut, DHat: rec.D, AlphaHat: rec.Alpha,
			FarSize: int(rec.FarSize), Edges: edges,
			SimTime: time.Duration(rec.SimTimeNs), EnergyJ: rec.EnergyJ,
		}
		if dt := time.Duration(rec.SimTimeNs - p.prevSimNs); dt > 0 {
			st.AvgWatts = (rec.EnergyJ - p.prevJ) / dt.Seconds()
		}
		p.prevSimNs, p.prevJ = rec.SimTimeNs, rec.EnergyJ
		p.prof.Append(st)
	}
}
