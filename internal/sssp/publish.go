package sssp

import (
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
)

// Publisher passes each iteration's flight record to every sink attached
// to a solve: the flight recorder, the Profile, the scope's live stats and
// the controller-health gauges. The record is the one per-iteration record;
// every other view is derived from it here. The zero Publisher has no sink;
// while Active reports false the solver skips filling the record.
type Publisher struct {
	rec    *flight.Recorder
	prof   *metrics.Profile
	live   *obs.SolveStats
	health *health

	// Cumulative simulated time and energy of the previous record, for the
	// Profile's per-iteration average power.
	prevSimNs int64
	prevJ     float64
}

// NewPublisher returns the publisher for a solve with options opt and
// scope sc (nil: none). setPoint is the controller's P for the health
// gauges (0 when the solve has none). It is returned by value so a solve
// allocates nothing for it.
func NewPublisher(opt *Options, sc *obs.Scope, setPoint float64) Publisher {
	return Publisher{
		rec:    opt.Flight,
		prof:   opt.Profile,
		live:   sc.Live(),
		health: newHealth(sc, setPoint),
	}
}

// Active reports whether any sink is attached.
func (p *Publisher) Active() bool {
	return p.rec != nil || p.prof != nil || p.live != nil
}

// Publish hands one finished iteration's record to every sink. edges is
// the iteration's relaxed-edge count, which the Profile carries and the
// flight schema does not.
func (p *Publisher) Publish(rec *flight.Record, edges int64) {
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
	p.live.Iteration(rec.K, rec.X1, rec.FarSize, rec.X2, rec.DeltaOut, rec.SimTimeNs)
	p.health.observe(rec)
}
