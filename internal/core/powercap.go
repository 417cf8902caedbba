package core

import (
	"fmt"
	"math"
	"time"

	"energysssp/internal/graph"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// This file implements the extension the paper's Section 6 proposes as
// future work: closing the control loop on *measured power* rather than
// parallelism. "In principle, a user might specify a power limit instead of
// P, and the controller could then adjust itself in response to direct
// power observations. While that is not possible on the Jetson evaluation
// platforms..." — it is possible on the simulated board, whose PowerMon
// measurements are available per iteration.

// PowerCapConfig parameterizes the power-feedback solver.
type PowerCapConfig struct {
	// CapWatts is the average board-power budget. Required.
	CapWatts float64
	// Window is the number of iterations between set-point adjustments
	// (default 16 — long enough for the power estimate to be meaningful,
	// short enough to react within a phase).
	Window int
	// InitialP seeds the inner parallelism set-point (default 1024).
	InitialP float64
	// MinP and MaxP bound the set-point excursion (defaults 32 and 2^22);
	// MinP may not exceed MaxP. Every float field must be finite.
	MinP, MaxP float64
	// Gamma is the multiplicative-adjustment exponent
	// (P ← P·(cap/measured)^Gamma, default 1): higher reacts faster but
	// can oscillate.
	Gamma float64
}

func (pc PowerCapConfig) withDefaults() PowerCapConfig {
	if pc.Window <= 0 {
		pc.Window = 16
	}
	if pc.InitialP <= 0 {
		pc.InitialP = 1024
	}
	if pc.MinP <= 0 {
		pc.MinP = 32
	}
	if pc.MaxP <= 0 {
		pc.MaxP = 1 << 22
	}
	if pc.Gamma <= 0 {
		pc.Gamma = 1
	}
	return pc
}

// powerCapPolicy wraps the paper's Controller and retunes its set-point
// from windowed power measurements, exploiting the monotone P→power
// relationship of Figure 8.
type powerCapPolicy struct {
	*Controller
	mach *sim.Machine
	cfg  PowerCapConfig

	count  int
	lastT  time.Duration
	lastJ  float64
	pTrace []float64
}

// NextDelta intercepts the per-iteration call to apply the power loop
// before delegating to the inner controller.
func (p *powerCapPolicy) NextDelta(q QueueState) float64 {
	p.count++
	if p.count%p.cfg.Window == 0 {
		now, j := p.mach.Now(), p.mach.Energy()
		dt := (now - p.lastT).Seconds()
		if dt > 0 {
			watts := (j - p.lastJ) / dt
			ratio := p.cfg.CapWatts / watts
			next := p.Controller.P * math.Pow(ratio, p.cfg.Gamma)
			next = math.Min(math.Max(next, p.cfg.MinP), p.cfg.MaxP)
			p.Controller.P = next
			p.pTrace = append(p.pTrace, next)
		}
		p.lastT, p.lastJ = now, j
	}
	return p.Controller.NextDelta(q)
}

// SolveWithPowerCap runs the self-tuning solver with the set-point driven
// by measured power toward capWatts. opt.Machine is required (the power
// readings come from it). It returns the result and the trace of set-point
// adjustments.
func SolveWithPowerCap(g *graph.Graph, src graph.VID, pc PowerCapConfig, opt *sssp.Options) (sssp.Result, []float64, error) {
	if opt == nil || opt.Machine == nil {
		return sssp.Result{}, nil, fmt.Errorf("core: power-cap solve requires a simulated machine")
	}
	if !(pc.CapWatts > 0) || math.IsInf(pc.CapWatts, 1) {
		return sssp.Result{}, nil, fmt.Errorf("core: power cap must be positive and finite, got %g", pc.CapWatts)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"InitialP", pc.InitialP}, {"MinP", pc.MinP}, {"MaxP", pc.MaxP}, {"Gamma", pc.Gamma}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return sssp.Result{}, nil, fmt.Errorf("core: power-cap %s must be finite, got %g", f.name, f.v)
		}
	}
	pc = pc.withDefaults()
	if pc.MinP > pc.MaxP {
		return sssp.Result{}, nil, fmt.Errorf("core: power-cap MinP %g exceeds MaxP %g", pc.MinP, pc.MaxP)
	}
	avgDeg := float64(g.NumEdges()) / math.Max(1, float64(g.NumVertices()))
	inner := NewController(pc.InitialP, avgDeg, 1)
	policy := &powerCapPolicy{
		Controller: inner,
		mach:       opt.Machine,
		cfg:        pc,
		lastT:      opt.Machine.Now(),
		lastJ:      opt.Machine.Energy(),
	}
	res, err := Solve(g, src, Config{Policy: policy}, opt)
	return res, policy.pTrace, err
}
