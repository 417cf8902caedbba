package core

import (
	"fmt"
	"math"

	"energysssp/internal/flight"
	"energysssp/internal/graph"
)

// ReplayFlight re-executes a recorded run's δ decisions purely from the
// flight log and reports every place the re-executed trajectory differs
// from the recorded one — compared on exact float64 bits, so any
// nondeterminism in the controller (map iteration, uninitialized state,
// clock leakage) surfaces as a mismatch instead of hiding inside an
// epsilon.
//
// Replay semantics by log algorithm:
//
//   - "selftuning": rebuild the controller from the header seeds, then per
//     record run Observe(X¹, X²) → NextDelta(recorded queue state) →
//     SetApplied(recorded Δδ, X⁴), asserting the δ decision, both clamped
//     estimates, and all six vSGD internals of each model. The recorded
//     per-iteration SetPoint is applied before each decision, which makes
//     power-capped runs (whose policy retunes P) replayable too.
//   - "nearfar" with a flat far queue, the removed lazy one (which ran
//     flat's schedule), or a v1 log (which predates the strategies): recompute the fixed-delta phase schedule from the
//     header's FixedDelta and each record's (X⁴, FarLen, JumpMin),
//     asserting the threshold trajectory. Both strategies share the exact
//     recompute — the flat driver's jump-and-retry telescopes to the same
//     final threshold as a single jump from the last recorded minimum.
//   - "nearfar" with a rho far queue: the batch schedule depends on which
//     buckets were populated (not recorded per entry), so replay validates
//     the threshold trajectory's invariants instead: continuity, bucket-
//     width alignment, monotonicity, and strict advance exactly when the
//     near frontier drained with far work pending.
//
// The log must be contiguous from iteration 0 (a wrapped recorder ring has
// lost the history the model state depends on) — size the ring to the run
// when replay matters.
func ReplayFlight(l *flight.Log) (*flight.ReplayReport, error) {
	if len(l.Records) == 0 {
		return nil, fmt.Errorf("core: flight log has no records")
	}
	if !l.Contiguous() {
		return nil, fmt.Errorf("core: flight log is not contiguous from iteration 0 (recorder ring wrapped? dropped %d-record prefix)", l.Records[0].K)
	}
	switch l.Header.Algorithm {
	case "selftuning":
		return replaySelfTuning(l), nil
	case "nearfar":
		return replayNearFar(l)
	default:
		return nil, fmt.Errorf("core: flight log algorithm %q is not replayable (custom policy state is not recorded)", l.Header.Algorithm)
	}
}

func bitsDiffer(a, b float64) bool {
	return math.Float64bits(a) != math.Float64bits(b)
}

func replaySelfTuning(l *flight.Log) *flight.ReplayReport {
	hdr := l.Header
	ctrl := NewController(hdr.SetPoint, hdr.InitialD, hdr.InitialAlpha)
	if hdr.BootstrapIters > 0 {
		ctrl.BootstrapIters = hdr.BootstrapIters
	}
	rep := &flight.ReplayReport{Iterations: len(l.Records)}
	check := func(k int64, field string, want, got float64) {
		if bitsDiffer(want, got) {
			rep.Add(flight.ReplayMismatch{K: k, Field: field, Want: want, Got: got})
		}
	}
	checkModel := func(k int64, name string, want, got *flight.ModelState) {
		check(k, name+".theta", want.Theta, got.Theta)
		check(k, name+".gbar", want.GBar, got.GBar)
		check(k, name+".vbar", want.VBar, got.VBar)
		check(k, name+".hbar", want.HBar, got.HBar)
		check(k, name+".tau", want.Tau, got.Tau)
		check(k, name+".mu", want.Mu, got.Mu)
		check(k, name+".steps", float64(want.Steps), float64(got.Steps))
	}
	var got flight.Record
	for i := range l.Records {
		rec := &l.Records[i]
		// P is an external input to the decision (power-capped runs retune
		// it between iterations); restore the recorded value. Observe never
		// reads P, so ordering relative to it is immaterial.
		ctrl.P = rec.SetPoint
		ctrl.Observe(int(rec.X1), int(rec.X2))
		raw := ctrl.NextDelta(QueueState{
			X4:        int(rec.X4),
			FarLen:    int(rec.FarLen),
			PartBound: graph.Dist(rec.PartBound),
			PartSize:  int(rec.PartSize),
			Delta:     rec.DeltaIn,
		})
		check(rec.K, "rawDelta", rec.RawDelta, raw)
		ctrl.flightModels(&got)
		check(rec.K, "d", rec.D, got.D)
		check(rec.K, "alpha", rec.Alpha, got.Alpha)
		checkModel(rec.K, "advance", &rec.Advance, &got.Advance)
		checkModel(rec.K, "bisect", &rec.Bisect, &got.Bisect)
		// Learn from the Δδ that actually took effect (the solver's phase
		// jump can move the threshold past the controller's decision).
		ctrl.SetApplied(rec.AppliedDelta, float64(rec.X4))
	}
	return rep
}

// replayNearFar recomputes the baseline's phase-threshold schedule: hold δ
// while the near frontier has work; when it drains with far-queue work
// pending, advance to the first δ multiple admitting the recorded minimum
// active distance. Rho logs carry a bucket schedule instead and dispatch
// to the invariant validator.
func replayNearFar(l *flight.Log) (*flight.ReplayReport, error) {
	delta := graph.Dist(l.Header.FixedDelta)
	if delta < 1 {
		return nil, fmt.Errorf("core: near-far flight log carries invalid fixed delta %d", l.Header.FixedDelta)
	}
	switch l.Header.FarQueue {
	case "", "flat", "lazy":
		// Exact recompute below. "" is a v1 log: flat was the only queue.
	case "rho":
		return replayNearFarRho(l)
	default:
		return nil, fmt.Errorf("core: near-far flight log carries unknown far-queue strategy %q", l.Header.FarQueue)
	}
	rep := &flight.ReplayReport{Iterations: len(l.Records)}
	check := func(k int64, field string, want, got float64) {
		if bitsDiffer(want, got) {
			rep.Add(flight.ReplayMismatch{K: k, Field: field, Want: want, Got: got})
		}
	}
	thr := delta
	for i := range l.Records {
		rec := &l.Records[i]
		check(rec.K, "deltaIn", rec.DeltaIn, float64(thr))
		if rec.X4 == 0 && rec.FarLen > 0 {
			if minD := graph.Dist(rec.JumpMin); minD < graph.Inf {
				if minD > thr {
					steps := (minD - thr + delta - 1) / delta
					thr += steps * delta
				} else {
					thr += delta
				}
			}
		}
		check(rec.K, "deltaOut", rec.DeltaOut, float64(thr))
	}
	return rep, nil
}

// replayNearFarRho validates a rho-strategy near-far log. The rho schedule
// drains whole buckets until the batch target is met, so the thresholds it
// visits depend on which buckets held entries — state the log does not
// carry per entry. What the log does pin down is the trajectory's shape,
// and every property below is an exact consequence of the ExtractBatch
// contract, so a violation means the log was not produced by the recorded
// configuration:
//
//   - deltaIn is the header delta at iteration 0 and the previous deltaOut
//     afterwards (the solver never moves the threshold between stage 4 and
//     the next bisect);
//   - the threshold only changes when the near frontier drained with far
//     work pending (X⁴ == 0 and FarLen > 0), and then it must strictly
//     increase to a bucket-width-aligned boundary (ExtractBatch always
//     drains at least one bucket and lands on the last one's boundary);
//   - rho performs no minimum-distance jumps, so JumpMin stays -1.
func replayNearFarRho(l *flight.Log) (*flight.ReplayReport, error) {
	width := l.Header.FarWidth
	if width < 1 {
		return nil, fmt.Errorf("core: rho near-far flight log carries invalid bucket width %d", l.Header.FarWidth)
	}
	rep := &flight.ReplayReport{Iterations: len(l.Records)}
	check := func(k int64, field string, want, got float64) {
		if bitsDiffer(want, got) {
			rep.Add(flight.ReplayMismatch{K: k, Field: field, Want: want, Got: got})
		}
	}
	prevOut := float64(l.Header.FixedDelta)
	for i := range l.Records {
		rec := &l.Records[i]
		check(rec.K, "deltaIn", rec.DeltaIn, prevOut)
		check(rec.K, "jumpMin", float64(rec.JumpMin), -1)
		if rec.X4 == 0 && rec.FarLen > 0 {
			if rec.DeltaOut <= rec.DeltaIn {
				rep.Add(flight.ReplayMismatch{K: rec.K, Field: "deltaOut(advance)", Want: rec.DeltaIn + 1, Got: rec.DeltaOut})
			}
			if out := int64(rec.DeltaOut); bitsDiffer(float64(out), rec.DeltaOut) || out%width != 0 {
				rep.Add(flight.ReplayMismatch{K: rec.K, Field: "deltaOut(align)", Want: float64((int64(rec.DeltaOut) / width) * width), Got: rec.DeltaOut})
			}
		} else {
			check(rec.K, "deltaOut", rec.DeltaOut, rec.DeltaIn)
		}
		prevOut = rec.DeltaOut
	}
	return rep, nil
}
