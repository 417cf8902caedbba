package sssp

import (
	"fmt"

	"energysssp/internal/flight"
	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
)

// NearFar implements the Gunrock-style near-far SSSP baseline of Davidson
// et al. with a fixed delta (Section 3 of the paper). Each iteration runs
// the four stages:
//
//  1. advance — relax all outgoing edges of the frontier (atomic-min);
//  2. filter — deduplicate updated vertices through an epoch-stamped
//     byte mark (Gunrock uses a bitmap);
//  3. bisect-frontier — keep vertices with distance <= (i+1)·delta in the
//     near frontier, push the rest onto the far queue;
//  4. bisect-far-queue — when the near frontier drains, advance the phase
//     threshold and extract qualifying far-queue vertices.
//
// Stages 1–3 are Drive's loop; stage 4 is the schedule Options.FarQueue
// selects: the flat queue rescans every entry per phase change (the paper
// baseline); rho (the FarAuto default) subdivides delta into fine buckets
// and extracts batches big enough to keep the workers saturated, trading
// the coarse delta band's redundant relaxations for near-Dijkstra ordering.
// Stale far-queue entries are dropped lazily on every path.
func NearFar(g *graph.Graph, src graph.VID, delta graph.Dist, opt *Options) (Result, error) {
	if delta < 1 {
		return Result{}, fmt.Errorf("sssp: delta must be >= 1, got %d", delta)
	}
	if opt != nil && opt.FarQueue == FarFlat {
		return Drive(g, src, "nearfar", &flatSchedule{phases: phases{kind: FarFlat, delta: delta}}, opt)
	}
	p := phases{kind: FarRho, delta: delta, width: rhoWidth(delta)}
	s := &rhoSchedule{phases: p, far: frontier.GetLazy(p.width, delta)}
	defer s.far.Release()
	return Drive(g, src, "nearfar", s, opt)
}

// phases is what NearFar's two schedules share: the fixed delta, the
// phase threshold, which moves only in stage 4, and the far queue's flight
// header fields. It implements Schedule.Start for both.
type phases struct {
	kn                *Kernels
	kind              FarQueueStrategy
	delta, thr, width graph.Dist
}

func (p *phases) Start(kn *Kernels) (graph.Dist, flight.Header) {
	p.kn, p.thr = kn, p.delta // the phase-1 boundary
	return p.thr, flight.Header{
		Algorithm:  "nearfar",
		FixedDelta: int64(p.delta),
		FarQueue:   p.kind.String(),
		FarWidth:   int64(p.width),
	}
}

// record fills the schedule's flight fields: the far-queue length and
// threshold before stage 4 (with X⁴ the phase decision's inputs, so the
// threshold schedule replays from the log) and both after it.
func (p *phases) record(rec *flight.Record, farIn int, thrIn graph.Dist, farOut int) {
	if rec != nil {
		rec.FarLen, rec.FarSize = int64(farIn), int64(farOut)
		rec.DeltaIn, rec.RawDelta, rec.DeltaOut = float64(thrIn), float64(p.thr), float64(p.thr)
		rec.AppliedDelta = float64(p.thr) - float64(thrIn)
	}
}

// flatSchedule is the paper baseline's stage 4 over an unpartitioned queue.
type flatSchedule struct {
	phases
	far frontier.Flat
}

func (s *flatSchedule) Defer(far []frontier.Entry) {
	for _, e := range far {
		s.far.Push(e.V, e.D)
	}
}

// Next jumps, when the near frontier drained, to the first delta multiple
// admitting the queue's minimum and extracts. The O(1) MinDist is a lower
// bound (a stale entry may undershoot), so it retries: each failed
// extraction purges the stale minimum and tightens the next bound, and the
// telescoped jumps land on the same final threshold as an exact-minimum
// jump — which is what flight replay recomputes from the last recorded
// JumpMin.
func (s *flatSchedule) Next(near []graph.VID, _, _ int, rec *flight.Record) ([]graph.VID, graph.Dist) {
	dist := s.kn.Dist
	farIn, thrIn := s.far.Len(), s.thr
	front := near
	if len(front) == 0 && s.far.Len() > 0 {
		sp := s.kn.tr.Begin(obs.PhaseRebalance)
		var scanned int
		for len(front) == 0 && s.far.Len() > 0 {
			minD := s.far.MinDist(dist)
			if rec != nil {
				rec.JumpMin = int64(minD)
			}
			t := graph.Inf // only stale entries remain: one cleanup scan
			if minD < graph.Inf {
				if minD > s.thr {
					s.thr += (minD - s.thr + s.delta - 1) / s.delta * s.delta
				} else {
					s.thr += s.delta
				}
				t = s.thr
			}
			var n int
			front, n = s.far.ExtractBelow(t, dist, front)
			scanned += n
		}
		simQ := s.kn.SimNow()
		sp.EndSim(int64(scanned), simQ, s.kn.ChargeFarQueue(scanned))
	}
	s.record(rec, farIn, thrIn, s.far.Len())
	return front, s.thr
}

// rhoSchedule is rho-stepping's stage 4 over lazy-deletion buckets a
// fraction of delta wide.
type rhoSchedule struct {
	phases
	far *frontier.Lazy
}

func (s *rhoSchedule) Defer(far []frontier.Entry) {
	for _, e := range far {
		s.far.Push(e.V, e.D)
	}
}

// Next drains whole buckets, when the near frontier drained, until the
// batch can saturate the workers. The threshold lands on the last drained
// bucket's boundary; it drains again only when a drain came up all-stale.
func (s *rhoSchedule) Next(near []graph.VID, _, _ int, rec *flight.Record) ([]graph.VID, graph.Dist) {
	dist := s.kn.Dist
	farIn, thrIn := s.far.Len(), s.thr
	front := near
	if len(front) == 0 && s.far.Len() > 0 {
		sp := s.kn.tr.Begin(obs.PhaseRebalance)
		batch, scanned := rhoBatch(s.kn.Pool.Size()), 0
		for len(front) == 0 && s.far.Len() > 0 {
			var n int
			front, n, s.thr = s.far.ExtractBatch(batch, dist, front)
			scanned += n
		}
		simQ := s.kn.SimNow()
		sp.EndSim(int64(scanned), simQ, s.kn.ChargeFarQueue(scanned))
	}
	s.record(rec, farIn, thrIn, s.far.Len())
	return front, s.thr
}
