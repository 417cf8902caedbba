package sssp

import (
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
)

// Schedule is the extraction rule Drive plugs into the near-far loop: what
// happens to the far side of each bisect, and how the next frontier and
// threshold are chosen. NearFar's flat and rho far queues and the
// self-tuning solver's controller (internal/core) implement it, each over
// its own far queue. Drive calls Next once per iteration, never once per
// vertex.
type Schedule interface {
	// Start binds the schedule to the solve's kernels. It returns the
	// first bisect threshold and the schedule's flight-header fields;
	// Drive adds the graph's.
	Start(kn *Kernels) (graph.Dist, flight.Header)
	// Defer pushes far, the bisect's far side with each vertex's current
	// distance, onto the schedule's far queue. Drive calls it inside the
	// bisect's rebalance span, before Next.
	Defer(far []frontier.Entry)
	// Next takes the bisect's near side (X⁴ = len(near)) and the
	// iteration's X¹ and X², and returns the next frontier, appended to
	// near, and the next bisect threshold. It charges its own far-queue
	// and controller work under its own spans. rec is nil while no sink is
	// attached; otherwise Drive has filled K, X¹–X⁴ and JumpMin = -1, and
	// Next fills the schedule's fields.
	Next(near []graph.VID, x1, x2 int, rec *flight.Record) ([]graph.VID, graph.Dist)
}

// Drive runs the near-far loop from src with schedule s. Each iteration
// advances the frontier (relax and filter), bisects the filter output at
// the schedule's threshold, defers the far side to s, charges the bisect,
// and hands the near side to s.Next. alg names the solve's observability
// scope. The livelock guard turns a schedule that stops making progress
// into ErrLivelock rather than a hang.
func Drive(g *graph.Graph, src graph.VID, alg string, s Schedule, opt *Options) (Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	if err := checkSource(g, src); err != nil {
		return Result{}, err
	}
	start := time.Now()
	var startSim time.Duration
	var startJ float64
	if opt.Machine != nil {
		startSim, startJ = opt.Machine.Now(), opt.Machine.Energy()
	}

	dist := newDist(g.NumVertices(), src)
	kn := NewKernels(g, opt.pool(), opt.Machine, dist)
	sc, ownScope := opt.acquireScope(alg)
	if ownScope {
		defer sc.Close()
	}
	kn.Observe(sc)
	defer kn.Release()
	thr, hdr := s.Start(kn)
	front := append(kn.frontierBuf(), src)

	pub := publisher{rec: opt.Flight, prof: opt.Profile}
	if opt.Flight != nil {
		hdr.Vertices, hdr.Edges, hdr.Source = int64(g.NumVertices()), g.NumEdges(), int64(src)
		opt.Flight.SetHeader(hdr)
		opt.Obs.SetFlight(opt.Flight) // nil-safe; a rejected solve never gets here
	}
	var fr flight.Record

	var res Result
	guard := opt.maxIters(g)
	tr := kn.Trace()
	spSolve := tr.BeginSolve()
	defer func() { spSolve.End(int64(res.Iterations)) }()
	for len(front) > 0 {
		if res.Iterations++; res.Iterations > guard {
			kn.putFrontierBuf(front)
			return res, ErrLivelock
		}
		spIter := tr.BeginIter(res.Iterations - 1)
		x1 := len(front)
		adv := kn.Advance(front)
		res.EdgesRelaxed += adv.Edges
		res.Updates += int64(adv.X2)

		// bisect-frontier: split the filter output around the threshold
		// and queue the far side.
		spB := tr.Begin(obs.PhaseRebalance)
		near, far := kn.Bisect(adv.Out, thr, front)
		s.Defer(far)
		simB := kn.SimNow()
		durB := kn.chargeBisect(len(adv.Out))
		spB.EndSim(int64(len(adv.Out)), simB, durB)

		var rec *flight.Record
		if pub.active() {
			fr = flight.Record{
				K:  int64(res.Iterations - 1),
				X1: int64(x1), X2: int64(adv.X2), X3: int64(len(adv.Out)), X4: int64(len(near)),
				JumpMin: -1,
			}
			rec = &fr
		}
		front, thr = s.Next(near, x1, adv.X2, rec)
		if rec != nil {
			if opt.Machine != nil {
				rec.SimTimeNs = int64(opt.Machine.Now() - startSim)
				rec.EnergyJ = opt.Machine.Energy() - startJ
			}
			pub.publish(rec, adv.Edges)
		}
		spIter.End(int64(adv.X2))
	}
	kn.putFrontierBuf(front)
	res.Dist = dist
	finishResult(&res, opt, start, startSim, startJ)
	return res, nil
}
