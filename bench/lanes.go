package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	es "energysssp"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sssp"
)

// solve is one checked Run call of a lane.
type solve struct {
	idx            int     // claim number; source = sources[idx % len(sources)]
	ms             float64 // host wall time of the Run call
	simMJ, simMs   float64
	iters          int
	edges, updates int64
	layer          *layerSample // traced lanes only
}

// lane is the outcome of one closed loop.
type lane struct {
	solves     []solve
	wall       time.Duration // first claim to last completion
	failed     int
	allocBytes uint64 // runtime TotalAlloc over the lane
}

func (l *lane) attempted() int { return len(l.solves) + l.failed }

// add appends another block of the same lane.
func (l *lane) add(o *lane) {
	l.solves = append(l.solves, o.solves...)
	l.wall += o.wall
	l.failed += o.failed
	l.allocBytes += o.allocBytes
}

// ms returns the per-solve wall times.
func (l *lane) ms() []float64 {
	out := make([]float64, len(l.solves))
	for i, s := range l.solves {
		out[i] = s.ms
	}
	return out
}

func (l *lane) solvesPerS() float64 { return float64(len(l.solves)) / l.wall.Seconds() }

// runLane runs a closed loop of Run calls: each of clients goroutines claims
// the next solve number, from first on, solves its source, checks the
// result's digest against the oracle outside the timed window, and claims
// again. Claiming stops once budget has elapsed and at least minSolves were
// claimed. A traced lane gives each client its own Observer and records
// per-solve deltas of its cumulative phase, pool and energy totals.
func runLane(in *inputs, cfg es.RunConfig, clients, first int, budget time.Duration, minSolves int, traced bool) *lane {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([]lane, clients)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := cfg
			if traced {
				cc.Obs = es.NewObserver(0)
				cc.Profile = cfg.SetPoint > 0
			}
			l := &per[c]
			for {
				i := int(next.Add(1) - 1)
				if i >= first+minSolves && time.Since(start) >= budget {
					return
				}
				k := i % len(in.sources)
				var before obsTotals
				if traced {
					before = readTotals(cc.Obs)
				}
				t0 := time.Now()
				out, err := es.Run(in.g, in.sources[k], cc)
				wall := time.Since(t0)
				if err != nil || distDigest(out.Dist) != in.digests[k] {
					l.failed++
					continue
				}
				s := solve{
					idx:     i,
					ms:      float64(wall.Nanoseconds()) / 1e6,
					simMJ:   out.EnergyJ * 1e3,
					simMs:   float64(out.SimTime.Nanoseconds()) / 1e6,
					iters:   out.Iterations,
					edges:   out.EdgesRelaxed,
					updates: out.Updates,
				}
				if traced {
					s.layer = newLayerSample(wall, readTotals(cc.Obs).plus(before, -1), out, cfg.SetPoint)
				}
				l.solves = append(l.solves, s)
			}
		}()
	}
	wg.Wait()
	res := &lane{wall: time.Since(start)}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for i := range per {
		res.add(&per[i])
	}
	return res
}

// obsTotals is a snapshot of an Observer's cumulative counters.
type obsTotals struct {
	phase    [obs.NumPhases]obs.PhaseTotals
	joules   [obs.NumPhases]float64
	launches int64
	launchNs int64 // wall time inside pool launches
	busyNs   int64 // summed over workers
}

func readTotals(o *es.Observer) obsTotals {
	var t obsTotals
	for p := range obs.NumPhases {
		t.phase[p] = o.PhaseTotals(obs.Phase(p))
		t.joules[p] = o.Energy().PhaseJoules(obs.Phase(p))
	}
	ps := o.PoolStats()
	t.launches, t.launchNs = ps.Launches(), ps.BusyNs()
	for w := range ps.Workers() {
		t.busyNs += ps.WorkerBusyNs(w)
	}
	return t
}

// plus returns t + sign·b.
func (t obsTotals) plus(b obsTotals, sign int64) obsTotals {
	for p := range t.phase {
		t.phase[p].Count += sign * b.phase[p].Count
		t.phase[p].HostNs += sign * b.phase[p].HostNs
		t.phase[p].SimNs += sign * b.phase[p].SimNs
		t.phase[p].Items += sign * b.phase[p].Items
		t.joules[p] += float64(sign) * b.joules[p]
	}
	t.launches += sign * b.launches
	t.launchNs += sign * b.launchNs
	t.busyNs += sign * b.busyNs
	return t
}

// layerSample is what one traced solve contributes to the per-layer metrics.
type layerSample struct {
	wallNs       int64
	obsTotals            // this solve's share of the observer's totals
	trackErr     float64 // median |X²−P|/P over iterations; 0 without P
	convergeIter float64 // first iteration with a converged model; 0 without P
}

func newLayerSample(wall time.Duration, d obsTotals, out *es.RunOutput, setPoint float64) *layerSample {
	s := &layerSample{wallNs: wall.Nanoseconds(), obsTotals: d}
	if out.Profile == nil || setPoint <= 0 {
		return s
	}
	errs := make([]float64, len(out.Profile.Iters))
	for i, it := range out.Profile.Iters {
		errs[i] = math.Abs(float64(it.X2)-setPoint) / setPoint
	}
	s.trackErr = quantile(errs, 0.5)
	s.convergeIter = float64(out.Profile.ConvergenceIter())
	if s.convergeIter < 0 {
		s.convergeIter = float64(out.Iterations) // never converged
	}
	return s
}

// forkJoinNs times empty Pool.Run launches on an nproc-worker pool: the
// fixed cost every parallel kernel pays per iteration.
func forkJoinNs(budget time.Duration) float64 {
	pool := parallel.NewPool(runtime.NumCPU())
	defer pool.Close()
	noop := func(int) {}
	const batch = 256
	for range batch {
		pool.Run(noop)
	}
	var per []float64
	for start := time.Now(); len(per) == 0 || time.Since(start) < budget; {
		t0 := time.Now()
		for range batch {
			pool.Run(noop)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return quantile(per, 0.5)
}

// advanceNsPerEdge times Kernels.Advance over the fully converged frontier
// reached from src (no distance changes, so every pass does the same work)
// on a pool of each given size, and returns the median ns per edge per size.
func advanceNsPerEdge(g *es.Graph, src es.VID, workers []int, budget time.Duration) ([]float64, error) {
	res, err := sssp.Dijkstra(g, src, nil)
	if err != nil {
		return nil, err
	}
	var front []es.VID
	var edges int64
	for v, d := range res.Dist {
		if d < es.Inf {
			front = append(front, es.VID(v))
			edges += g.OutDegree(es.VID(v))
		}
	}
	out := make([]float64, len(workers))
	for i, w := range workers {
		out[i] = timeAdvance(g, res.Dist, front, edges, w, budget)
	}
	return out, nil
}

func timeAdvance(g *es.Graph, dist []es.Dist, front []es.VID, edges int64, workers int, budget time.Duration) float64 {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	kn := sssp.NewKernels(g, pool, nil, dist)
	defer kn.Release()
	kn.Advance(front) // grow the scratch buffers before timing
	var per []float64
	for start := time.Now(); len(per) == 0 || time.Since(start) < budget; {
		t0 := time.Now()
		kn.Advance(front)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(edges))
	}
	return quantile(per, 0.5)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
