package main

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	es "energysssp"
	"energysssp/internal/sssp"
)

// datasetSeed fixes the generated graphs. The graph is the dataset under
// test, as the paper's Cal and Wiki inputs are; --seed draws the query
// sources. Seeded graphs would add instance-to-instance spread (about 3% in
// simulated energy at 1/8 scale, 8% at 1/64) on top of the source spread.
const datasetSeed = 42

// A run generates its graph and tunes δ* at least setupMinReps times and
// for at least setupMinTime, and reports the median; the small road-batch
// graph sets up in about 50 ms, so it needs many repetitions to be steady.
const (
	setupMinReps = 3
	setupMinTime = time.Second
)

// workload is one closed-loop traffic mix of energysssp.Run calls. Why each
// one was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name     string
	wiki     bool    // WikiLike instead of CalLike
	scale    float64 // generator scale
	alg      es.Algorithm
	setPoint float64 // SelfTuning's P
	batch    bool    // nproc clients, each solve single-threaded
	sources  int     // seeded sources, cycled in a seeded order
}

var workloads = []workload{
	{
		name:    "road-nearfar",
		scale:   1.0 / 8,
		alg:     es.NearFar,
		sources: 64,
	},
	{
		name:     "road-selftuning",
		scale:    1.0 / 8,
		alg:      es.SelfTuning,
		setPoint: 2500,
		sources:  64,
	},
	{
		name:     "wiki-selftuning",
		wiki:     true,
		scale:    1.0 / 8,
		alg:      es.SelfTuning,
		setPoint: 75000,
		sources:  64,
	},
	{
		name:    "road-batch",
		scale:   1.0 / 64,
		alg:     es.NearFar,
		batch:   true,
		sources: 256,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload for the smoke test: 1/32 of the scale and of the
// set-point (1/256 for the 1/8 graphs), and four sources.
func (w workload) quick() workload {
	w.scale /= 32
	w.setPoint /= 32
	w.sources = 4
	return w
}

func (w workload) generate() *es.Graph {
	if w.wiki {
		return es.WikiLike(w.scale, datasetSeed)
	}
	return es.CalLike(w.scale, datasetSeed)
}

func (w workload) clients() int {
	if w.batch {
		return runtime.NumCPU()
	}
	return 1
}

// config is the Run configuration every timed solve of w uses.
func (w workload) config(delta es.Dist) es.RunConfig {
	cfg := es.RunConfig{
		Algorithm: w.alg,
		Delta:     delta,
		SetPoint:  w.setPoint,
		Workers:   runtime.NumCPU(),
		Device:    "TK1",
	}
	if w.batch {
		cfg.Workers = 0
	}
	return cfg
}

// inputs is everything a run derives from (workload, seed) before timing.
type inputs struct {
	g       *es.Graph
	delta   es.Dist
	sources []es.VID
	digests []uint64 // oracle distance digest per source

	setupS, genS, tuneS float64 // medians over the repetitions
	oracleS             float64
	dijkstraMs          []float64 // oracle solve times, one per source
}

// prepare generates the graph and tunes δ* repeatedly, then draws the
// sources and their oracle digests with oracleWorkers goroutines.
func prepare(w workload, seed uint64, oracleWorkers int) (*inputs, error) {
	in := &inputs{}
	var setup, gen, tune []float64
	for start := time.Now(); len(setup) < setupMinReps || time.Since(start) < setupMinTime; {
		t0 := time.Now()
		g := w.generate()
		t1 := time.Now()
		// δ* is tuned on a vertex fixed by the graph (its first
		// highest-out-degree vertex, as the evaluation harness does) with one
		// worker, so it is a pure function of the graph.
		d, err := es.TuneDelta(g, hubVertex(g), "TK1", 1)
		if err != nil {
			return nil, fmt.Errorf("tune delta: %w", err)
		}
		t2 := time.Now()
		setup = append(setup, t2.Sub(t0).Seconds())
		gen = append(gen, t1.Sub(t0).Seconds())
		tune = append(tune, t2.Sub(t1).Seconds())
		in.g, in.delta = g, d
		runtime.GC() // the next repetition starts from the same heap
	}
	in.setupS, in.genS, in.tuneS = quantile(setup, 0.5), quantile(gen, 0.5), quantile(tune, 0.5)

	t0 := time.Now()
	if err := in.drawSources(w.sources, seed, oracleWorkers); err != nil {
		return nil, err
	}
	in.oracleS = time.Since(t0).Seconds()
	return in, nil
}

func hubVertex(g *es.Graph) es.VID {
	var best es.VID
	for u := range g.NumVertices() {
		if g.OutDegree(es.VID(u)) > g.OutDegree(best) {
			best = es.VID(u)
		}
	}
	return best
}

// drawSources draws k seeded sources, one from each of k equal slices of
// the vertex ids, and runs the Dijkstra oracle on each. Drawing per slice
// narrows the spread of a run's medians across seeds. A candidate whose
// oracle reaches fewer than a quarter of the vertices is redrawn from its
// slice: WikiLike's giant out-component holds just under half of them, and
// a source outside it solves in one iteration. The sources are then cycled
// in a seeded random order.
func (in *inputs) drawSources(k int, seed uint64, workers int) error {
	n := in.g.NumVertices()
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	in.sources = make([]es.VID, k)
	in.digests = make([]uint64, k)
	in.dijkstraMs = make([]float64, k)
	pending := make([]int, k) // slices still without a source
	for i := range pending {
		pending[i] = i
	}
	for round := 0; len(pending) > 0; round++ {
		if round == 64 {
			return fmt.Errorf("%d id slices have no source reaching %d vertices", len(pending), n/4)
		}
		cand := make([]es.VID, len(pending))
		for j, slice := range pending {
			lo, hi := slice*n/k, (slice+1)*n/k
			cand[j] = es.VID(lo + rng.IntN(hi-lo))
		}
		type oracle struct {
			res sssp.Result
			ms  float64
			err error
		}
		out := make([]oracle, len(cand))
		forEach(len(cand), workers, func(j int) {
			t0 := time.Now()
			res, err := sssp.Dijkstra(in.g, cand[j], nil)
			out[j] = oracle{res: res, ms: msSince(t0), err: err}
		})
		var still []int
		for j, slice := range pending {
			o := out[j]
			if o.err != nil {
				return fmt.Errorf("oracle from %d: %w", cand[j], o.err)
			}
			if o.res.Reached < n/4 {
				still = append(still, slice)
				continue
			}
			in.sources[slice] = cand[j]
			in.digests[slice] = distDigest(o.res.Dist)
			in.dijkstraMs[slice] = o.ms
		}
		pending = still
	}
	rng.Shuffle(k, func(i, j int) {
		in.sources[i], in.sources[j] = in.sources[j], in.sources[i]
		in.digests[i], in.digests[j] = in.digests[j], in.digests[i]
		in.dijkstraMs[i], in.dijkstraMs[j] = in.dijkstraMs[j], in.dijkstraMs[i]
	})
	return nil
}

// forEach calls fn(i) for every i in [0, n) on up to workers goroutines.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Digests: a 64-bit multiply-rotate hash over the words of an array. They
// stand in for the arrays themselves, so a run holds one word per source
// instead of one distance array per source.
const digestSeed = 0xcbf29ce484222325

func mix(h, x uint64) uint64 {
	h ^= x * 0x9e3779b97f4a7c15
	return bits.RotateLeft64(h, 31) * 0xbf58476d1ce4e5b9
}

func digest[T int32 | int64](h uint64, xs []T) uint64 {
	for _, x := range xs {
		h = mix(h, uint64(x))
	}
	return h
}

func distDigest(d []es.Dist) uint64 { return digest(digestSeed, d) }

func graphDigest(g *es.Graph) uint64 {
	return digest(digest(digest(digestSeed, g.RowPtr), g.Col), g.Wgt)
}
