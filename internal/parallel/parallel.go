// Package parallel provides a small, allocation-conscious toolkit for
// data-parallel loops: a reusable worker pool, static and dynamic
// (work-stealing-style) parallel-for primitives, and atomic helpers used by
// the SSSP relaxation kernels.
//
// The package deliberately mirrors the execution structure of a GPU kernel
// launch: a loop over n independent items is split into chunks that are
// executed by a fixed set of workers. The simulated device model in
// internal/sim charges time and energy for these "kernels" independently of
// wall-clock behaviour, while this package makes the work actually execute
// concurrently on the host CPU.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultGrain is the default number of items in a dynamically scheduled
// chunk. Small enough to balance irregular per-item work (variable vertex
// degrees), large enough to amortize the atomic fetch-add per chunk.
const DefaultGrain = 512

// MaxWorkers returns the degree of parallelism used by Run and For when the
// pool is constructed with size 0: the number of usable CPUs.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool is a reusable set of worker goroutines. The zero value is not usable;
// construct with NewPool. A Pool with size 1 degenerates to sequential
// execution in the calling goroutine, which keeps single-threaded runs
// deterministic and cheap.
//
// Pool is safe for sequential reuse; a single Run/For/Dynamic call must
// finish before the next begins. (SSSP iterations are themselves sequential,
// so this matches the usage pattern.)
type Pool struct {
	size  int
	jobs  []chan func(worker int)
	wg    sync.WaitGroup
	once  sync.Once
	stats atomic.Pointer[PoolStats] // nil: no observation (the default)
}

// NewPool creates a pool with the given number of workers. size <= 0 selects
// MaxWorkers().
func NewPool(size int) *Pool {
	if size <= 0 {
		size = MaxWorkers()
	}
	return &Pool{size: size}
}

// Size reports the number of workers in the pool.
func (p *Pool) Size() int { return p.size }

func (p *Pool) start() {
	p.jobs = make([]chan func(worker int), p.size)
	for w := 0; w < p.size; w++ {
		ch := make(chan func(worker int))
		p.jobs[w] = ch
		go func(w int, ch chan func(worker int)) {
			for f := range ch {
				if st := p.stats.Load(); st != nil {
					t0 := time.Now()
					f(w)
					st.RecordWorker(w, time.Since(t0))
				} else {
					f(w)
				}
				p.wg.Done()
			}
		}(w, ch)
	}
}

// Close shuts down the worker goroutines. The pool must be idle. Close is
// optional: an abandoned pool's goroutines are reclaimed at process exit,
// but tests close pools to keep goroutine counts flat.
func (p *Pool) Close() {
	if p.jobs != nil {
		for _, ch := range p.jobs {
			close(ch)
		}
		p.jobs = nil
	}
}

// Observe attaches (or, with nil, detaches) a launch/busy-time accumulator
// and enables its per-worker busy table for this pool's size. Pair it with
// Unobserve when the observed work ends, so later launches are neither
// timed nor counted. Observation times each Run launch (and each worker's
// share of it) with host clock reads; an unobserved pool pays one atomic
// load per launch. The stats
// pointer is atomic so concurrent solves observing one shared pool stay
// race-free. Host-side only — simulated time and energy are charged by
// internal/sim regardless of whether the pool is observed.
func (p *Pool) Observe(s *PoolStats) {
	s.EnableWorkers(p.size)
	p.stats.Store(s)
}

// Unobserve detaches s if it is still the pool's accumulator, and leaves
// an accumulator attached since then in place.
func (p *Pool) Unobserve(s *PoolStats) {
	p.stats.CompareAndSwap(s, nil)
}

// Run invokes f once per worker, concurrently, and waits for all invocations
// to finish. f receives the worker index in [0, Size()).
func (p *Pool) Run(f func(worker int)) {
	st := p.stats.Load()
	if st == nil {
		p.run(f)
		return
	}
	start := time.Now()
	if p.size == 1 {
		// Sequential pools run in the caller; the launch is worker 0's
		// busy time.
		f(0)
		st.RecordWorker(0, time.Since(start))
	} else {
		p.run(f)
	}
	st.Record(time.Since(start))
}

func (p *Pool) run(f func(worker int)) {
	if p.size == 1 {
		f(0)
		return
	}
	p.once.Do(p.start)
	p.wg.Add(p.size)
	for w := 0; w < p.size; w++ {
		p.jobs[w] <- f
	}
	p.wg.Wait()
}

// For executes body over the half-open range [0, n) using a static block
// partition: worker w receives one contiguous block. Use for loops whose
// per-item cost is roughly uniform.
func (p *Pool) For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.size == 1 || n < 2*p.size {
		body(0, n)
		return
	}
	p.Run(func(w int) {
		if lo, hi := Block(n, p.size, w); lo < hi {
			body(lo, hi)
		}
	})
}

// Dynamic executes body over [0, n) using dynamic chunk scheduling: workers
// repeatedly claim the next chunk of grain items with an atomic counter.
// Use for irregular loops (e.g. frontier expansion where vertex degree
// varies by orders of magnitude). grain <= 0 selects DefaultGrain.
func (p *Pool) Dynamic(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if p.size == 1 || n <= grain {
		body(0, n)
		return
	}
	var next atomic.Int64
	p.Run(func(int) {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	})
}

// DynamicWorker is Dynamic with the executing worker's index passed to the
// body, so callers can accumulate into per-worker buffers without locking
// (the frontier-expansion kernels use this to collect output vertices).
func (p *Pool) DynamicWorker(n, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if p.size == 1 || n <= grain {
		body(0, 0, n)
		return
	}
	var next atomic.Int64
	p.Run(func(w int) {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(w, lo, hi)
		}
	})
}

// SumInt64 computes a parallel sum-reduction of f over [0, n) without
// false-sharing on the partials.
func (p *Pool) SumInt64(n int, f func(i int) int64) int64 {
	if n <= 0 {
		return 0
	}
	type padded struct {
		v int64
		_ [7]int64
	}
	partial := make([]padded, p.size)
	p.For(n, func(lo, hi int) {
		w := workerOf(lo, n, p.size)
		var s int64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[w].v += s
	})
	var total int64
	for i := range partial {
		total += partial[i].v
	}
	return total
}

// Block returns block i of [0, n) split into parts contiguous static
// blocks of ceil(n/parts) items; the trailing blocks may be short or empty.
// The blocks tile [0, n) in order, so per-block outputs concatenated in
// block order keep the items' order.
func Block(n, parts, i int) (lo, hi int) {
	chunk := (n + parts - 1) / parts
	lo = min(i*chunk, n)
	return lo, min(lo+chunk, n)
}

// workerOf maps a static-partition chunk start back to its worker index.
func workerOf(lo, n, size int) int {
	if n < 2*size {
		return 0
	}
	chunk := (n + size - 1) / size
	return lo / chunk
}

// MinInt64 atomically lowers *addr to v if v is smaller. It reports whether
// the stored value was lowered. This is the CPU analogue of the CUDA
// atomicMin used by the Gunrock filter/advance stages.
func MinInt64(addr *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, v) {
			return true
		}
	}
}

// LoadInt64 performs an atomic load of *addr. Exposed so callers relaxing
// edges can read distances racily-but-safely during a parallel kernel.
func LoadInt64(addr *int64) int64 { return atomic.LoadInt64(addr) }

// StoreInt64 performs an atomic store.
func StoreInt64(addr *int64, v int64) { atomic.StoreInt64(addr, v) }
