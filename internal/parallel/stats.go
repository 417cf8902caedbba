package parallel

import (
	"sync/atomic"
	"time"
)

// padInt64 is an atomic int64 padded to a cache line so per-worker busy
// counters updated from different worker goroutines never false-share.
type padInt64 struct {
	v atomic.Int64
	_ [7]int64
}

// workerStats is the per-worker busy-time table, swapped in atomically so
// RecordWorker stays lock-free on the kernel hot path.
type workerStats struct {
	epochNs int64 // host clock when per-worker accounting began
	busy    []padInt64
}

// PoolStats counts worker-pool launches, the host wall time spent inside
// them, and — once EnableWorkers is called — per-worker busy time, the
// awake-vs-sleep signal the ROADMAP's shard-sleep model needs. An Observer
// owns one and publishes it as gauges (internal/obs); fields are padded so
// hot atomics sit on separate cache lines. A nil *PoolStats is a no-op,
// which is the pool's default.
type PoolStats struct {
	launches atomic.Int64
	_        [7]int64
	busyNs   atomic.Int64
	_        [7]int64
	workers  atomic.Pointer[workerStats]
}

// Record accounts one pool launch that kept the workers busy for d.
func (s *PoolStats) Record(d time.Duration) {
	if s == nil {
		return
	}
	s.launches.Add(1)
	s.busyNs.Add(int64(d))
}

// EnableWorkers sizes the per-worker busy table for at least n workers.
// Growing swaps in a copy; a sample recorded concurrently with the (rare,
// setup-time) growth can be lost, which is acceptable for a telemetry
// gauge and keeps RecordWorker lock-free.
func (s *PoolStats) EnableWorkers(n int) {
	if s == nil || n <= 0 {
		return
	}
	for {
		old := s.workers.Load()
		if old != nil && len(old.busy) >= n {
			return
		}
		nw := &workerStats{epochNs: time.Now().UnixNano(), busy: make([]padInt64, n)}
		if old != nil {
			nw.epochNs = old.epochNs
			for i := range old.busy {
				nw.busy[i].v.Store(old.busy[i].v.Load())
			}
		}
		if s.workers.CompareAndSwap(old, nw) {
			return
		}
	}
}

// RecordWorker accounts d of busy time to worker w. A no-op until
// EnableWorkers covers w, so unobserved pools pay one atomic load.
//
//hot:alloc-free
func (s *PoolStats) RecordWorker(w int, d time.Duration) {
	if s == nil {
		return
	}
	ws := s.workers.Load()
	if ws == nil || w >= len(ws.busy) {
		return
	}
	ws.busy[w].v.Add(int64(d))
}

// Launches returns the number of recorded pool launches.
func (s *PoolStats) Launches() int64 {
	if s == nil {
		return 0
	}
	return s.launches.Load()
}

// BusyNs returns the total host ns spent inside recorded launches.
func (s *PoolStats) BusyNs() int64 {
	if s == nil {
		return 0
	}
	return s.busyNs.Load()
}

// Workers returns how many workers have per-worker accounting enabled.
func (s *PoolStats) Workers() int {
	if s == nil {
		return 0
	}
	ws := s.workers.Load()
	if ws == nil {
		return 0
	}
	return len(ws.busy)
}

// WorkerBusyNs returns worker w's accumulated busy ns.
func (s *PoolStats) WorkerBusyNs(w int) int64 {
	if s == nil {
		return 0
	}
	ws := s.workers.Load()
	if ws == nil || w >= len(ws.busy) {
		return 0
	}
	return ws.busy[w].v.Load()
}

// AwakeFraction is worker w's busy share of the host time since
// per-worker accounting began: 1 means never asleep, 0 never launched.
func (s *PoolStats) AwakeFraction(w int) float64 {
	if s == nil {
		return 0
	}
	ws := s.workers.Load()
	if ws == nil || w >= len(ws.busy) {
		return 0
	}
	elapsed := time.Now().UnixNano() - ws.epochNs
	if elapsed <= 0 {
		return 0
	}
	f := float64(ws.busy[w].v.Load()) / float64(elapsed)
	if f > 1 {
		f = 1
	}
	return f
}
