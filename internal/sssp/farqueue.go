package sssp

import (
	"fmt"
	"strings"

	"energysssp/internal/graph"
)

// FarQueueStrategy selects the far-queue structure and phase-advance
// policy of NearFar's stage 4. Every choice computes exact shortest-path
// distances and charges the simulated far-queue kernel per scanned entry,
// so the strategies differ in host performance and phase schedule, never
// in results.
type FarQueueStrategy uint8

const (
	// FarAuto (the zero value) picks rho, the faster strategy on the
	// evaluation workloads.
	FarAuto FarQueueStrategy = iota
	// FarFlat is the paper baseline's unpartitioned queue: every phase
	// change rescans all entries. The evaluation harness pins this for
	// the fixed-delta baseline so paper-reproduction numbers keep the
	// paper's algorithm shape.
	FarFlat
	// FarRho stores entries in lazy-deletion distance buckets a fraction
	// of delta wide, and extraction drains consecutive buckets until the
	// batch is large enough to saturate the workers (rho-stepping).
	// Near-Dijkstra ordering slashes redundant relaxations at coarse
	// deltas (the regime the simulated-time-tuned delta* lands in).
	FarRho
)

// String names the strategy.
func (s FarQueueStrategy) String() string {
	switch s {
	case FarFlat:
		return "flat"
	case FarRho:
		return "rho"
	default:
		return "auto"
	}
}

// ParseFarQueue converts a name (as printed by String) to a strategy.
func ParseFarQueue(s string) (FarQueueStrategy, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FarAuto, nil
	case "flat":
		return FarFlat, nil
	case "rho":
		return FarRho, nil
	default:
		return 0, fmt.Errorf("sssp: unknown far-queue strategy %q (want auto, flat, or rho)", s)
	}
}

// Far-queue policy parameters. Every value is deterministic in the solver
// configuration (delta, pool size) — never in timing — so phase schedules
// replay bit-identically.
const (
	// rhoWidthDiv subdivides the caller's delta into rho buckets:
	// width = max(1, delta/rhoWidthDiv). Coarse deltas (like the
	// simulated-time-optimal delta* on road networks) admit whole
	// delta-wide bands at once and redo up to ~8x the edge relaxations;
	// finer buckets restore near-Dijkstra ordering while batching keeps
	// phases large enough to parallelize.
	rhoWidthDiv = 32
	// rhoBatchPerWorker sizes the extraction batch target: enough
	// vertices per worker that one phase amortizes its advance setup.
	rhoBatchPerWorker = 4 * advanceGrain
	// rhoBatchMin floors the batch target for tiny pools.
	rhoBatchMin = 512
)

// rhoWidth is the FarRho bucket width for a solver delta.
func rhoWidth(delta graph.Dist) graph.Dist {
	w := delta / rhoWidthDiv
	if w < 1 {
		w = 1
	}
	return w
}

// rhoBatch is the FarRho extraction batch target for a pool size.
func rhoBatch(workers int) int {
	b := workers * rhoBatchPerWorker
	if b < rhoBatchMin {
		b = rhoBatchMin
	}
	return b
}
