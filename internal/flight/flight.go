// Package flight is the controller flight recorder: a preallocated ring of
// fixed-size per-iteration records capturing everything the self-tuning
// controller saw and decided — δₖ, Δδₖ, the d and α estimates with their
// vSGD learning-rate internals (ḡ, v̄, h̄, τ, μ), the stage cardinalities
// X¹–X⁴, the set-point P, the far-queue partition boundaries, the advance
// scheduling path, and the charged simulated time/energy.
//
// The log answers "why did the controller pick this δ?" for any past run
// without re-running it, and it carries enough input state that the
// controller's trajectory can be re-executed bit-identically from the log
// alone (see core.ReplayFlight). On top of the log format the package
// provides run-diff (DiffLogs: align two logs and report first divergence
// and per-field deltas) and divergence detection (Detect: δ sign-flip
// oscillation, α collapse, set-point escape as structured findings).
//
// The recorder obeys the same two invariants as internal/obs: it is
// host-side only (never touches the simulated machine), and appending a
// record in the solver's steady state performs zero allocations — a Record
// is a flat struct with no pointers, filled on the caller's stack and
// copied into the preallocated ring (gated by TestFlightSteadyStateAllocs).
package flight

import (
	"sync"
)

// SchemaVersion is the flight-log record schema version. It is embedded in
// every serialized log header; readers reject logs with a newer version.
// Bump it whenever a Record or Header field is added, removed, or changes
// meaning, and document the change in DESIGN.md §9.
//
// v2 added Header.FarQueue and Header.FarWidth (the near-far far-queue
// strategy selection); v1 logs omit both and replay treats them as the
// flat baseline queue, so old committed logs stay readable.
const SchemaVersion = 2

// Schema is the format identifier on the header line of a serialized log.
const Schema = "energysssp-flight"

// MaxBounds is how many finite far-queue partition boundaries (Eq. 7's Bᵢ)
// each record retains. The partitioned queue may hold up to 64 partitions;
// the first MaxBounds finite boundaries are the ones the controller's
// decision actually interacts with (the runway ahead of the threshold).
const MaxBounds = 8

// DefaultCapacity is the ring capacity used when NewRecorder is given a
// non-positive capacity: 16Ki records ≈ 6 MiB, enough to hold every
// iteration of the paper-scale runs. When a run exceeds the capacity the
// oldest records are overwritten (Dropped counts them) — replay needs the
// full history from iteration 0, so size the ring to the run when replay
// matters.
const DefaultCapacity = 1 << 14

// ModelState checkpoints one vSGD estimator (Algorithm 1) after the
// iteration's Observe: the parameter and the adaptive-learning-rate
// internals. Replay reproduces every field bit-for-bit.
type ModelState struct {
	Theta float64 `json:"theta"` // raw parameter estimate (unclamped)
	GBar  float64 `json:"gbar"`  // EMA of the first derivative
	VBar  float64 `json:"vbar"`  // EMA of the squared first derivative
	HBar  float64 `json:"hbar"`  // EMA of the curvature
	Tau   float64 `json:"tau"`   // EMA time constant
	Mu    float64 `json:"mu"`    // learning rate used by the last step
	Steps int64   `json:"steps"` // observations consumed
}

// Record is one iteration of controller decision state. Every field is
// fixed-size (no pointers, no slices) so the ring is a flat preallocated
// []Record and Append never allocates.
//
// Within one iteration the solver's order of operations is:
// Observe(X1, X2) → NextDelta(queue state) = RawDelta → rebalance/phase
// jump yielding DeltaOut → SetApplied(AppliedDelta, X4). The record
// captures the inputs of each step and the model state after all of them,
// which is exactly what deterministic replay needs.
type Record struct {
	K int64 `json:"k"` // iteration index, 0-based

	// Stage cardinalities of Section 3.1.
	X1 int64 `json:"x1"` // frontier entering advance
	X2 int64 `json:"x2"` // successful distance updates (available parallelism)
	X3 int64 `json:"x3"` // filter output (deduplicated)
	X4 int64 `json:"x4"` // near frontier after bisect-frontier

	// Far-queue state at the delta decision (the QueueState inputs).
	FarLen    int64 `json:"farLen"`    // far-queue size at the decision
	PartBound int64 `json:"partBound"` // first non-empty partition's upper bound (0: none)
	PartSize  int64 `json:"partSize"`  // its size

	// Far-queue state after the iteration's rebalance.
	FarSize  int64            `json:"farSize"`
	NumParts int64            `json:"numParts"`
	Bounds   [MaxBounds]int64 `json:"bounds"` // finite partition bounds, ascending; zero-padded

	// Threshold trajectory.
	SetPoint     float64 `json:"p"`            // P in effect at the decision (power-cap runs retune it)
	DeltaIn      float64 `json:"deltaIn"`      // δₖ entering the decision
	RawDelta     float64 `json:"rawDelta"`     // policy's NextDelta output, before solver clamps/jump
	DeltaOut     float64 `json:"deltaOut"`     // δ in effect after rebalance and phase jump
	AppliedDelta float64 `json:"appliedDelta"` // Δδₖ handed to SetApplied (what BISECT learns from)
	JumpMin      int64   `json:"jumpMin"`      // far MinDist at the phase jump (-1: no jump; Inf: stale-only drain)

	// Model estimates as the Eq. 6 update used them (clamped getters) plus
	// the full vSGD internals. Zero for policies without models (near-far).
	D       float64    `json:"d"`
	Alpha   float64    `json:"alpha"`
	Advance ModelState `json:"advance"`
	Bisect  ModelState `json:"bisect"`

	// Cumulative simulated cost at end of iteration (zero without a machine).
	SimTimeNs int64   `json:"simNs"`
	EnergyJ   float64 `json:"energyJ"`
}

// Header identifies a flight log and carries the controller seeds replay
// needs to reconstruct the exact initial state.
type Header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`

	// Algorithm names the recorded solver: "selftuning" (replayable
	// controller trajectory, including power-capped runs), "nearfar"
	// (replayable fixed-delta phase schedule), or "policy" (a custom
	// Policy whose decision function is not reconstructible from the log).
	Algorithm string `json:"algorithm"`

	Vertices int64 `json:"vertices"`
	Edges    int64 `json:"edges"`
	Source   int64 `json:"source"`

	// Controller construction state (selftuning): NewController(SetPoint,
	// InitialD, InitialAlpha) with BootstrapIters reproduces the recorded
	// run's initial model state exactly.
	SetPoint       float64 `json:"p,omitempty"`
	InitialDelta   float64 `json:"initialDelta,omitempty"`
	InitialD       float64 `json:"initialD,omitempty"`
	InitialAlpha   float64 `json:"initialAlpha,omitempty"`
	BootstrapIters int     `json:"bootstrapIters,omitempty"`

	// FixedDelta is the near-far baseline's threshold (nearfar only).
	FixedDelta int64 `json:"fixedDelta,omitempty"`

	// FarQueue and FarWidth record the far-queue strategy the solver ran
	// ("flat" or "rho" — never "auto"; logs recorded before the lazy queue
	// was removed may say "lazy") and its bucket width (nearfar only; zero
	// width for flat). Replay dispatches on FarQueue: flat and lazy share
	// the exact fixed-delta threshold recompute, rho validates its batch
	// schedule against the width instead. Absent in
	// v1 logs, which predate the strategies and are replayed as flat.
	FarQueue string `json:"farQueue,omitempty"`
	FarWidth int64  `json:"farWidth,omitempty"`

	// Label is free-form run identification set by the recording driver
	// (dataset, scale, seed, device...). Ignored by replay and diff.
	Label string `json:"label,omitempty"`
}

// Log is an in-memory flight log: one header plus the retained records in
// iteration order.
type Log struct {
	Header  Header
	Records []Record
}

// Recorder captures one Record per solver iteration into a preallocated
// ring. All methods are safe for concurrent use (the obs server streams the
// log while the solver appends); a nil *Recorder is a no-op, so solver code
// records unconditionally and the off path is the on path.
type Recorder struct {
	mu      sync.Mutex
	hdr     Header
	haveHdr bool
	ring    []Record
	seq     uint64
}

// NewRecorder returns a recorder whose ring holds capacity records
// (DefaultCapacity if capacity <= 0). All memory is allocated here.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Record, capacity)}
}

// SetHeader records the run identification; the solver calls it once at
// solve start. It also resets the ring so one recorder can serve
// consecutive solves (the last solve's log is the one retained).
func (r *Recorder) SetHeader(h Header) {
	if r == nil {
		return
	}
	h.Schema = Schema
	h.Version = SchemaVersion
	r.mu.Lock()
	r.hdr = h
	r.haveHdr = true
	r.seq = 0
	r.mu.Unlock()
}

// Header returns the current header (zero until SetHeader).
func (r *Recorder) Header() Header {
	if r == nil {
		return Header{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hdr
}

// Append copies one record into the ring, overwriting the oldest when full.
// This is the recorder's hot path: one mutex acquire and one struct copy
// into preallocated storage, no allocation, no formatting.
//
//hot:alloc-free
func (r *Recorder) Append(rec *Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.seq%uint64(len(r.ring))] = *rec
	r.seq++
	r.mu.Unlock()
}

// Len reports how many records are currently retained (<= Cap).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < uint64(len(r.ring)) {
		return int(r.seq)
	}
	return len(r.ring)
}

// Cap reports the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Dropped reports how many records have been overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq <= uint64(len(r.ring)) {
		return 0
	}
	return r.seq - uint64(len(r.ring))
}

// Snapshot appends the retained records, oldest first, to dst (which may be
// nil) and returns the result. It allocates only when dst lacks capacity.
func (r *Recorder) Snapshot(dst []Record) []Record {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	if r.seq <= n {
		return append(dst, r.ring[:r.seq]...)
	}
	head := r.seq % n
	dst = append(dst, r.ring[head:]...)
	return append(dst, r.ring[:head]...)
}

// Log snapshots the recorder into an immutable Log.
func (r *Recorder) Log() *Log {
	if r == nil {
		return &Log{}
	}
	return &Log{Header: r.Header(), Records: r.Snapshot(nil)}
}

// Contiguous reports whether the log's records form the complete history
// from iteration 0 with no gaps — the precondition for replay (a wrapped
// ring loses the early iterations the model state depends on).
func (l *Log) Contiguous() bool {
	for i, rec := range l.Records {
		if rec.K != int64(i) {
			return false
		}
	}
	return true
}
