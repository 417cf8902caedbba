package sim

import (
	"fmt"
	"math"
	"time"
)

// KernelKind identifies one of the four near-far stages (plus the
// controller's rebalancer). Kernel cost parameters differ per kind.
type KernelKind int

const (
	// KernelAdvance expands frontier edges (edge-parallel, atomic-heavy).
	KernelAdvance KernelKind = iota
	// KernelFilter deduplicates the post-advance frontier (vertex-parallel).
	KernelFilter
	// KernelBisect splits the frontier around the delta threshold.
	KernelBisect
	// KernelFarQueue scans/moves far-queue entries (baseline stage 4 and
	// the self-tuning rebalancer).
	KernelFarQueue
	numKernelKinds
)

// String implements fmt.Stringer.
func (k KernelKind) String() string {
	switch k {
	case KernelAdvance:
		return "advance"
	case KernelFilter:
		return "filter"
	case KernelBisect:
		return "bisect"
	case KernelFarQueue:
		return "farqueue"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// kernelCost holds the per-item cost parameters of one stage: the compute
// cycles per work item and the bytes of DRAM traffic per item. The values
// are calibrated so that paper-scale graphs produce runtimes in the
// hundreds of milliseconds, matching the Gunrock-on-TK1 regime.
type kernelCost struct {
	cycles float64
	bytes  float64
}

var kernelCosts = [numKernelKinds]kernelCost{
	KernelAdvance:  {cycles: 24, bytes: 20}, // CSR read + dist load + atomicMin
	KernelFilter:   {cycles: 10, bytes: 12}, // dedup mark test-and-stamp + compact
	KernelBisect:   {cycles: 8, bytes: 8},   // threshold compare + scatter
	KernelFarQueue: {cycles: 8, bytes: 10},  // scan + compact
}

// Governor receives a utilization report after every kernel and may adjust
// the machine's frequencies; it models the platform DVFS policy (the
// paper's "unconstrained" blue markers use an ondemand-style governor, the
// colored markers pin a fixed Freq).
type Governor interface {
	// OnKernel is called after each simulated kernel with its core
	// utilization in [0,1] and simulated duration.
	OnKernel(m *Machine, util float64, dur time.Duration)
}

// PowerSeg is one constant-power segment of the simulated power trace.
type PowerSeg struct {
	Start, End time.Duration
	Watts      float64
}

// KernelStats aggregates the per-kind counters the harness reports.
type KernelStats struct {
	Launches int
	Items    int64
	BusyTime time.Duration
}

// Machine is one simulated board: a device, a DVFS state, a clock, and an
// energy integrator. The zero value is unusable; construct with NewMachine.
// Machine is not safe for concurrent use — kernels are charged from the
// (sequential) algorithm driver loop.
type Machine struct {
	dev  *Device
	freq Freq
	gov  Governor

	now    time.Duration
	energy float64 // joules

	trace      []PowerSeg
	traceOn    bool
	stats      [numKernelKinds]KernelStats
	hostTime   time.Duration
	lastUtil   float64
	lastLoad   float64
	peakWatts  float64
	setFreqLog int

	// voltScale caches Kernel's (coreRatio)^CoreVoltageExp at voltFreq
	// (zero, never a valid frequency, until the first kernel).
	voltFreq  Freq
	voltScale float64
}

// NewMachine creates a machine for dev at its maximum frequencies with no
// governor (fixed-frequency operation).
func NewMachine(dev *Device) *Machine {
	return &Machine{dev: dev, freq: dev.MaxFreq()}
}

// Device returns the underlying device description.
func (m *Machine) Device() *Device { return m.dev }

// Freq returns the current DVFS setting.
func (m *Machine) Freq() Freq { return m.freq }

// SetFreq pins the DVFS setting. Invalid frequencies are an error so that
// experiment configs cannot silently request impossible operating points.
func (m *Machine) SetFreq(f Freq) error {
	if !m.dev.ValidFreq(f) {
		return fmt.Errorf("sim: invalid frequency %s for %s", f, m.dev.Name)
	}
	m.freq = f
	m.setFreqLog++
	return nil
}

// SetGovernor installs a DVFS governor (nil for fixed-frequency operation).
func (m *Machine) SetGovernor(g Governor) { m.gov = g }

// EnableTrace turns on power-trace segment recording.
func (m *Machine) EnableTrace() { m.traceOn = true }

// Now returns the simulated clock.
func (m *Machine) Now() time.Duration { return m.now }

// Energy returns the accumulated energy in joules.
func (m *Machine) Energy() float64 { return m.energy }

// AvgPower returns the average board power over the run so far.
func (m *Machine) AvgPower() float64 {
	if m.now <= 0 {
		return m.dev.IdleWatts
	}
	return m.energy / m.now.Seconds()
}

// PeakPower returns the highest instantaneous power charged so far.
func (m *Machine) PeakPower() float64 { return m.peakWatts }

// LastUtil returns the core utilization of the most recent kernel.
func (m *Machine) LastUtil() float64 { return m.lastUtil }

// LastLoad returns the GPU load signal (busy fraction × occupancy) of the
// most recent kernel, the quantity delivered to the DVFS governor.
func (m *Machine) LastLoad() float64 { return m.lastLoad }

// Stats returns the aggregate counters for one kernel kind.
func (m *Machine) Stats(k KernelKind) KernelStats { return m.stats[k] }

// Trace returns the recorded power segments (empty unless EnableTrace).
func (m *Machine) Trace() []PowerSeg { return m.trace }

// FreqSwitches reports how many SetFreq calls have occurred (governor
// activity measure).
func (m *Machine) FreqSwitches() int { return m.setFreqLog }

// Reset rewinds the clock, energy, counters, and trace, keeping the device,
// frequency, and governor.
func (m *Machine) Reset() {
	m.now = 0
	m.energy = 0
	m.trace = nil
	m.stats = [numKernelKinds]KernelStats{}
	m.hostTime = 0
	m.lastUtil = 0
	m.lastLoad = 0
	m.peakWatts = 0
	m.setFreqLog = 0
}

func (m *Machine) charge(dur time.Duration, watts float64) {
	if dur <= 0 {
		return
	}
	start := m.now
	m.now += dur
	m.energy += watts * dur.Seconds()
	if watts > m.peakWatts {
		m.peakWatts = watts
	}
	if m.traceOn {
		m.trace = append(m.trace, PowerSeg{Start: start, End: m.now, Watts: watts})
	}
}

// Kernel charges one simulated GPU kernel of the given kind over items work
// items and returns its simulated duration. A zero-item launch still pays
// the launch overhead, exactly like a real empty kernel launch — this is
// what makes tiny-frontier iterations expensive and underpins the paper's
// "low parallelism wastes time and energy" observation.
func (m *Machine) Kernel(kind KernelKind, items int) time.Duration {
	cost := kernelCosts[kind]
	d := m.dev
	fCore := float64(m.freq.CoreMHz) * 1e6
	fMax := float64(d.MaxFreq().CoreMHz) * 1e6
	coreRatio := fCore / fMax
	memRatio := float64(m.freq.MemMHz) / float64(d.MaxFreq().MemMHz)

	// Whenever the GPU clocks are up, the rails draw a voltage-scaled
	// static floor above board idle — this is what makes lower DVFS
	// points cheaper even in launch-overhead-dominated phases.
	if m.voltFreq != m.freq {
		m.voltFreq = m.freq
		m.voltScale = math.Pow(coreRatio, d.CoreVoltageExp)
	}
	activeW := d.IdleWatts + d.StaticActiveWatts*m.voltScale
	// Launch: host driver portion plus device dispatch that stretches
	// with a slower core clock.
	launch := time.Duration(d.LaunchHostNs + d.LaunchDevNs/coreRatio)
	if items <= 0 {
		m.stats[kind].Launches++
		m.charge(launch, activeW)
		m.lastLoad = 0
		m.governorTick(0, launch)
		return launch
	}

	// Compute side: throughput-limited by cores, or latency-limited when
	// too few threads are resident to hide memory latency (Little's law).
	conc := float64(items)
	if conc > float64(d.MaxResidentThreads) {
		conc = float64(d.MaxResidentThreads)
	}
	peakRate := float64(d.Cores) * fCore / cost.cycles // items/s
	perItemLatency := cost.cycles/fCore + d.MemLatencyNs*1e-9
	latRate := conc / perItemLatency
	rate := math.Min(peakRate, latRate)
	tComp := float64(items) / rate

	// Memory side: bandwidth scales with the memory frequency and with
	// how many threads are resident to keep requests in flight.
	bw := d.PeakBWBytes * memRatio * math.Min(1, conc/float64(d.ConcForPeak))
	tMem := float64(items) * cost.bytes / bw

	busy := math.Max(tComp, tMem)
	dur := launch + time.Duration(busy*float64(time.Second))

	// Power during the busy phase. Core utilization is the fraction of
	// peak issue rate actually sustained; memory utilization is achieved
	// bandwidth relative to the absolute peak.
	uCore := (float64(items) / peakRate) / busy
	if uCore > 1 {
		uCore = 1
	}
	achievedBW := float64(items) * cost.bytes / busy
	uMem := achievedBW / d.PeakBWBytes
	if uMem > 1 {
		uMem = 1
	}
	watts := activeW +
		d.CoreDynWatts*uCore*m.voltScale +
		d.MemDynWatts*uMem

	m.charge(launch, activeW)
	m.charge(dur-launch, watts)

	st := &m.stats[kind]
	st.Launches++
	st.Items += int64(items)
	st.BusyTime += dur - launch

	// The governor sees GPU *load* — the fraction of wall time the device
	// has resident work, scaled by occupancy — which is what the Jetson's
	// gpu-load sysfs counter reports. This differs from uCore: a fully
	// memory-bound kernel has low issue-rate utilization but keeps the
	// device busy, and the stock governor ramps up for it.
	load := (busy / dur.Seconds()) * math.Min(1, conc/float64(d.ConcForPeak))
	m.lastUtil = uCore
	m.lastLoad = load
	m.governorTick(load, dur)
	return dur
}

func (m *Machine) governorTick(util float64, dur time.Duration) {
	if m.gov != nil {
		m.gov.OnKernel(m, util, dur)
	}
}

// HostStep charges host-side (CPU controller) time at the board idle power.
// The paper reports the controller costs 50–200 µs per second of runtime;
// the self-tuning solver charges its controller work through this hook so
// reported speedups include the overhead, as in the paper.
func (m *Machine) HostStep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.hostTime += d
	m.charge(d, m.dev.IdleWatts)
}

// HostTime reports the accumulated controller (host) time.
func (m *Machine) HostTime() time.Duration { return m.hostTime }
