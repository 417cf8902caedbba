package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Gauge is a float64 that can go up and down, stored as atomic bits.
// A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic counters. Buckets are
// preallocated at registration; Observe is a bucket walk plus three atomic
// ops and never allocates. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
//
//hot:alloc-free
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (q in [0,1], clamped) from the bucket
// counts with linear interpolation inside the containing bucket, the same
// estimator Prometheus's histogram_quantile uses: the first bucket
// interpolates from 0, and a quantile landing in the implicit +Inf bucket
// reports the last finite bound. An empty histogram has no samples to rank,
// so its every quantile is defined as 0 — a nil or never-observed histogram
// answers 0 rather than NaN, keeping dashboards and summary lines
// arithmetic-safe without special-casing. Bucket counts are read without a
// snapshot, so concurrent Observe calls can skew a result by at most the
// in-flight samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(n)
	var cum int64
	for i, b := range h.bounds {
		c := h.buckets[i].Load()
		if c > 0 && float64(cum+c) >= target {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b-lower)
		}
		cum += c
	}
	// Quantile lands in the +Inf bucket: the data gives no upper edge to
	// interpolate toward, so report the largest finite bound (or 0 when the
	// histogram has no finite buckets at all).
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

type metricKind uint8

const (
	kindGauge metricKind = iota
	kindHistogram
	kindFunc
)

type entry struct {
	name string // full exposition name, may embed {label="..."} syntax
	help string
	kind metricKind
	g    *Gauge
	h    *Histogram
	fn   func() float64
}

// Registry holds named metrics and writes them in Prometheus text
// exposition format. Registration (Gauge/Histogram/GaugeFunc) is
// idempotent by name: re-registering returns the existing metric.
// Registering an existing name as a different kind panics.
//
// Names may embed Prometheus label syntax, e.g.
// `obs_phase_host_seconds_total{phase="advance"}`; entries sharing the
// family (the part before '{') share one HELP/TYPE header.
//
// A nil *Registry is a no-op: every registration returns a nil metric
// (itself a no-op), so instrumentation helpers need no enabled checks.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
	hooks   []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

func (r *Registry) lookupOrAdd(name, help string, kind metricKind) (*entry, bool) {
	e, ok := r.byName[name]
	if ok {
		if e.kind != kind {
			panic("obs: metric " + name + " re-registered as a different kind")
		}
		return e, false
	}
	e = &entry{name: name, help: help, kind: kind}
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e, true
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, fresh := r.lookupOrAdd(name, help, kindGauge)
	if fresh {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram registers (or returns the existing) histogram with the given
// ascending upper bounds (the +Inf bucket is implicit). Histogram names
// must not embed label syntax — the bucket `le` label owns it.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if strings.ContainsRune(name, '{') {
		panic("obs: histogram name must not embed labels: " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, fresh := r.lookupOrAdd(name, help, kindHistogram)
	if fresh {
		e.h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return e.h
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering an existing func name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _ := r.lookupOrAdd(name, help, kindFunc)
	e.fn = fn
}

// OnScrape registers a hook run at the start of every WritePrometheus call,
// before values are read — used by the runtime sampler to refresh gauges.
func (r *Registry) OnScrape(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Value returns the current value of the named metric (gauge or gauge
// func; histograms report their observation count). Scrape hooks are
// not run, so hook-refreshed gauges return their last scraped value.
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	e, ok := r.byName[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch e.kind {
	case kindGauge:
		return e.g.Value(), true
	case kindHistogram:
		return float64(e.h.Count()), true
	case kindFunc:
		return e.fn(), true
	}
	return 0, false
}

// family returns the metric family name: everything before the label block.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fnum renders a float the way Prometheus clients do: shortest decimal that
// round-trips exactly, so scraped values parse back bit-identical.
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshotEntries runs the scrape hooks and returns the entries sorted by
// name, so expositions are deterministic.
func (r *Registry) snapshotEntries() []*entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	r.mu.Lock()
	entries := append([]*entry{}, r.entries...)
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}

// histQuantiles are the summary quantiles every histogram exposes as a
// derived `<name>_quantile{q="..."}` gauge family on /metrics.
var histQuantiles = [...]struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (version 0.0.4). Scrape hooks run first. Entries are
// written sorted by name so output is deterministic. Histograms also emit
// interpolated p50/p95/p99 `<name>_quantile` gauges.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WritePrometheusMatch(w, "")
}

// WritePrometheusMatch is WritePrometheus restricted to metrics whose
// name contains match ("" = everything) — the ?match filter on /metrics.
func (r *Registry) WritePrometheusMatch(w io.Writer, match string) error {
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool)
	for _, e := range r.snapshotEntries() {
		if !strings.Contains(e.name, match) {
			continue
		}
		fam := family(e.name)
		if !seen[fam] {
			seen[fam] = true
			typ := "gauge"
			if e.kind == kindHistogram {
				typ = "histogram"
			}
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", fam, escapeHelp(e.help), fam, typ)
		}
		switch e.kind {
		case kindGauge:
			fmt.Fprintf(bw, "%s %s\n", e.name, fnum(e.g.Value()))
		case kindFunc:
			fmt.Fprintf(bw, "%s %s\n", e.name, fnum(e.fn()))
		case kindHistogram:
			var cum int64
			for i, b := range e.h.bounds {
				cum += e.h.buckets[i].Load()
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", e.name, fnum(b), cum)
			}
			cum += e.h.buckets[len(e.h.bounds)].Load()
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum)
			fmt.Fprintf(bw, "%s_sum %s\n", e.name, fnum(e.h.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", e.name, e.h.count.Load())
			// Derived summary quantiles: a separate gauge family so the
			// histogram TYPE stays honest, interpolated by the same
			// estimator histogram_quantile uses (empty histogram → 0).
			qfam := e.name + "_quantile"
			fmt.Fprintf(bw, "# HELP %s interpolated summary quantiles of %s\n# TYPE %s gauge\n", qfam, e.name, qfam)
			for _, hq := range histQuantiles {
				fmt.Fprintf(bw, "%s{q=%q} %s\n", qfam, hq.label, fnum(e.h.Quantile(hq.q)))
			}
		}
	}
	return bw.Flush()
}
