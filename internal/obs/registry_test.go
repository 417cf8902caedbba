package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseProm parses Prometheus text exposition output back into a
// name -> value map (comments skipped), so tests can round-trip the writer.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestPrometheusRoundTrip registers one metric of every kind, writes the
// exposition format, parses it back, and checks values survive exactly
// (bit-identical for the gauge, which exercises the shortest-round-trip
// float formatting).
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_ratio", "a ratio")
	g.Set(0.30000000000000004) // not representable in short decimal
	r.GaugeFunc("test_func", "computed", func() float64 { return 7.5 })
	h := r.Histogram("test_sizes", "sizes", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	r.Gauge(`test_labeled{kind="a"}`, "labeled").Set(1)
	r.Gauge(`test_labeled{kind="b"}`, "labeled").Set(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	vals := parseProm(t, text)

	checks := map[string]float64{
		"test_func":                    7.5,
		`test_labeled{kind="a"}`:       1,
		`test_labeled{kind="b"}`:       2,
		`test_sizes_bucket{le="1"}`:    1,
		`test_sizes_bucket{le="10"}`:   3,
		`test_sizes_bucket{le="100"}`:  4,
		`test_sizes_bucket{le="+Inf"}`: 5,
		"test_sizes_count":             5,
		"test_sizes_sum":               560.5,
	}
	for name, want := range checks {
		got, ok := vals[name]
		if !ok {
			t.Errorf("metric %s missing from exposition:\n%s", name, text)
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The gauge must round-trip bit-identical.
	if bits := math.Float64bits(vals["test_ratio"]); bits != math.Float64bits(0.30000000000000004) {
		t.Errorf("gauge did not round-trip exactly: got %v", vals["test_ratio"])
	}
	// One HELP/TYPE header per family, even for labeled series.
	if n := strings.Count(text, "# TYPE test_labeled "); n != 1 {
		t.Errorf("labeled family has %d TYPE headers, want 1", n)
	}
	if !strings.Contains(text, "# TYPE test_ratio gauge") ||
		!strings.Contains(text, "# TYPE test_sizes histogram") {
		t.Errorf("missing TYPE metadata:\n%s", text)
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("x", "")
	a.Set(5)
	b := r.Gauge("x", "")
	if a != b {
		t.Fatal("re-registering a gauge must return the same instance")
	}
	if b.Value() != 5 {
		t.Fatalf("gauge state lost on re-register: %v", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing name as a different kind must panic")
		}
	}()
	r.Histogram("x", "", nil)
}

func TestRegistryValueAndScrapeHooks(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hooked", "")
	calls := 0
	r.OnScrape(func() { calls++; g.Set(float64(calls)) })

	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value on unknown name must report !ok")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("scrape hook ran %d times, want 1", calls)
	}
	if v, ok := r.Value("hooked"); !ok || math.Abs(v-1) > 1e-12 {
		t.Fatalf("Value(hooked) = %v,%v want 1", v, ok)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	vals := parseProm(t, sb.String())
	if vals["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", vals["go_goroutines"])
	}
	if vals["go_heap_alloc_bytes"] <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v, want > 0", vals["go_heap_alloc_bytes"])
	}
}

// TestHistogramQuantile covers the bucket-interpolation estimator,
// including the documented empty-histogram semantics: with no samples there
// is nothing to rank, so every quantile is 0 (not NaN), keeping summary
// arithmetic safe without call-site special cases.
func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram Quantile = %g, want 0", got)
	}

	r := NewRegistry()
	h := r.Histogram("q_test", "quantile fixture", []float64{1, 2, 4, 8})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%g) = %g, want 0", q, got)
		}
	}

	// 4 samples in (1,2], 4 in (2,4]: the median sits at the (1,2]/(2,4]
	// boundary and quartiles interpolate linearly inside their buckets.
	for i := 0; i < 4; i++ {
		h.Observe(1.5)
		h.Observe(3)
	}
	cases := []struct{ q, want float64 }{
		{0.5, 2},    // 4 of 8 samples ≤ bound 2
		{0.25, 1.5}, // halfway into the (1,2] bucket
		{0.75, 3},   // halfway into the (2,4] bucket
		{1, 4},
		{-0.5, 1 + 0.0}, // clamped to q=0: lower edge of first non-empty bucket
		{2, 4},          // clamped to q=1
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}

	// Samples beyond the last bound land in the +Inf bucket, which has no
	// upper edge to interpolate toward: report the last finite bound.
	h2 := r.Histogram("q_test_inf", "overflow fixture", []float64{1, 2})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("+Inf-bucket quantile = %g, want last finite bound 2", got)
	}

	// A histogram with no finite buckets at all has no edges anywhere.
	h3 := r.Histogram("q_test_none", "boundless fixture", nil)
	h3.Observe(5)
	if got := h3.Quantile(0.5); got != 0 {
		t.Fatalf("boundless quantile = %g, want 0", got)
	}
}
