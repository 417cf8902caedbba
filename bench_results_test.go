package energysssp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The committed benchmark results live under results/bench/<NN>-<label>/,
// one directory per entry. An entry holds one run per workload, written by
//
//	bash bench/run.sh --workload <w> --seed 1 --seconds 20 --trace 0 --out results/bench/<NN>-<label>
//
// as <workload>.json (header and result, read here) and <workload>.txt (the
// printed report). BENCHMARK.json names the workloads and gives each
// end-to-end metric its direction and bound: the share of the earlier
// value by which it may get worse.

const benchResultsDir = "results/bench"

type benchBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchBound `json:"end_to_end"`
}

type benchMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type benchRun struct {
	Header map[string]string `json:"header"`
	Result struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]benchMetric `json:"metrics"`
	} `json:"result"`
}

type benchEntry struct {
	name string              // directory name, <NN>-<label>
	runs map[string]benchRun // by workload
}

// benchVerdict is the judgement of one run of one entry.
type benchVerdict struct {
	entry, workload string
	against         string // the entry it was compared with; "" if none
	problems        []string
}

func (v benchVerdict) String() string {
	switch {
	case len(v.problems) > 0:
		return "fail"
	case v.against == "":
		return "not compared"
	}
	return "pass"
}

// machineKey names what a run was measured on. Runs on different machines
// are never compared.
func machineKey(r benchRun) string {
	h := r.Header
	return h["machine.cpu"] + "|" + h["machine.nproc"] + "|" + h["machine.go"]
}

// runProblems lists what makes one run unfit: a failed or wrong solve, a
// run that did not use every CPU, or a missing end-to-end metric (as in a
// --trace 1 run).
func (s *benchSpec) runProblems(r benchRun) []string {
	var out []string
	res := r.Result
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		out = append(out, fmt.Sprintf("correct %v, %d of %d solves failed", res.Correct, res.Failed, res.Attempted))
	}
	if np, gp := r.Header["machine.nproc"], r.Header["machine.gomaxprocs"]; np == "" || gp != np {
		out = append(out, fmt.Sprintf("gomaxprocs %q, want nproc %q", gp, np))
	}
	for _, b := range s.EndToEnd {
		m, ok := res.Metrics[b.Name]
		switch {
		case !ok:
			out = append(out, b.Name+" missing")
		case m.Unit != b.Unit:
			out = append(out, fmt.Sprintf("%s in %q, want %q", b.Name, m.Unit, b.Unit))
		case !(m.Value > 0):
			out = append(out, fmt.Sprintf("%s = %v, want a positive number", b.Name, m.Value))
		}
	}
	return out
}

// regressions lists each end-to-end metric of cur that is worse than in
// prev by more than its bound.
func (s *benchSpec) regressions(prev, cur benchRun) []string {
	var out []string
	for _, b := range s.EndToEnd {
		p, c := prev.Result.Metrics[b.Name].Value, cur.Result.Metrics[b.Name].Value
		worse := (c - p) / p
		if b.Better == "higher" {
			worse = (p - c) / p
		}
		if worse > b.Bound {
			out = append(out, fmt.Sprintf("%s %.4g -> %.4g %s: %.1f%% worse, bound %.0f%%",
				b.Name, p, c, b.Unit, 100*worse, 100*b.Bound))
		}
	}
	return out
}

// judgeBench judges every run of every entry, in entry order. A fit run is
// compared with the latest earlier fit run of its workload on the same
// machine.
func judgeBench(spec *benchSpec, entries []benchEntry) []benchVerdict {
	var out []benchVerdict
	for i, e := range entries {
		workloads := make([]string, 0, len(e.runs))
		for w := range e.runs {
			workloads = append(workloads, w)
		}
		sort.Strings(workloads)
		for _, w := range workloads {
			cur := e.runs[w]
			v := benchVerdict{entry: e.name, workload: w, problems: spec.runProblems(cur)}
			if len(v.problems) == 0 {
				for j := i - 1; j >= 0; j-- {
					prev, ok := entries[j].runs[w]
					if ok && machineKey(prev) == machineKey(cur) && len(spec.runProblems(prev)) == 0 {
						v.against = entries[j].name
						v.problems = spec.regressions(prev, cur)
						break
					}
				}
			}
			out = append(out, v)
		}
	}
	return out
}

func loadBenchSpec(t *testing.T) *benchSpec {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or no end-to-end metrics")
	}
	return &spec
}

var benchEntryName = regexp.MustCompile(`^[0-9]{2}-[a-z0-9][a-z0-9-]*$`)

// loadBenchEntries reads every entry under dir, in entry order, and fails
// on a misnamed entry or a run of a workload BENCHMARK.json does not name.
func loadBenchEntries(t *testing.T, spec *benchSpec, dir string) []benchEntry {
	t.Helper()
	known := map[string]bool{}
	for _, w := range spec.Workloads {
		known[w.Name] = true
	}
	dirs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var entries []benchEntry
	for _, d := range dirs {
		if !d.IsDir() || !benchEntryName.MatchString(d.Name()) {
			t.Errorf("%s/%s: want a directory named <NN>-<label>", dir, d.Name())
			continue
		}
		if n := len(entries); n > 0 && entries[n-1].name[:2] == d.Name()[:2] {
			t.Errorf("%s: entries %s and %s share a number", dir, entries[n-1].name, d.Name())
		}
		e := benchEntry{name: d.Name(), runs: map[string]benchRun{}}
		files, err := filepath.Glob(filepath.Join(dir, d.Name(), "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			w := strings.TrimSuffix(filepath.Base(f), ".json")
			if !known[w] {
				t.Errorf("%s: %s is not a BENCHMARK.json workload", f, w)
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var r benchRun
			if err := json.Unmarshal(data, &r); err != nil {
				t.Errorf("%s: %v", f, err)
				continue
			}
			e.runs[w] = r
		}
		entries = append(entries, e)
	}
	return entries
}

// TestCommittedBenchResults judges the committed results/bench/ entries:
// every run is correct and recorded at GOMAXPROCS = nproc, the newest entry
// covers every workload, and no run is worse than the previous run of its
// workload on the same machine by more than an end-to-end metric's bound.
func TestCommittedBenchResults(t *testing.T) {
	spec := loadBenchSpec(t)
	entries := loadBenchEntries(t, spec, benchResultsDir)
	if len(entries) == 0 {
		t.Fatalf("no entries under %s", benchResultsDir)
	}
	latest := entries[len(entries)-1]
	for _, w := range spec.Workloads {
		if _, ok := latest.runs[w.Name]; !ok {
			t.Errorf("newest entry %s has no %s run", latest.name, w.Name)
		}
	}
	for _, v := range judgeBench(spec, entries) {
		line := fmt.Sprintf("%s/%s: %s", v.entry, v.workload, v)
		if v.against != "" {
			line += " against " + v.against
		}
		if len(v.problems) > 0 {
			t.Errorf("%s: %s", line, strings.Join(v.problems, "; "))
		} else {
			t.Log(line)
		}
	}
}

// TestJudgeBenchVerdicts feeds the judge a synthetic entry after a clean
// one and checks the verdict on it.
func TestJudgeBenchVerdicts(t *testing.T) {
	spec := loadBenchSpec(t)
	bound := func(name string) benchBound {
		for _, b := range spec.EndToEnd {
			if b.Name == name {
				return b
			}
		}
		t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
		return benchBound{}
	}
	base := func() benchRun {
		var r benchRun
		r.Header = map[string]string{
			"machine.cpu": "Test CPU", "machine.nproc": "4", "machine.gomaxprocs": "4", "machine.go": "go1.24.0",
		}
		r.Result.Correct, r.Result.Attempted = true, 100
		r.Result.Metrics = map[string]benchMetric{}
		for _, b := range spec.EndToEnd {
			r.Result.Metrics[b.Name] = benchMetric{100, b.Unit}
		}
		return r
	}
	// worsen moves metric name by frac of its bound in its worse direction.
	worsen := func(r benchRun, name string, frac float64) benchRun {
		b := bound(name)
		m := r.Result.Metrics[name]
		if b.Better == "higher" {
			m.Value *= 1 - frac*b.Bound
		} else {
			m.Value *= 1 + frac*b.Bound
		}
		r.Result.Metrics[name] = m
		return r
	}
	cases := []struct {
		name   string
		mutate func(benchRun) benchRun
		want   string
	}{
		{"unchanged", func(r benchRun) benchRun { return r }, "pass"},
		{"p50 worse than its bound", func(r benchRun) benchRun { return worsen(r, "solve_ms_p50", 1.2) }, "fail"},
		{"p50 worse within its bound", func(r benchRun) benchRun { return worsen(r, "solve_ms_p50", 0.8) }, "pass"},
		{"throughput worse than its bound", func(r benchRun) benchRun { return worsen(r, "solves_per_s", 1.2) }, "fail"},
		{"sim energy worse than its bound", func(r benchRun) benchRun { return worsen(r, "sim_energy_mj_p50", 1.2) }, "fail"},
		{"better beyond the bound", func(r benchRun) benchRun { return worsen(r, "solve_ms_p50", -2) }, "pass"},
		{"different machine", func(r benchRun) benchRun {
			r.Header["machine.cpu"] = "Other CPU"
			return worsen(r, "solve_ms_p50", 3)
		}, "not compared"},
		{"correct false", func(r benchRun) benchRun {
			r.Result.Correct, r.Result.Failed = false, 1
			return r
		}, "fail"},
		{"gomaxprocs below nproc", func(r benchRun) benchRun {
			r.Header["machine.gomaxprocs"] = "1"
			return r
		}, "fail"},
		{"metric missing", func(r benchRun) benchRun {
			delete(r.Result.Metrics, "setup_s")
			return r
		}, "fail"},
	}
	for _, c := range cases {
		entries := []benchEntry{
			{name: "01-base", runs: map[string]benchRun{"road-nearfar": base()}},
			{name: "02-change", runs: map[string]benchRun{"road-nearfar": c.mutate(base())}},
		}
		vs := judgeBench(spec, entries)
		if len(vs) != 2 || vs[0].String() != "not compared" {
			t.Fatalf("%s: verdicts %v, want the base entry not compared", c.name, vs)
		}
		if got := vs[1].String(); got != c.want {
			t.Errorf("%s: verdict %q (%v), want %q", c.name, got, vs[1].problems, c.want)
		}
	}
}
