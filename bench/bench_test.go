package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestQuickSmoke runs every workload at --quick size in both modes and
// checks that each metric BENCHMARK.json names is emitted with its unit (the
// JSON encoder refuses NaN and Inf, so an emitted value is finite), that no
// solve failed, and that the same seed prints the same input digests in
// both runs.
func TestQuickSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", sw.Name)
		}
	}
	for _, w := range workloads {
		var inputs [2]string
		for trace, want := range [][]struct{ Name, Unit string }{sp.EndToEnd, sp.PerLayer} {
			var b bytes.Buffer
			out := bufio.NewWriter(&b)
			code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0.2",
				"--trace", []string{"0", "1"}[trace], "--quick"}, out)
			if err := out.Flush(); err != nil {
				t.Fatal(err)
			}
			if code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.name, trace, code, b.String())
			}
			lines := strings.Split(strings.TrimSpace(b.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s emitted=%v unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, ok, got.Unit, m.Unit)
				}
			}
			for _, l := range lines {
				if strings.HasPrefix(l, "input.") {
					inputs[trace] += l + "\n"
				}
			}
		}
		if inputs[0] == "" || inputs[0] != inputs[1] {
			t.Errorf("%s: seed 1 printed different inputs:\n%s---\n%s", w.name, inputs[0], inputs[1])
		}
	}
}
