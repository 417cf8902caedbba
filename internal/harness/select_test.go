package harness

import (
	"bytes"
	"strings"
	"testing"

	"energysssp/internal/trace"
)

func tableNames(ts []*trace.Table) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// TestSelect checks the experiment list behind cmd/experiments -fig: each
// name selects its own tables, the names run one by one in paper order
// yield exactly RunAll's tables, a list of names comes back in paper order,
// and an unknown name is an error that lists the valid ones.
func TestSelect(t *testing.T) {
	want := map[string][]string{
		"table1":   {"table1_datasets"},
		"1":        {"fig1_profiles", "fig1_density"},
		"2":        {"fig2_delta_vs_parallelism"},
		"3":        {"fig3_cal_delta_summary", "fig3_cal_frontier_series"},
		"5":        {"fig5_parallelism_distributions"},
		"6":        {"perfpower_TK1_Cal", "perfpower_TK1_Wiki"},
		"7":        {"perfpower_TX1_Cal", "perfpower_TX1_Wiki"},
		"8":        {"fig8_power_vs_setpoint"},
		"overhead": {"overhead_controller"},
		"ablation": {"ablation_controller"},
		"trace":    {"controller_trace"},
	}
	if len(Experiments) != len(want) {
		t.Fatalf("%d experiments, the test knows %d", len(Experiments), len(want))
	}
	// One worker keeps every table a pure function of the configuration.
	e := NewEnv(Config{Scale: 0.002, Seed: 7, Workers: 1})
	defer e.Close()
	var each []*trace.Table
	for _, x := range Experiments {
		xs, err := Select(x.Name)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := Run(e, xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(tableNames(ts), " "); got != strings.Join(want[x.Name], " ") {
			t.Fatalf("-fig %s selects %s, want %v", x.Name, got, want[x.Name])
		}
		each = append(each, ts...)
	}
	all, err := RunAll(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(each) {
		t.Fatalf("RunAll: %v; one by one: %v", tableNames(all), tableNames(each))
	}
	for i := range all {
		if all[i].Name != each[i].Name {
			t.Fatalf("table %d: RunAll %s, one by one %s", i, all[i].Name, each[i].Name)
		}
		if all[i].Name == "overhead_controller" {
			continue // wall-clock
		}
		var a, b bytes.Buffer
		if err := all[i].WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := each[i].WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("table %s differs between RunAll and its own selection", all[i].Name)
		}
	}
	if xs, err := Select("all"); err != nil || len(xs) != len(Experiments) {
		t.Fatalf("all selects %d experiments (err %v), want %d", len(xs), err, len(Experiments))
	}

	xs, err := Select("overhead, 8,1,8")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, x := range xs {
		got = append(got, x.Name)
	}
	if strings.Join(got, ",") != "1,8,overhead" {
		t.Fatalf("selected %v, want [1 8 overhead] (paper order, once each)", got)
	}

	for _, bad := range []string{"5,nope", "", "all,9"} {
		_, err := Select(bad)
		if err == nil {
			t.Fatalf("Select(%q) accepted", bad)
		}
		for _, x := range Experiments {
			if !strings.Contains(err.Error(), x.Name) {
				t.Fatalf("Select(%q) error %q does not list %s", bad, err, x.Name)
			}
		}
	}
}
