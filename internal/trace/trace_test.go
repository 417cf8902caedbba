package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"energysssp/internal/metrics"
	"energysssp/internal/power"
)

func TestWriteProfileCSV(t *testing.T) {
	var p metrics.Profile
	p.Append(metrics.IterStat{K: 0, X1: 1, X2: 5, X3: 4, X4: 3, Delta: 2.5, Edges: 9, SimTime: time.Microsecond, EnergyJ: 0.001, AvgWatts: 4.5})
	p.Append(metrics.IterStat{K: 1, X1: 3, X2: 8, X3: 8, X4: 8, Delta: 3})
	var buf bytes.Buffer
	if err := WriteProfileCSV(&buf, &p); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d, want 3 (header + 2)", len(recs))
	}
	if recs[0][0] != "k" || recs[0][6] != "d_hat" || recs[1][2] != "5" || recs[2][5] != "3" {
		t.Fatalf("unexpected CSV contents: %v", recs)
	}
	if got := len(recs[0]); got != 13 {
		t.Fatalf("header has %d columns, want 13: %v", got, recs[0])
	}
	if recs[0][12] != "avg_watts" || recs[1][12] != "4.5" || recs[2][12] != "0" {
		t.Fatalf("avg_watts column wrong: header=%q rows=%q,%q", recs[0][12], recs[1][12], recs[2][12])
	}
}

func TestWriteProfileJSON(t *testing.T) {
	var p metrics.Profile
	p.Append(metrics.IterStat{K: 0, X1: 1, X2: 5, Delta: 2.5, Edges: 9, AvgWatts: 4.5})
	p.Append(metrics.IterStat{K: 1, X1: 3, X2: 8, Delta: 3})
	var buf bytes.Buffer
	if err := WriteProfileJSON(&buf, &p); err != nil {
		t.Fatal(err)
	}
	var back []metrics.IterStat
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("rows = %d, want 2", len(back))
	}
	if back[0] != p.Iters[0] || back[1] != p.Iters[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, p.Iters)
	}
}

func TestWritePowerCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WritePowerCSV(&buf, []power.Sample{
		{T: time.Millisecond, Watts: 5.25},
		{T: 2 * time.Millisecond, Watts: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[1][1] != "5.25" {
		t.Fatalf("power csv: %v", recs)
	}
}

func TestTableRoundTrip(t *testing.T) {
	tab := NewTable("fig9", "alpha", "beta")
	tab.AddRow(1.5, "x")
	tab.AddRow(int64(7), 0.125)

	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[1][0] != "1.5" || recs[2][0] != "7" {
		t.Fatalf("csv: %v", recs)
	}

	buf.Reset()
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "fig9" || len(back.Rows) != 2 {
		t.Fatalf("json: %+v", back)
	}

	buf.Reset()
	tab.Fprint(&buf)
	text := buf.String()
	if !strings.Contains(text, "fig9") || !strings.Contains(text, "alpha") {
		t.Fatalf("plain text: %q", text)
	}
}

func TestTableWriteMarkdown(t *testing.T) {
	tab := NewTable("tbl", "a", "b")
	tab.AddRow(1, "x")
	var buf bytes.Buffer
	if err := tab.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## tbl", "| a | b |", "|---|---|", "| 1 | x |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableSaveCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	tab := NewTable("tbl", "a")
	tab.AddRow(1)
	path, err := tab.SaveCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "a\n") {
		t.Fatalf("file contents: %q", data)
	}
}
