// Package trace serializes experiment outputs — iteration profiles and
// generic result tables — as CSV and JSON so the figures can be
// regenerated and replotted outside this repository.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"energysssp/internal/metrics"
)

// WriteProfileCSV writes one iteration-statistics row per solver iteration,
// covering every IterStat field.
func WriteProfileCSV(w io.Writer, p *metrics.Profile) error {
	cw := csv.NewWriter(w)
	header := []string{"k", "x1", "x2", "x3", "x4", "delta", "d_hat", "alpha_hat", "far_size", "edges", "sim_ns", "energy_j", "avg_watts"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, it := range p.Iters {
		rec := []string{
			strconv.Itoa(it.K),
			strconv.Itoa(it.X1),
			strconv.Itoa(it.X2),
			strconv.Itoa(it.X3),
			strconv.Itoa(it.X4),
			strconv.FormatFloat(it.Delta, 'g', -1, 64),
			strconv.FormatFloat(it.DHat, 'g', -1, 64),
			strconv.FormatFloat(it.AlphaHat, 'g', -1, 64),
			strconv.Itoa(it.FarSize),
			strconv.FormatInt(it.Edges, 10),
			strconv.FormatInt(int64(it.SimTime), 10),
			strconv.FormatFloat(it.EnergyJ, 'g', -1, 64),
			strconv.FormatFloat(it.AvgWatts, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteProfileJSON writes the profile as an indented JSON array of
// iteration records, one object per IterStat with every field present.
func WriteProfileJSON(w io.Writer, p *metrics.Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Iters)
}

// Table is a generic labeled result table (one per figure/table in the
// harness) that renders to CSV and JSON.
type Table struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// NewTable creates a table with the given column headers.
func NewTable(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: columns}
}

// AddRow appends a row; values are rendered with %v (floats get %.4g).
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = strconv.FormatFloat(x, 'g', 6, 64)
		case float32:
			row[i] = strconv.FormatFloat(float64(x), 'g', 6, 64)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Fprint renders the table as aligned plain text for terminal output. The
// writes buffer through a sticky bufio.Writer; the first failure is
// reported by the final Flush.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", t.Name)
	for i, c := range t.Columns {
		fmt.Fprintf(bw, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(bw)
	for _, r := range t.Rows {
		for i, v := range r {
			fmt.Fprintf(bw, "%-*s  ", widths[i], v)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteMarkdown renders the table as a GitHub-flavored markdown table with
// a heading, used by the experiment report generator.
func (t *Table) WriteMarkdown(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "## %s\n\n", t.Name)
	fmt.Fprint(bw, "|")
	for _, c := range t.Columns {
		fmt.Fprintf(bw, " %s |", c)
	}
	fmt.Fprint(bw, "\n|")
	for range t.Columns {
		fmt.Fprint(bw, "---|")
	}
	fmt.Fprintln(bw)
	for _, r := range t.Rows {
		fmt.Fprint(bw, "|")
		for _, v := range r {
			fmt.Fprintf(bw, " %s |", v)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}

// SaveCSV writes the table to dir/<name>.csv, creating dir if needed.
func (t *Table) SaveCSV(dir string) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, t.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer func() {
		// A write error surfacing only at close must not report success.
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := t.WriteCSV(f); err != nil {
		return "", err
	}
	return path, nil
}
