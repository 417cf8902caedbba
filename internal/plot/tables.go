package plot

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"energysssp/internal/metrics"
	"energysssp/internal/trace"
)

// Table renders a harness result table as the chart its figure corresponds
// to, dispatching on the table name; unknown tables fall back to aligned
// text. This is what cmd/experiments exposes behind -plot.
func Table(w io.Writer, t *trace.Table) error {
	switch {
	case t.Name == "fig1_profiles":
		return plotSeriesTable(w, t, 0, 2, Options{
			Title: "Figure 1 — concurrency profiles", YLabel: "available parallelism (X2)",
			XLabel: "iteration", LogY: true,
		})
	case t.Name == "fig1_density":
		return plotDensityTable(w, t)
	case t.Name == "fig2_delta_vs_parallelism":
		return plotSeriesTable(w, t, 0, 2, Options{
			Title: "Figure 2 — delta versus parallelism", YLabel: "avg parallelism",
			XLabel: "delta sweep (ascending)", LogY: true,
		})
	case t.Name == "fig3_cal_delta_summary":
		return plotSingleColumn(w, t, 1, Options{
			Title: "Figure 3 — Cal runtime versus delta", YLabel: "sim ms",
			XLabel: "delta sweep (ascending)", LogY: true,
		})
	case t.Name == "fig3_cal_frontier_series":
		return plotSeriesTable(w, t, 0, 2, Options{
			Title: "Figure 3 — Cal frontier size by iteration", YLabel: "frontier",
			XLabel: "iteration (thinned)", LogY: true,
		})
	case t.Name == "controller_trace":
		return plotSeriesColumns(w, t, map[string]int{"d_hat": 1, "alpha_hat": 2}, Options{
			Title: "Controller model convergence", YLabel: "estimate",
			XLabel: "iteration", LogY: true,
		})
	case strings.HasPrefix(t.Name, "perfpower_"):
		return plotPerfPower(w, t)
	case t.Name == "fig8_power_vs_setpoint":
		return plotSeriesTable(w, t, 0, 2, Options{
			Title: "Figure 8 — average power versus set-point", YLabel: "watts",
			XLabel: "set-point sweep (ascending)",
		})
	default:
		return t.Fprint(w)
	}
}

func parseCell(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// plotSeriesTable draws one line per distinct value of the key column,
// using the val column as the y series in row order.
func plotSeriesTable(w io.Writer, t *trace.Table, keyCol, valCol int, opt Options) error {
	series := map[string][]float64{}
	for _, r := range t.Rows {
		if keyCol >= len(r) || valCol >= len(r) {
			continue
		}
		if v, ok := parseCell(r[valCol]); ok {
			series[r[keyCol]] = append(series[r[keyCol]], v)
		}
	}
	return Line(w, series, opt)
}

// plotSeriesColumns draws one line per named column, rows in order.
func plotSeriesColumns(w io.Writer, t *trace.Table, cols map[string]int, opt Options) error {
	series := map[string][]float64{}
	for _, r := range t.Rows {
		for name, col := range cols {
			if col < len(r) {
				if v, ok := parseCell(r[col]); ok {
					series[name] = append(series[name], v)
				}
			}
		}
	}
	return Line(w, series, opt)
}

func plotSingleColumn(w io.Writer, t *trace.Table, valCol int, opt Options) error {
	var ys []float64
	for _, r := range t.Rows {
		if v, ok := parseCell(r[valCol]); ok {
			ys = append(ys, v)
		}
	}
	return Line(w, map[string][]float64{t.Columns[valCol]: ys}, opt)
}

func plotDensityTable(w io.Writer, t *trace.Table) error {
	byVariant := map[string][]metrics.Bin{}
	var order []string
	for _, r := range t.Rows {
		lo, ok1 := parseCell(r[1])
		hi, ok2 := parseCell(r[2])
		c, ok3 := parseCell(r[3])
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		if _, seen := byVariant[r[0]]; !seen {
			order = append(order, r[0])
		}
		byVariant[r[0]] = append(byVariant[r[0]], metrics.Bin{Lo: lo, Hi: hi, Count: int(c)})
	}
	for _, name := range order {
		if err := Histogram(w, byVariant[name], Options{Title: "density — " + name, Width: 48}); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func plotPerfPower(w io.Writer, t *trace.Table) error {
	series := map[string][][2]float64{}
	for _, r := range t.Rows {
		sp, ok1 := parseCell(r[2])
		rp, ok2 := parseCell(r[3])
		if !ok1 || !ok2 {
			continue
		}
		key := r[0]
		series[key] = append(series[key], [2]float64{rp, sp})
	}
	return Scatter(w, series, Options{
		Title:  t.Name + " — speedup versus relative power (ref = baseline@auto at 1,1)",
		YLabel: "speedup", XLabel: "relative power",
	})
}
