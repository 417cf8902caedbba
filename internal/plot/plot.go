// Package plot renders experiment series as ASCII charts so the paper's
// figures can be eyeballed straight from the terminal (cmd/experiments
// exposes it behind -plot). It deliberately depends only on the standard
// library: line charts, bar histograms, and scatter plots with labeled axes.
//
// All renderers buffer through a bufio.Writer (whose sticky error surfaces
// at the final Flush) and report the first write failure, so a full chart
// either reaches the destination or the caller hears about it.
package plot

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"energysssp/internal/fp"
	"energysssp/internal/metrics"
)

// Options sizes a chart.
type Options struct {
	Width  int // plot area columns (default 72)
	Height int // plot area rows (default 16)
	Title  string
	YLabel string
	XLabel string
	LogY   bool // log10-scale the y axis (useful for parallelism profiles)
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 16
	}
	return o
}

// Line renders one or more named series as an overlaid line chart. Series
// are drawn with distinct glyphs in input order; x is the sample index
// scaled to the widest series.
func Line(w io.Writer, series map[string][]float64, opt Options) error {
	opt = opt.withDefaults()
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	bw := bufio.NewWriter(w)

	names := sortedKeys(series)
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, name := range names {
		s := series[name]
		if len(s) > maxLen {
			maxLen = len(s)
		}
		for _, v := range s {
			v = opt.tx(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if maxLen == 0 {
		fmt.Fprintln(bw, "(empty plot)")
		return bw.Flush()
	}
	if fp.Eq(hi, lo) {
		hi = lo + 1
	}

	grid := newGrid(opt.Width, opt.Height)
	for si, name := range names {
		g := glyphs[si%len(glyphs)]
		s := series[name]
		if len(s) == 0 {
			continue
		}
		for i, v := range s {
			x := 0
			if len(s) > 1 {
				x = i * (opt.Width - 1) / (len(s) - 1)
			}
			y := int((opt.tx(v) - lo) / (hi - lo) * float64(opt.Height-1))
			grid.set(x, y, g)
		}
	}

	grid.render(bw, opt, lo, hi, func(si int) string {
		return fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], names[si])
	}, len(names))
	return bw.Flush()
}

// Scatter renders labeled (x, y) points — the Figure 6/7 speedup-vs-power
// panels. Each series gets its own glyph.
func Scatter(w io.Writer, series map[string][][2]float64, opt Options) error {
	opt = opt.withDefaults()
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	names := sortedScatterKeys(series)
	bw := bufio.NewWriter(w)

	xlo, xhi := math.Inf(1), math.Inf(-1)
	ylo, yhi := math.Inf(1), math.Inf(-1)
	count := 0
	for _, name := range names {
		for _, p := range series[name] {
			xlo, xhi = math.Min(xlo, p[0]), math.Max(xhi, p[0])
			ylo, yhi = math.Min(ylo, opt.tx(p[1])), math.Max(yhi, opt.tx(p[1]))
			count++
		}
	}
	if count == 0 {
		fmt.Fprintln(bw, "(empty plot)")
		return bw.Flush()
	}
	if fp.Eq(xhi, xlo) {
		xhi = xlo + 1
	}
	if fp.Eq(yhi, ylo) {
		yhi = ylo + 1
	}

	grid := newGrid(opt.Width, opt.Height)
	for si, name := range names {
		g := glyphs[si%len(glyphs)]
		for _, p := range series[name] {
			x := int((p[0] - xlo) / (xhi - xlo) * float64(opt.Width-1))
			y := int((opt.tx(p[1]) - ylo) / (yhi - ylo) * float64(opt.Height-1))
			grid.set(x, y, g)
		}
	}
	grid.render(bw, opt, ylo, yhi, func(si int) string {
		return fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], names[si])
	}, len(names))
	fmt.Fprintf(bw, "x: [%.3g .. %.3g] %s\n", xlo, xhi, opt.XLabel)
	return bw.Flush()
}

// Histogram renders metrics bins as a horizontal bar chart — the density
// insets of Figure 1.
func Histogram(w io.Writer, bins []metrics.Bin, opt Options) error {
	opt = opt.withDefaults()
	bw := bufio.NewWriter(w)
	if opt.Title != "" {
		fmt.Fprintf(bw, "%s\n", opt.Title)
	}
	maxC := 0
	for _, b := range bins {
		if b.Count > maxC {
			maxC = b.Count
		}
	}
	if maxC == 0 {
		fmt.Fprintln(bw, "(empty histogram)")
		return bw.Flush()
	}
	for _, b := range bins {
		bar := strings.Repeat("█", b.Count*opt.Width/maxC)
		fmt.Fprintf(bw, "%12.4g–%-12.4g |%s %d\n", b.Lo, b.Hi, bar, b.Count)
	}
	return bw.Flush()
}

// tx applies the y-axis transform.
func (o Options) tx(v float64) float64 {
	if !o.LogY {
		return v
	}
	if v < 1 {
		v = 1
	}
	return math.Log10(v)
}

// itx inverts the transform for axis labels.
func (o Options) itx(v float64) float64 {
	if !o.LogY {
		return v
	}
	return math.Pow(10, v)
}

type grid struct {
	w, h  int
	cells []byte
}

func newGrid(w, h int) *grid {
	g := &grid{w: w, h: h, cells: make([]byte, w*h)}
	for i := range g.cells {
		g.cells[i] = ' '
	}
	return g
}

func (g *grid) set(x, y int, c byte) {
	if x < 0 || y < 0 || x >= g.w || y >= g.h {
		return
	}
	g.cells[(g.h-1-y)*g.w+x] = c
}

func (g *grid) render(bw *bufio.Writer, opt Options, lo, hi float64, legend func(int) string, nSeries int) {
	if opt.Title != "" {
		fmt.Fprintf(bw, "%s\n", opt.Title)
	}
	for row := 0; row < g.h; row++ {
		val := opt.itx(hi - (hi-lo)*float64(row)/float64(g.h-1))
		fmt.Fprintf(bw, "%10.4g |%s\n", val, string(g.cells[row*g.w:(row+1)*g.w]))
	}
	fmt.Fprintf(bw, "%10s +%s\n", "", strings.Repeat("-", g.w))
	if opt.YLabel != "" {
		fmt.Fprintf(bw, "y: %s", opt.YLabel)
		if opt.LogY {
			fmt.Fprintf(bw, " (log scale)")
		}
		fmt.Fprintln(bw)
	}
	for i := 0; i < nSeries; i++ {
		fmt.Fprintf(bw, "  %s\n", legend(i))
	}
}

func sortedKeys(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortedScatterKeys(m map[string][][2]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
