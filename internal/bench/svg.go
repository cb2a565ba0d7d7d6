package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// SVG rendering for Figure 2 — a log-log line chart of runtime versus
// node count, one series per input size, written with nothing but the
// standard library so the repository can emit the actual figure artifact.

// svgGeom fixes the canvas layout.
const (
	svgW, svgH             = 640, 420
	svgMarginL, svgMarginR = 70, 150
	svgMarginT, svgMarginB = 40, 50
)

// Figure2SVG renders the runtime grid as an SVG line chart.
func Figure2SVG(points []Figure2Point) string {
	byReads := map[int][]Figure2Point{}
	var sizes []int
	for _, p := range points {
		if _, ok := byReads[p.Reads]; !ok {
			sizes = append(sizes, p.Reads)
		}
		byReads[p.Reads] = append(byReads[p.Reads], p)
	}
	sort.Ints(sizes)

	// Axis ranges.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		x := float64(p.Nodes)
		y := p.Runtime.Minutes()
		if y <= 0 {
			y = 0.1
		}
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	if minY == maxY {
		maxY = minY * 10
	}
	plotW := float64(svgW - svgMarginL - svgMarginR)
	plotH := float64(svgH - svgMarginT - svgMarginB)
	xOf := func(nodes int) float64 {
		return float64(svgMarginL) + plotW*(float64(nodes)-minX)/(maxX-minX)
	}
	yOf := func(minutes float64) float64 {
		if minutes <= 0 {
			minutes = 0.1
		}
		ly := math.Log10(minutes)
		lo, hi := math.Log10(minY), math.Log10(maxY)
		return float64(svgMarginT) + plotH*(1-(ly-lo)/(hi-lo))
	}

	colors := []string{"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`, svgW, svgH)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&sb, `<text x="%d" y="20" font-size="14" font-weight="bold">Runtime vs nodes (MrMC-MinH hierarchical, modelled)</text>`, svgMarginL)

	// Y grid: decades.
	for d := math.Ceil(math.Log10(minY)); d <= math.Floor(math.Log10(maxY)); d++ {
		v := math.Pow(10, d)
		y := yOf(v)
		fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`, svgMarginL, y, svgW-svgMarginR, y)
		fmt.Fprintf(&sb, `<text x="%d" y="%.1f" text-anchor="end" dy="4">%g min</text>`, svgMarginL-6, y, v)
	}
	// X ticks: node counts of the first series.
	if len(sizes) > 0 {
		for _, p := range byReads[sizes[0]] {
			x := xOf(p.Nodes)
			fmt.Fprintf(&sb, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>`, x, svgMarginT, x, svgH-svgMarginB)
			fmt.Fprintf(&sb, `<text x="%.1f" y="%d" text-anchor="middle">%d</text>`, x, svgH-svgMarginB+18, p.Nodes)
		}
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle">nodes</text>`, svgMarginL+int(plotW/2), svgH-8)

	// Series.
	for si, reads := range sizes {
		pts := byReads[reads]
		sort.Slice(pts, func(a, b int) bool { return pts[a].Nodes < pts[b].Nodes })
		color := colors[si%len(colors)]
		var path strings.Builder
		for i, p := range pts {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f,%.1f ", cmd, xOf(p.Nodes), yOf(p.Runtime.Minutes()))
		}
		fmt.Fprintf(&sb, `<path d="%s" fill="none" stroke="%s" stroke-width="2"/>`, strings.TrimSpace(path.String()), color)
		for _, p := range pts {
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`, xOf(p.Nodes), yOf(p.Runtime.Minutes()), color)
		}
		// Legend.
		ly := svgMarginT + 16*si
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`, svgW-svgMarginR+10, ly, svgW-svgMarginR+30, ly, color)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" dy="4">%s reads</text>`, svgW-svgMarginR+36, ly, humanCount(reads))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

// humanCount renders 1000 as 1k, 10000000 as 10M.
func humanCount(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprint(n)
	}
}
