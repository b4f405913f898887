// Package profile renders OProfile-style reports of receive-path cycle
// breakdowns: per-category cycles-per-packet tables (Figures 3, 4, 6),
// original-vs-optimized comparisons (Figures 8, 9, 10), percentage
// share summaries (Figures 1, 2), and the full report of one stream run
// (Report). The paper collected these with OProfile; here the meters are
// exact.
package profile

import (
	"fmt"
	"strings"

	"repro/internal/cycles"
)

// NativeCategories is the category order of the paper's native figures.
var NativeCategories = []cycles.Category{
	cycles.PerByte, cycles.Rx, cycles.Tx, cycles.Buffer,
	cycles.NonProto, cycles.Driver, cycles.Misc, cycles.Aggr,
}

// XenCategories is the category order of the paper's Xen figures.
var XenCategories = []cycles.Category{
	cycles.PerByte, cycles.NonProto, cycles.Netback, cycles.Netfront,
	cycles.Rx, cycles.Tx, cycles.Buffer, cycles.Driver,
	cycles.Aggr, cycles.Xen, cycles.Misc,
}

// Table renders one breakdown as an aligned table in the given category
// order, skipping all-zero rows, with a total line.
func Table(title string, b cycles.Breakdown, cats []cycles.Category) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %16s %8s\n", "category", "cycles/packet", "share")
	total := b.Total()
	for _, c := range cats {
		v := b.Get(c)
		if v == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * v / total
		}
		fmt.Fprintf(&sb, "%-10s %16.0f %7.1f%%\n", c.String(), v, share)
	}
	fmt.Fprintf(&sb, "%-10s %16.0f %8s\n", "total", total, "")
	return sb.String()
}

// Comparison renders two breakdowns side by side (Original vs Optimized,
// as in Figures 8-10), with the per-category reduction factor.
func Comparison(title, labelA, labelB string, a, b cycles.Breakdown, cats []cycles.Category) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %14s %14s %8s\n", "category", labelA, labelB, "factor")
	for _, c := range cats {
		va, vb := a.Get(c), b.Get(c)
		if va == 0 && vb == 0 {
			continue
		}
		factor := "-"
		if vb > 0 {
			factor = fmt.Sprintf("%.1fx", va/vb)
		}
		fmt.Fprintf(&sb, "%-10s %14.0f %14.0f %8s\n", c.String(), va, vb, factor)
	}
	fmt.Fprintf(&sb, "%-10s %14.0f %14.0f %8s\n", "total", a.Total(), b.Total(),
		fmt.Sprintf("%.1fx", safeRatio(a.Total(), b.Total())))
	return sb.String()
}

// Shares renders grouped percentage shares (per-byte vs per-packet vs misc,
// as in Figures 1 and 2).
type ShareGroup struct {
	// Label names the group (e.g. "per-packet").
	Label string
	// Cats are the categories summed into the group.
	Cats []cycles.Category
}

// StandardShareGroups is the grouping of Figures 1 and 2: the per-byte
// copy, all per-packet work (including the driver), and the rest.
func StandardShareGroups() []ShareGroup {
	return []ShareGroup{
		{Label: "per-byte", Cats: []cycles.Category{cycles.PerByte}},
		{Label: "per-packet", Cats: []cycles.Category{
			cycles.Rx, cycles.Tx, cycles.Buffer, cycles.NonProto,
			cycles.Driver, cycles.Aggr, cycles.Netback, cycles.Netfront,
		}},
		{Label: "misc", Cats: []cycles.Category{cycles.Misc, cycles.Xen}},
	}
}

// ShareLine computes each group's percentage of the breakdown total.
func ShareLine(b cycles.Breakdown, groups []ShareGroup) []float64 {
	total := b.Total()
	out := make([]float64, len(groups))
	if total == 0 {
		return out
	}
	for i, g := range groups {
		out[i] = 100 * b.Sum(g.Cats...) / total
	}
	return out
}

// SharesTable renders rows of configurations against share groups.
func SharesTable(title string, rows []string, perRow [][]float64, groups []ShareGroup) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-14s", "config")
	for _, g := range groups {
		fmt.Fprintf(&sb, " %12s", g.Label)
	}
	sb.WriteByte('\n')
	for i, r := range rows {
		fmt.Fprintf(&sb, "%-14s", r)
		for _, v := range perRow[i] {
			fmt.Fprintf(&sb, " %11.1f%%", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Bar renders a crude horizontal bar chart of cycles/packet per category —
// the terminal rendition of the paper's histograms.
func Bar(title string, b cycles.Breakdown, cats []cycles.Category, width int) string {
	if width <= 0 {
		width = 50
	}
	max := 0.0
	for _, c := range cats {
		if v := b.Get(c); v > max {
			max = v
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	if max == 0 {
		return sb.String()
	}
	for _, c := range cats {
		v := b.Get(c)
		if v == 0 {
			continue
		}
		n := int(v / max * float64(width))
		fmt.Fprintf(&sb, "%-10s %7.0f |%s\n", c.String(), v, strings.Repeat("#", n))
	}
	return sb.String()
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
