// Package paper is the one home of the numbers "Optimizing TCP Receive
// Performance" (Menon & Zwaenepoel, USENIX ATC 2008) reports. Every value
// a check compares the simulator against, and every value a program prints
// as the paper's, is a row of Rows; so is the band each check enforces, so
// that widening a tolerance is an edit to this table and nowhere else.
//
// A row's key is "<figure>/<value>", where the figure is the rxbench
// experiment that reproduces it (fig1 to fig12, table1), or unit for a
// unit check. Bands are in the row's unit; gains and shares are
// percentages.
package paper

import (
	"math"
	"strconv"
	"strings"
)

// Row is one value of the paper, named by Label in a footer, and the band
// its checks enforce. Paper is NaN for a shape the paper states in words;
// the label then states the claim, which the band makes checkable. Lo and
// Hi bound the simulator's value (±Inf for a one-sided band); both are
// zero for a value that is printed but checked nowhere.
type Row struct {
	Key, Label string
	Paper      float64
	Unit       string
	Lo, Hi     float64
}

var inf, shape = math.Inf(1), math.NaN()

// Rows is the table, in footer order within each figure.
var Rows = []Row{
	{"fig1/none-per-byte", "per-byte share without prefetching", 52, "%", 45, 58},
	{"fig1/full-per-byte", "with full prefetching", 14, "%", -inf, 20},
	{"fig1/none-per-packet", "per-packet share without prefetching", 37, "%", 0, 0},
	{"fig1/full-per-packet", "with full prefetching", 70, "%", 60, inf},
	{"fig2/per-packet", "per-packet dominates on every system", shape, "", 0, 0},
	{"fig3/per-byte", "per-byte share", 17, "%", 13, 20},
	{"fig3/rx-tx", "rx+tx", 21, "%", 18, 24},
	{"fig3/buffer-non-proto", "buffer+non-proto", 25, "%", 22, 28},
	{"fig3/driver", "driver", 21, "%", 18, 24},
	{"fig3/misc", "misc", 16, "%", 13, 19},
	{"fig4/rx", "SMP over UP: rx", 62, "%", 55, 70},
	{"fig4/tx", "tx", 40, "%", 33, 47},
	{"fig4/buffer-copy", "buffer and copy unchanged", shape, "", 0, 0},
	{"fig6/virt", "virtualization per-packet share", 56, "%", 0, 0},
	{"fig6/per-byte", "per-byte", 14, "%", 0, 0},
	{"fig6/tcp", "TCP rx+tx", 10, "%", 0, 0},
	{"fig7/mbps/up-orig", "UP Original", 3452, "Mb/s", 3300, 3650},
	{"fig7/mbps/up-opt", "UP Optimized", 4660, "Mb/s", 4500, 4800},
	{"fig7/mbps/smp-orig", "SMP Original", 2988, "Mb/s", 2700, 3200},
	{"fig7/mbps/smp-opt", "SMP Optimized", 4660, "Mb/s", 4500, 4800},
	{"fig7/mbps/xen-orig", "Xen Original", 1088, "Mb/s", 900, 1250},
	{"fig7/mbps/xen-opt", "Xen Optimized", 1877, "Mb/s", 1700, 2200},
	{"fig7/ra/up", "RA-only gain UP", 26, "%", 20, 45},
	{"fig7/ra/smp", "SMP", 36, "%", 30, 55},
	{"fig7/ra/xen", "Xen", 45, "%", 30, 60},
	{"fig7/ra/util", "RA only stays CPU-bound", shape, "%", 95, inf},
	{"fig7/ra/ack-offload", "ACK offload saves cycles over RA only", shape, "%", -inf, -1},
	{"fig7/cpu-scaled/up", "CPU-scaled gain UP", 45, "%", 35, 65},
	{"fig7/cpu-scaled/smp", "SMP", 67, "%", 45, 80},
	{"fig7/cpu-scaled/xen", "Xen", 86, "%", 70, 115},
	{"fig7/bound/opt-link", "Optimized UP is NIC-limited", shape, "%", 98, inf},
	{"fig7/bound/opt-util", "at CPU utilization", 93, "%", -inf, 97},
	{"fig7/bound/orig-util", "Original UP saturates the CPU", shape, "%", 97, inf},
	{"fig7/bound/orig-link", "well below the link rate", shape, "%", -inf, 90},
	{"fig8/per-packet", "per-packet categories cut", 4.3, "x", 3, inf},
	{"fig8/aggr", "aggregation", 789, "cycles/packet", 600, 1100},
	{"fig8/mac-move", "moving MAC processing out of the driver saves", 681, "cycles/packet", 600, 760},
	{"fig8/agg-factor", "aggregation factor near the limit", shape, "", 10, 20},
	{"fig9/per-packet", "per-packet categories cut", 5.5, "x", 0, 0},
	{"fig10/virt", "virtualization per-packet categories cut", 3.7, "x", 2.5, 6},
	{"fig11/limit1", "limit 1 over Original cycles/packet", 0, "%", -inf, 6},
	{"fig11/monotone", "cycles/packet fall as the limit grows", shape, "%", -inf, 3},
	{"fig11/knee", "steep drop then flat (x + y/k)", shape, "%", -inf, 20},
	{"fig11/chosen", "limit chosen", 20, "frames", 0, 0},
	{"fig12/lead-400", "Optimized ahead at 400 connections by", 40, "%", 40, inf},
	{"fig12/lead-fewer", "and by as much at 5 and 100", shape, "%", 40, inf},
	{"fig12/agg", "aggregation holds at 100+ connections", shape, "", 5, inf},
	{"table1/up-orig", "UP Original", 7874, "req/s", 7500, 8300},
	{"table1/up-opt", "UP Optimized", 7894, "req/s", 0, 0},
	{"table1/smp-orig", "SMP Original", 7970, "req/s", 0, 0},
	{"table1/smp-opt", "SMP Optimized", 7985, "req/s", 0, 0},
	{"table1/xen-orig", "Xen Original", 6965, "req/s", 0, 0},
	{"table1/xen-opt", "Xen Optimized", 6953, "req/s", 0, 0},
	{"table1/up-impact", "no noticeable impact on UP", shape, "%", -1, 1},
	{"table1/xen-impact", "or Xen", shape, "%", -1, 1},
	{"table1/xen-slower", "Xen slower than native", shape, "%", -inf, -1},

	// Unit checks: a claim on one component, where a whole run's band
	// does not apply, and values the text states outside any figure.
	{"unit/cpu-scaled-up", "UP's CPU-scaled gain on a two-burst receive rig", shape, "%", 30, inf},
	{"unit/gigabit-pps", "Gigabit MTU frame rate (§3.6)", 81274, "frames/s", 81000, 81500},
}

// Get returns the row for key; an unknown key panics.
func Get(key string) Row {
	for _, r := range Rows {
		if r.Key == key {
			return r
		}
	}
	panic("paper: no row " + key)
}

// Checked reports whether some check enforces r's band.
func (r Row) Checked() bool { return r.Lo != 0 || r.Hi != 0 }

// In reports whether v lies in r's band.
func (r Row) In(v float64) bool { return r.Lo <= v && v <= r.Hi }

// String is r as a footer states it: its label, then the paper's value.
func (r Row) String() string {
	if math.IsNaN(r.Paper) {
		return r.Label
	}
	sep := " "
	if len(r.Unit) == 1 { // % and x join the number
		sep = ""
	}
	return r.Label + " " + strconv.FormatFloat(r.Paper, 'f', -1, 64) + sep + r.Unit
}

// Footer renders figure's rows as the "(paper: ...)" lines printed
// beneath the figure, wrapped before 80 columns; "" for a figure with no
// rows.
func Footer(figure string) string {
	var out, line string
	for _, r := range Rows {
		if !strings.HasPrefix(r.Key, figure+"/") {
			continue
		}
		switch item := r.String(); {
		case line == "":
			line = "(paper: " + item
		case len(line)+len(item) < 78:
			line += "; " + item
		default:
			out += line + ";\n"
			line = " " + item
		}
	}
	if line == "" {
		return ""
	}
	return out + line + ")\n"
}
