// Package cycles provides CPU-cycle accounting for the simulated receive
// path. Every routine in the stack charges its cost to a Meter under one of
// the overhead categories used by the paper's OProfile-based breakdowns
// (per-byte, rx, tx, buffer, non-proto, driver, misc, aggr, and the Xen
// virtualization categories).
//
// Meters are deliberately simple counters: the simulation is single-threaded
// per machine, mirroring the serialized softirq receive path of the paper's
// Linux 2.6.16 kernels, so no synchronization is required on the hot path.
package cycles

import "fmt"

// Category identifies one overhead bucket from the paper's profiles.
type Category int

// Overhead categories. The first seven are the native-Linux categories of
// Figures 1, 3, 4, 8 and 9; Aggr is the added cost of Receive Aggregation
// (Figures 8-10); Xen, Netback and Netfront are the additional categories of
// the virtualized profiles (Figures 6 and 10).
const (
	// PerByte covers the data-touching routines: the copy to the
	// application (and, under Xen, the inter-domain grant copy).
	PerByte Category = iota
	// Rx covers TCP/IP protocol processing on the receive path.
	Rx
	// Tx covers TCP/IP protocol processing on the transmit path
	// (ACK generation and transmission).
	Tx
	// Buffer covers buffer management: sk_buff allocation/free and
	// packet-memory management.
	Buffer
	// NonProto covers per-packet kernel routines outside core protocol
	// processing: softirq/interrupt packet movement, netfilter, bridging.
	NonProto
	// Driver covers device-driver routines and interrupt-mode execution.
	Driver
	// Misc covers routines not attributable to the receive path
	// (scheduling, timers, profiling overhead).
	Misc
	// Aggr is the cost of the Receive Aggregation routine itself.
	Aggr
	// Xen is hypervisor work: domain scheduling, event channels,
	// grant-table validation.
	Xen
	// Netback is the driver-domain half of the paravirtual driver pair.
	Netback
	// Netfront is the guest half of the paravirtual driver pair.
	Netfront

	// NumCategories is the number of distinct categories.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"per-byte", "rx", "tx", "buffer", "non-proto", "driver", "misc",
	"aggr", "xen", "netback", "netfront",
}

// String returns the category name as used in the paper's figures.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Valid reports whether c is a defined category.
func (c Category) Valid() bool { return c >= 0 && c < NumCategories }

// PerPacketCategories are the categories the paper classifies as per-packet
// overhead in the native profiles: rx, tx, buffer and non-proto. The driver
// is also per-packet but is reported separately (paper §2.2), because its
// cost cannot be removed without NIC changes.
var PerPacketCategories = []Category{Rx, Tx, Buffer, NonProto}

// XenPerPacketCategories are the categories the paper sums as the per-packet
// overhead of the virtualized receive path (paper §2.4): non-proto, netback,
// netfront, tcp rx, tcp tx and buffer.
var XenPerPacketCategories = []Category{NonProto, Netback, Netfront, Rx, Tx, Buffer}

// Meter accumulates cycles per category. The zero value is ready to use.
type Meter struct {
	counts [NumCategories]uint64
}

// Charge adds cycles to category c. Charging a negative or out-of-range
// category panics: it is always a programming error in the stack.
func (m *Meter) Charge(c Category, cycles uint64) {
	if !c.Valid() {
		panic(fmt.Sprintf("cycles: charge to invalid category %d", int(c)))
	}
	m.counts[c] += cycles
}

// Get returns the cycles accumulated in category c.
func (m *Meter) Get(c Category) uint64 {
	if !c.Valid() {
		panic(fmt.Sprintf("cycles: read of invalid category %d", int(c)))
	}
	return m.counts[c]
}

// Total returns the cycles accumulated across all categories.
func (m *Meter) Total() uint64 {
	var t uint64
	for _, v := range m.counts {
		t += v
	}
	return t
}

// Sum returns the cycles accumulated across the given categories.
func (m *Meter) Sum(cats ...Category) uint64 {
	var t uint64
	for _, c := range cats {
		t += m.Get(c)
	}
	return t
}

// Reset zeroes all categories.
func (m *Meter) Reset() { m.counts = [NumCategories]uint64{} }

// Snapshot returns a copy of the meter's current state.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{counts: m.counts}
}

// Snapshot is an immutable copy of a Meter, with derived reporting helpers.
type Snapshot struct {
	counts [NumCategories]uint64
}

// Get returns the cycles recorded for category c.
func (s Snapshot) Get(c Category) uint64 {
	if !c.Valid() {
		panic(fmt.Sprintf("cycles: read of invalid category %d", int(c)))
	}
	return s.counts[c]
}

// Total returns the snapshot's total cycles.
func (s Snapshot) Total() uint64 {
	var t uint64
	for _, v := range s.counts {
		t += v
	}
	return t
}

// Sum returns the cycles across the given categories.
func (s Snapshot) Sum(cats ...Category) uint64 {
	var t uint64
	for _, c := range cats {
		t += s.Get(c)
	}
	return t
}

// Sub returns a snapshot holding s - prev per category. It panics if any
// category would go negative (meters are monotone).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var out Snapshot
	for i := range s.counts {
		if s.counts[i] < prev.counts[i] {
			panic("cycles: snapshot subtraction went negative")
		}
		out.counts[i] = s.counts[i] - prev.counts[i]
	}
	return out
}

// Breakdown is a per-category view normalized to a unit of work, typically
// "CPU cycles per network packet" as in the paper's Figures 3-10.
type Breakdown struct {
	// Unit describes the divisor, e.g. "packet".
	Unit string
	// Per holds cycles per unit for each category.
	Per [NumCategories]float64
}

// PerPacket divides the snapshot by the number of network packets processed
// and returns the resulting breakdown. n must be positive.
func (s Snapshot) PerPacket(n uint64) Breakdown {
	if n == 0 {
		panic("cycles: PerPacket with zero packets")
	}
	b := Breakdown{Unit: "packet"}
	for i := range s.counts {
		b.Per[i] = float64(s.counts[i]) / float64(n)
	}
	return b
}

// Get returns the per-unit cycles for category c.
func (b Breakdown) Get(c Category) float64 {
	if !c.Valid() {
		panic(fmt.Sprintf("cycles: read of invalid category %d", int(c)))
	}
	return b.Per[c]
}

// Total returns the per-unit cycles summed over all categories.
func (b Breakdown) Total() float64 {
	var t float64
	for _, v := range b.Per {
		t += v
	}
	return t
}

// Sum returns per-unit cycles across the given categories.
func (b Breakdown) Sum(cats ...Category) float64 {
	var t float64
	for _, c := range cats {
		t += b.Get(c)
	}
	return t
}
