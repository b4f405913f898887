// Package cost centralizes every unit cost charged by the simulated receive
// path, together with the machine profiles used in the paper's evaluation.
//
// Calibration discipline: the constants below are set ONCE so that the
// baseline uniprocessor profile reproduces the category shares of the
// paper's Figure 3 and the baseline throughput of Figure 7 at CPU
// saturation on a 3.0 GHz Xeon. internal/paper holds those values and the
// bands the calibration tests enforce. Every other number the experiments
// report (bench/rxperf/README.md keeps the baseline table) — the SMP and
// Xen profiles, all optimized variants, the aggregation-limit sweep and
// the scalability curve — is *emergent*: the event counts change with the
// configuration, the unit costs never do.
//
// Costs are expressed in CPU cycles. Fixed instruction-path costs are plain
// constants; memory-dependent costs go through memmodel so that the prefetch
// configuration (paper Figure 1) affects exactly the sequential per-byte
// operations and nothing else.
package cost

import (
	"fmt"

	"repro/internal/memmodel"
)

// Params is the complete cost table for one simulated machine.
type Params struct {
	// Name identifies the machine profile (for reports).
	Name string
	// ClockHz is the CPU core clock.
	ClockHz float64
	// Cores is the number of cores. The receive path itself is serialized
	// (ARCHITECTURE.md, "One core runs the receive path"): extra cores
	// absorb non-network work only.
	Cores int
	// SMP enables locked-RMW charging on the locking routines (§2.3).
	SMP bool
	// Mem prices memory accesses.
	Mem memmodel.Params

	// --- Driver (per network frame unless stated) ---

	// DriverRxFixed is the driver's per-frame instruction path: descriptor
	// writeback handling, ring bookkeeping, napi poll loop share.
	DriverRxFixed uint64
	// DriverDescLines is the number of cold descriptor cache lines touched
	// per frame (random access).
	DriverDescLines int
	// MACProcFixed is the MAC/eth header processing instruction path; in
	// the optimized stack it moves to the aggregation routine along with
	// the compulsory header-touch miss (paper §5.1: the pair is worth
	// ~681 cycles on the 3 GHz machine).
	MACProcFixed uint64
	// DriverTxPerPacket is the driver cost of transmitting one packet
	// (ACKs, on the receive-heavy path).
	DriverTxPerPacket uint64
	// AckExpandPerAck is the fixed cost of materializing one ACK from a
	// template at the driver (copy header, patch ACK field, incremental
	// checksum); the small copy is priced separately through Mem.
	AckExpandPerAck uint64
	// AckBytes is the on-wire size of an ACK (eth+ip+tcp+timestamps).
	AckBytes int

	// --- Buffer management ---

	// SKBAlloc/SKBFree price sk_buff metadata management for a data
	// packet; the paper attributes most buffer overhead here (§2.2).
	SKBAlloc, SKBFree uint64
	// AckSKBAlloc/AckSKBFree price the small ACK sk_buffs.
	AckSKBAlloc, AckSKBFree uint64
	// DataBufPerFrame prices per-frame packet-memory management (the
	// buffer the NIC DMAed into), which remains per-frame even when
	// aggregated.
	DataBufPerFrame uint64
	// FragAttach prices chaining one network frame into an aggregate's
	// fragment list (§3.2).
	FragAttach uint64

	// --- TCP/IP receive (rx) ---

	// IPRxFixed prices IP-layer receive processing per host packet.
	IPRxFixed uint64
	// TCPRxSegment prices TCP receive processing per host packet.
	TCPRxSegment uint64
	// TCPRxPerFrag prices the §3.4 modifications: per-fragment ACK-number
	// and cwnd bookkeeping plus segment-count accounting.
	TCPRxPerFrag uint64

	// --- TCP/IP transmit (tx, the ACK path) ---

	// TCPMakeAck prices building one ACK (or one template) in the TCP layer.
	TCPMakeAck uint64
	// IPTxFixed prices IP-layer transmit processing per host packet.
	IPTxFixed uint64
	// TxQueueFixed prices qdisc/dev-queue handling per host packet.
	TxQueueFixed uint64
	// AckTemplatePerAck prices recording one additional ACK number in a
	// template (§4.2).
	AckTemplatePerAck uint64

	// --- Non-protocol per-packet kernel work ---

	// SoftirqPerPacket prices packet movement between interrupt and
	// softirq context per host packet.
	SoftirqPerPacket uint64
	// NetfilterPerPacket prices netfilter hook traversal per host packet.
	NetfilterPerPacket uint64
	// NonProtoOther prices remaining per-host-packet kernel work
	// (socket wakeups, accounting).
	NonProtoOther uint64
	// NonProtoRawPerFrame prices raw-frame handling in the optimized
	// path before aggregation (queue production/consumption).
	NonProtoRawPerFrame uint64

	// --- Misc ---

	// MiscPerPacket prices unclassifiable routines (scheduling, timers)
	// amortized per network frame.
	MiscPerPacket uint64

	// --- Receive Aggregation ---

	// AggrPerFrame is the aggregation routine's per-frame instruction
	// path (early demux parse, hash, match); the compulsory header miss
	// is priced through Mem.HeaderTouchCost.
	AggrPerFrame uint64
	// AggrPerAggregate is the per-aggregate overhead (flush, lookup-table
	// maintenance, header rewrite, IP checksum over 20 bytes).
	AggrPerAggregate uint64

	// --- Per-byte ---

	// CopyFixed is the instruction-path cost of one copy invocation
	// (function call, iov setup); the streamed bytes go through Mem.
	CopyFixed uint64

	// --- SMP locking (charged only when SMP is true, §2.3) ---

	// LockedRMW is the cost of one lock-prefixed read-modify-write.
	LockedRMW uint64
	// RxLockOps, TxLockOps, NonProtoLockOps are locked-RMW counts per
	// host packet in the respective routine groups. Buffer management
	// and the copy are lock-free in Linux (§2.3) and have no counts.
	RxLockOps, TxLockOps, NonProtoLockOps int
	// SMPMiscExtra is per-frame cache-coherence overhead (bouncing of
	// softirq/process-context shared state), charged to misc.
	SMPMiscExtra uint64

	// --- Xen virtualization (zero for native profiles) ---

	// BridgePerPacket prices the driver-domain software bridge per host
	// packet seen by the bridge.
	BridgePerPacket uint64
	// NetbackPerPacket / NetbackPerFrag split the netback driver's cost
	// into its per-packet and per-fragment components (§5.1 notes the
	// paravirtual drivers keep a per-fragment cost under aggregation).
	NetbackPerPacket, NetbackPerFrag uint64
	// NetfrontPerPacket / NetfrontPerFrag: same split for the guest side.
	NetfrontPerPacket, NetfrontPerFrag uint64
	// GrantCopyFixed prices issuing one grant-copy operation; the copied
	// bytes go through Mem (this is the first of the two per-byte copies
	// on the virtualized path, §2.4).
	GrantCopyFixed uint64
	// XenGrantPerFrag prices grant-table validation per fragment.
	XenGrantPerFrag uint64
	// XenEvtChnPerPacket prices event-channel signalling per host packet.
	XenEvtChnPerPacket uint64
	// XenSchedPerPacket prices hypervisor scheduling amortized per frame.
	XenSchedPerPacket uint64
	// Dom0MiscPerFrame prices driver-domain misc routines per frame.
	Dom0MiscPerFrame uint64
}

// Validate checks internal consistency of the profile.
func (p *Params) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("cost: profile has no name")
	}
	if p.ClockHz <= 0 {
		return fmt.Errorf("cost: ClockHz %v must be positive", p.ClockHz)
	}
	if p.Cores <= 0 {
		return fmt.Errorf("cost: Cores %d must be positive", p.Cores)
	}
	if err := p.Mem.Validate(); err != nil {
		return fmt.Errorf("cost: %w", err)
	}
	if p.SMP && p.LockedRMW == 0 {
		return fmt.Errorf("cost: SMP profile needs LockedRMW cost")
	}
	if p.DriverDescLines <= 0 {
		return fmt.Errorf("cost: DriverDescLines %d must be positive", p.DriverDescLines)
	}
	if p.AckBytes <= 0 {
		return fmt.Errorf("cost: AckBytes %d must be positive", p.AckBytes)
	}
	return nil
}

// LockCost returns the cost of n locked RMW operations on this machine:
// zero on uniprocessors, n*LockedRMW on SMP (§2.3).
func (p *Params) LockCost(n int) uint64 {
	if !p.SMP {
		return 0
	}
	return uint64(n) * p.LockedRMW
}

// baseMem returns the memory system shared by all profiles, at the given
// clock (DRAM latency is ~100 ns of wall time, so its cycle cost scales
// with the clock).
func baseMem(clockGHz float64) memmodel.Params {
	return memmodel.Params{
		LineSize:         64,
		DRAMLatency:      uint64(100 * clockGHz), // 100 ns demand miss
		PrefetchedHit:    13,
		StrideTrainLines: 2,
		StoreCost:        25,
		Mode:             memmodel.PrefetchFull,
		// 2 MB L2 (Irwindale-class Xeon): the capacity-miss threshold for
		// long-lived structures like the demux table. Structures that fit
		// stay warm (their cost is inside the calibrated constants);
		// structures that outgrow it pay DRAM latency on the cold
		// fraction of their touches.
		CacheBytes: 2 << 20,
	}
}

// nativeBase returns the cost table shared by the native profiles.
// See package comment for the calibration targets.
func nativeBase(name string, clockGHz float64) Params {
	return Params{
		Name:    name,
		ClockHz: clockGHz * 1e9,
		Cores:   1,
		Mem:     baseMem(clockGHz),

		DriverRxFixed:     934,
		DriverDescLines:   1,
		MACProcFixed:      81,
		DriverTxPerPacket: 400,
		AckExpandPerAck:   150,
		AckBytes:          66,

		SKBAlloc:        650,
		SKBFree:         450,
		AckSKBAlloc:     300,
		AckSKBFree:      200,
		DataBufPerFrame: 140,
		FragAttach:      130,

		IPRxFixed:    230,
		TCPRxSegment: 1050,
		TCPRxPerFrag: 280,

		TCPMakeAck:        700,
		IPTxFixed:         300,
		TxQueueFixed:      700,
		AckTemplatePerAck: 150,

		SoftirqPerPacket:    420,
		NetfilterPerPacket:  350,
		NonProtoOther:       250,
		NonProtoRawPerFrame: 80,

		MiscPerPacket: 1600,

		AggrPerFrame:     120,
		AggrPerAggregate: 500,

		CopyFixed: 150,

		LockedRMW:       132,
		RxLockOps:       6,
		TxLockOps:       5,
		NonProtoLockOps: 1,
		SMPMiscExtra:    425,
	}
}

// NativeUP is the 3.0 GHz uniprocessor profile of Figures 3, 7, 8, 11 and
// Table 1.
func NativeUP() Params { return nativeBase("Linux UP", 3.0) }

// NativeUP38 is the 3.80 GHz uniprocessor profile used for the prefetching
// study (Figures 1 and 2; paper §2).
func NativeUP38() Params { return nativeBase("Linux UP 3.8GHz", 3.8) }

// NativeSMP is the dual-core 3.0 GHz SMP profile of Figures 4, 7, 9, 12 and
// Table 1. Locked-RMW counts reproduce the paper's rx +62% / tx +40% (§2.3);
// the receive path remains serialized on one core (Linux 2.6.16 routed all
// NIC interrupts to CPU0 by default), which is why SMP baseline throughput
// is below UP.
func NativeSMP() Params {
	p := nativeBase("Linux SMP", 3.0)
	p.Cores = 2
	p.SMP = true
	return p
}

// XenGuest is the Xen 3.0.4 profile of Figures 6, 7, 10 and Table 1: a
// Linux guest with its virtual interface bridged to the physical NIC by a
// driver domain, all sharing a 3.0 GHz CPU.
func XenGuest() Params {
	p := nativeBase("Xen", 3.0)
	p.BridgePerPacket = 2500
	p.NetbackPerPacket = 1000
	p.NetbackPerFrag = 2400
	p.NetfrontPerPacket = 900
	p.NetfrontPerFrag = 2000
	p.GrantCopyFixed = 1500
	p.XenGrantPerFrag = 2800
	p.XenEvtChnPerPacket = 500
	p.XenSchedPerPacket = 500
	p.Dom0MiscPerFrame = 800
	return p
}
