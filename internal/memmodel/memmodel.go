// Package memmodel prices memory accesses on the simulated receiver CPU.
//
// The paper's central architectural observation (§2.1) is that hardware
// prefetching has made *sequential* memory access cheap while leaving
// *random* access expensive: the per-byte receive operations (data copy,
// checksum) stream through the packet payload sequentially and ride the
// prefetcher, while the per-packet operations chase pointers through cold
// sk_buffs, queue heads and socket structures and do not.
//
// This package models exactly that distinction at cache-line granularity.
// Three prefetch configurations mirror the paper's Figure 1:
//
//   - None: every line of a streamed buffer pays full DRAM latency.
//   - Partial: adjacent-cache-line prefetch; lines are fetched in pairs, so
//     a stream pays DRAM latency on every other line.
//   - Full: adjacent-line plus stride prefetching; after a short training
//     window the prefetcher runs ahead of the stream and subsequent lines
//     hit in the cache at near-L2 cost.
//
// Random (pointer-chasing) touches pay full DRAM latency regardless of the
// prefetch mode: there is no sequential pattern to train on. Stores are
// priced separately and cheaply: the store buffer and write-combining hide
// most of their latency in all configurations.
package memmodel

import "fmt"

// PrefetchMode selects the CPU's hardware prefetch configuration
// (paper Figure 1: None / Partial / Full).
type PrefetchMode int

const (
	// PrefetchNone disables all hardware prefetching.
	PrefetchNone PrefetchMode = iota
	// PrefetchPartial enables adjacent-cache-line prefetch only.
	PrefetchPartial
	// PrefetchFull enables adjacent-line and stride-based prefetching.
	PrefetchFull
)

// String returns the configuration name used in the paper.
func (m PrefetchMode) String() string {
	switch m {
	case PrefetchNone:
		return "None"
	case PrefetchPartial:
		return "Partial"
	case PrefetchFull:
		return "Full"
	default:
		return fmt.Sprintf("PrefetchMode(%d)", int(m))
	}
}

// Valid reports whether m is a defined mode.
func (m PrefetchMode) Valid() bool {
	return m >= PrefetchNone && m <= PrefetchFull
}

// Params describes the memory system of a simulated machine. All latencies
// are in CPU cycles; convert from nanoseconds with the machine's clock.
type Params struct {
	// LineSize is the cache line size in bytes (64 on the paper's Xeons).
	LineSize int
	// DRAMLatency is the cost of a demand miss to main memory.
	DRAMLatency uint64
	// PrefetchedHit is the cost of loading a line the stride prefetcher
	// has already brought in (near-L2 latency).
	PrefetchedHit uint64
	// StrideTrainLines is how many leading lines of a stream miss before
	// the stride prefetcher locks on (Full mode only).
	StrideTrainLines int
	// StoreCost is the amortized per-line cost of streaming stores; the
	// store buffer hides DRAM latency in every prefetch mode.
	StoreCost uint64
	// Mode is the active prefetch configuration.
	Mode PrefetchMode
	// CacheBytes is the effective last-level-cache capacity available to
	// long-lived stack structures (the 2 MB L2 of the paper-era Xeons).
	// It drives the capacity-miss model (CapacityTouchCost): touches into
	// a structure that fits in cache are free — their warm cost is already
	// inside the calibrated per-packet constants — while touches into a
	// structure larger than the cache pay DRAM latency on the cold
	// fraction. 0 disables the capacity model entirely (every structural
	// touch prices as warm), which is the pre-connscale behaviour.
	CacheBytes uint64
}

// Validate returns an error describing the first invalid field, or nil.
func (p Params) Validate() error {
	switch {
	case p.LineSize <= 0:
		return fmt.Errorf("memmodel: LineSize %d must be positive", p.LineSize)
	case p.DRAMLatency == 0:
		return fmt.Errorf("memmodel: DRAMLatency must be positive")
	case p.PrefetchedHit == 0:
		return fmt.Errorf("memmodel: PrefetchedHit must be positive")
	case p.PrefetchedHit > p.DRAMLatency:
		return fmt.Errorf("memmodel: PrefetchedHit %d exceeds DRAMLatency %d",
			p.PrefetchedHit, p.DRAMLatency)
	case p.StrideTrainLines < 0:
		return fmt.Errorf("memmodel: StrideTrainLines %d negative", p.StrideTrainLines)
	case !p.Mode.Valid():
		return fmt.Errorf("memmodel: invalid prefetch mode %d", int(p.Mode))
	}
	return nil
}

// WithMode returns a copy of p with the prefetch mode replaced. The cost
// constants are properties of the memory system and do not change.
func (p Params) WithMode(m PrefetchMode) Params {
	p.Mode = m
	return p
}

// Lines returns the number of cache lines spanned by n bytes (rounded up).
// Zero or negative sizes span zero lines.
func (p Params) Lines(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.LineSize - 1) / p.LineSize
}

// SequentialReadCost prices a streaming read of n bytes of cold (just-DMAed)
// data. This is the cost model behind the per-byte receive operations.
func (p Params) SequentialReadCost(n int) uint64 {
	lines := p.Lines(n)
	if lines == 0 {
		return 0
	}
	switch p.Mode {
	case PrefetchNone:
		// Every line is a compulsory DRAM miss.
		return uint64(lines) * p.DRAMLatency
	case PrefetchPartial:
		// Adjacent-line prefetch fetches pairs: ceil(lines/2) misses,
		// the buddy lines hit at prefetched cost.
		misses := uint64((lines + 1) / 2)
		buddies := uint64(lines) - misses
		return misses*p.DRAMLatency + buddies*p.PrefetchedHit
	case PrefetchFull:
		// The stride prefetcher trains on the first few lines and then
		// stays ahead of the stream.
		train := p.StrideTrainLines
		if train > lines {
			train = lines
		}
		ahead := uint64(lines - train)
		return uint64(train)*p.DRAMLatency + ahead*p.PrefetchedHit
	default:
		panic(fmt.Sprintf("memmodel: invalid prefetch mode %d", int(p.Mode)))
	}
}

// SequentialWriteCost prices a streaming write of n bytes. Streaming stores
// retire through the store buffer at StoreCost per line in every mode.
func (p Params) SequentialWriteCost(n int) uint64 {
	return uint64(p.Lines(n)) * p.StoreCost
}

// CopyCost prices copying n bytes of cold data to a warm destination:
// a streaming read of the source plus streaming stores to the destination.
// This is the dominant per-byte operation (skb -> user buffer copy, and the
// Xen inter-domain grant copy).
func (p Params) CopyCost(n int) uint64 {
	return p.SequentialReadCost(n) + p.SequentialWriteCost(n)
}

// ChecksumCost prices software-checksumming n bytes of cold data: a pure
// streaming read (the accumulator lives in registers).
func (p Params) ChecksumCost(n int) uint64 {
	return p.SequentialReadCost(n)
}

// RandomTouchCost prices touching `lines` independent cold cache lines in a
// pointer-chasing pattern. Prefetching cannot help: each address depends on
// the previous load. This is the access pattern of the per-packet
// operations, and why they came to dominate (paper §2.1).
func (p Params) RandomTouchCost(lines int) uint64 {
	if lines <= 0 {
		return 0
	}
	return uint64(lines) * p.DRAMLatency
}

// CapacityColdFraction returns the expected fraction of uniformly
// distributed touches into a resident structure of footprint bytes that
// miss the cache: 0 while the structure fits (its lines stay resident
// between touches — the warm regime every calibrated constant already
// includes), rising toward 1 as the structure dwarfs the cache. This is
// the standard capacity-miss approximation for a structure accessed with
// no locality: of its footprint, at most CacheBytes can be resident, so
// a uniformly random touch hits with probability CacheBytes/footprint.
// Returns 0 when the capacity model is disabled (CacheBytes == 0).
func (p Params) CapacityColdFraction(footprint uint64) float64 {
	if p.CacheBytes == 0 || footprint <= p.CacheBytes {
		return 0
	}
	return float64(footprint-p.CacheBytes) / float64(footprint)
}

// CapacityTouchCost prices lines dependent line touches into a resident
// structure of footprint bytes: the capacity-miss *excess* over the warm
// regime — RandomTouchCost scaled by the cold fraction. Zero while the
// structure fits in cache, so small-population runs price identically to
// a model without capacity misses; a structure much larger than the
// cache pays nearly full DRAM latency per touch. This is the demux-table
// pricing rule: connection-table population becomes a per-packet cost
// axis exactly when the table outgrows the cache ("Algorithms and Data
// Structures to Accelerate Network Analysis", Ros-Giralt et al.). It is
// CapacityTouchCostAt at the footprint's cold fraction.
func (p Params) CapacityTouchCost(lines int, footprint uint64) uint64 {
	return p.CapacityTouchCostAt(lines, p.CapacityColdFraction(footprint))
}

// CapacityTouchCostAt prices lines touches at cold fraction cold, the
// CapacityColdFraction of the structure's footprint. A caller pricing many
// touches at one footprint computes the fraction once and gets, bit for
// bit, what CapacityTouchCost would charge.
func (p Params) CapacityTouchCostAt(lines int, cold float64) uint64 {
	if lines <= 0 || cold == 0 {
		return 0
	}
	return uint64(float64(lines) * cold * float64(p.DRAMLatency))
}

// CapacityStreamCost prices a sequential sweep over n bytes of a resident
// structure of footprint bytes (table growth rehash): the streaming read
// and write costs scaled by the capacity cold fraction. Zero while the
// structure fits in cache, like every capacity charge. It is
// CapacityStreamCostAt at the footprint's cold fraction.
func (p Params) CapacityStreamCost(n int, footprint uint64) uint64 {
	return p.CapacityStreamCostAt(n, p.CapacityColdFraction(footprint))
}

// CapacityStreamCostAt prices a sequential sweep over n bytes at cold
// fraction cold, as CapacityTouchCostAt prices touches.
func (p Params) CapacityStreamCostAt(n int, cold float64) uint64 {
	if cold == 0 {
		return 0
	}
	warm := p.SequentialReadCost(n) + p.SequentialWriteCost(n)
	return uint64(cold * float64(warm))
}

// HeaderTouchCost prices the compulsory miss taken when first touching a
// packet's headers in host memory after DMA. Headers (Ethernet+IP+TCP with
// timestamps, 66 bytes) straddle two cache lines in the common case but the
// demand misses overlap; the paper measures this early-demux cost at ~789
// cycles including hashing (§5.1). We price the memory component as two
// dependent line misses.
func (p Params) HeaderTouchCost() uint64 {
	return p.RandomTouchCost(2)
}
