// Package netstack glues the stack layers together: IP receive processing,
// demultiplexing of host packets to TCP endpoints, the non-protocol
// per-packet work the paper's profiles single out (softirq packet movement,
// netfilter hooks, socket wakeups — the non-proto category of §2.2), and
// the IP/queue transmit path for ACKs.
//
// The aggregation win for this layer is structural: everything charged here
// is per *host* packet, so a 20-fragment aggregate pays these costs once
// where the baseline pays them twenty times.
package netstack

import (
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/rss"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

// FlowKey identifies a connection by the packet's own addressing (source =
// remote peer, destination = local endpoint): the one four-tuple type,
// rss.FlowKey.
type FlowKey = rss.FlowKey

// Transmitter consumes outgoing SKBs (normally the NIC driver).
type Transmitter interface {
	Transmit(*buf.SKB)
}

// Stats counts stack activity.
type Stats struct {
	HostPacketsIn  uint64
	NetPacketsIn   uint64
	NoSocket       uint64
	BadChecksum    uint64
	Malformed      uint64
	HostPacketsOut uint64
	SoftCsumVerify uint64
}

// EndpointSlabBytes models the slab footprint of one registered endpoint:
// a Linux tcp_sock plus its socket, dst and hash-link overhead lands in
// the ~2 KB slab class. It sizes the machine-wide memory budget
// (MemStats) the connscale sweep reports against the registered
// population.
const EndpointSlabBytes = 2048

// MemStats is the stack's modeled memory budget: slab bytes for
// registered endpoints, TIME_WAIT shadow entries, and the demux table
// structure itself, with the run's high-water mark. It is the
// machine-wide footprint the connscale sweep holds against the cache
// capacity model — the budget grows linearly with registered endpoints
// while per-packet demux cost must not.
type MemStats struct {
	// EndpointBytes is registered endpoints × EndpointSlabBytes,
	// TimeWaitBytes lingering entries × TimeWaitEntryBytes, TableBytes
	// the demux structure (slot arrays or map buckets).
	EndpointBytes uint64 `json:"endpoint_bytes"`
	TimeWaitBytes uint64 `json:"timewait_bytes"`
	TableBytes    uint64 `json:"table_bytes"`
	// TotalBytes is the sum; PeakBytes the run's high-water total.
	TotalBytes uint64 `json:"total_bytes"`
	PeakBytes  uint64 `json:"peak_bytes"`
}

// Stack is one network namespace: an IP layer with a sharded TCP demux
// table (see FlowTable for the sharding rationale).
type Stack struct {
	meter  *cycles.Meter
	params *cost.Params
	alloc  *buf.Allocator

	// Tx transmits outgoing host packets; must be set before endpoints
	// send.
	Tx Transmitter
	// StampClock, when set, supplies the simulated-ns time used to stamp
	// each host packet's stack-entry boundary (internal/telemetry).
	// Read-only: no charge, no scheduling.
	StampClock func() uint64

	table *FlowTable
	tw    timeWaitTable
	stats Stats

	// scratch buffers for the input path.
	payloadScratch [][]byte
	ackScratch     []uint32

	// memPeak is the high-water MemStats total; twReaped is
	// ReapTimeWait's result storage.
	memPeak  uint64
	twReaped []FlowKey

	// output is s.Output bound once: every registration assigns it, so
	// registering does not allocate a method value per endpoint.
	output func(*buf.SKB)
}

// New creates an empty stack charging m under p, with the default shard
// count.
func New(m *cycles.Meter, p *cost.Params, alloc *buf.Allocator) *Stack {
	s, err := NewSharded(m, p, alloc, 0)
	if err != nil {
		panic(err) // unreachable: the default shard count is valid
	}
	return s
}

// NewSharded creates an empty stack whose flow table has the given
// power-of-two shard count (0 = DefaultFlowShards).
func NewSharded(m *cycles.Meter, p *cost.Params, alloc *buf.Allocator, shards int) (*Stack, error) {
	if m == nil || p == nil || alloc == nil {
		panic("netstack: nil dependency")
	}
	t, err := NewFlowTable(shards)
	if err != nil {
		return nil, err
	}
	// Demux structural touches price through the machine's memory model
	// at the capacity-miss excess (see FlowTable).
	t.SetPricing(m, p)
	// The TIME_WAIT table shares the flow table's sharding, so a flow's
	// lingering entry lives on the same softirq CPU as its demux entry.
	s := &Stack{meter: m, params: p, alloc: alloc, table: t, tw: timeWaitTable{nShards: t.Shards()}}
	s.output = s.Output
	return s, nil
}

// Stats returns a copy of the stack counters.
func (s *Stack) Stats() Stats { return s.stats }

// noteMem updates the memory-budget high-water mark; called wherever the
// footprint can grow (registration, TIME_WAIT entry).
func (s *Stack) noteMem() {
	total := uint64(s.table.Len())*EndpointSlabBytes +
		uint64(len(s.tw.keys))*TimeWaitEntryBytes + s.table.StructBytes()
	if total > s.memPeak {
		s.memPeak = total
	}
}

// MemStats returns the stack's modeled memory budget.
func (s *Stack) MemStats() MemStats {
	s.noteMem()
	ms := MemStats{
		EndpointBytes: uint64(s.table.Len()) * EndpointSlabBytes,
		TimeWaitBytes: uint64(len(s.tw.keys)) * TimeWaitEntryBytes,
		TableBytes:    s.table.StructBytes(),
		PeakBytes:     s.memPeak,
	}
	ms.TotalBytes = ms.EndpointBytes + ms.TimeWaitBytes + ms.TableBytes
	return ms
}

// FlowTable exposes the sharded demux table (stats, tests).
func (s *Stack) FlowTable() *FlowTable { return s.table }

// InputOn returns the input function of softirq CPU cpu. It receives one
// host packet (plain or aggregated SKB) from the driver or the
// aggregation engine, runs IP receive processing and the non-proto
// per-packet work, and delivers a tcp.Segment to the owning endpoint. The
// SKB is freed here on error paths; on success the endpoint frees it.
// Every delivery is attributed to cpu in the flow table's per-shard
// ownership accounting. Machines bind one per receive queue.
func (s *Stack) InputOn(cpu int) func(*buf.SKB) {
	return func(skb *buf.SKB) { s.inputFrom(cpu, skb) }
}

// Register adds an endpoint to the demux table under the key incoming
// packets for it will carry. It fails, changing nothing, on a duplicate
// key, or when the key needs a new endpoint handle and all MaxEndpoints
// are live (ErrTooManyEndpoints).
func (s *Stack) Register(ep *tcp.Endpoint, remoteIP, localIP ipv4.Addr, remotePort, localPort uint16) error {
	k := FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}
	if err := s.table.Insert(k, ep); err != nil {
		return err
	}
	ep.Output = s.output
	s.noteMem()
	return nil
}

// RegisterBatch binds ep under key(0), …, key(n-1) through
// FlowTable.InsertBatch, with exactly the effect of n Register calls in
// index order (on a duplicate, of the calls up to it). The memory budget's
// high-water mark is sampled once, after the batch: registration only
// grows the footprint, so its last value is its peak.
func (s *Stack) RegisterBatch(n int, key func(int) FlowKey, ep *tcp.Endpoint) error {
	before := s.table.Len()
	err := s.table.InsertBatch(n, key, ep)
	if s.table.Len() > before {
		ep.Output = s.output
		s.noteMem()
	}
	return err
}

// Unregister removes the endpoint bound to the given key, reporting
// whether it was registered.
func (s *Stack) Unregister(remoteIP, localIP ipv4.Addr, remotePort, localPort uint16) bool {
	return s.table.Remove(FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort})
}

// Endpoints returns the number of registered endpoints.
func (s *Stack) Endpoints() int { return s.table.Len() }

func (s *Stack) inputFrom(cpu int, skb *buf.SKB) {
	if s.StampClock != nil {
		skb.StackInNs = s.StampClock()
	}
	s.stats.HostPacketsIn++
	s.stats.NetPacketsIn += uint64(skb.NetPackets)

	// Non-protocol per-host-packet work: softirq handoff, netfilter
	// hooks, socket wakeup accounting (§2.2), plus SMP locking.
	s.meter.Charge(cycles.NonProto,
		s.params.SoftirqPerPacket+s.params.NetfilterPerPacket+s.params.NonProtoOther+
			s.params.LockCost(s.params.NonProtoLockOps))
	// IP receive processing.
	s.meter.Charge(cycles.Rx, s.params.IPRxFixed)

	l3 := skb.L3()
	// Header-only parse: an aggregate's rewritten total length covers
	// payload chained in fragments beyond the linear buffer.
	ih, err := ipv4.ParseHeaderOnly(l3)
	if err != nil || ih.Proto != ipv4.ProtoTCP {
		s.stats.Malformed++
		s.alloc.Free(skb)
		return
	}
	segEnd := ih.TotalLen
	if segEnd > len(l3) {
		if !skb.Aggregated {
			s.stats.Malformed++
			s.alloc.Free(skb)
			return
		}
		segEnd = len(l3)
	}
	seg := l3[ih.IHL:segEnd]
	th, err := tcpwire.Parse(seg)
	if err != nil {
		s.stats.Malformed++
		s.alloc.Free(skb)
		return
	}

	// Software checksum fallback: only when the NIC (or aggregation)
	// did not already verify. This is the per-byte cost path the paper
	// assumes away via receive checksum offload (§3.1).
	if !skb.CsumVerified {
		s.stats.SoftCsumVerify++
		s.meter.Charge(cycles.PerByte, s.params.Mem.ChecksumCost(ih.TotalLen-ih.IHL))
		if !tcpwire.VerifyChecksum(seg, ih.Src, ih.Dst) {
			s.stats.BadChecksum++
			s.alloc.Free(skb)
			return
		}
	}

	key := FlowKey{Src: ih.Src, Dst: ih.Dst, SrcPort: th.SrcPort, DstPort: th.DstPort}
	ep := s.table.LookupOn(cpu, key, skb.RSSHash, skb.NetPackets, skb.Aggregated)
	if ep == nil {
		s.stats.NoSocket++
		s.alloc.Free(skb)
		return
	}

	// Assemble the TCP layer's view: head payload plus chained fragment
	// payloads, with the per-fragment ACK metadata (§3.2). Both containers
	// are reusable scratch — the TCP layer only ranges over them during
	// Input (the OOO queue copies what it keeps), so the hot path does not
	// allocate them per delivery.
	headPayload := seg[th.DataOff:]
	payloads := s.payloadScratch[:0]
	if len(headPayload) > 0 {
		payloads = append(payloads, headPayload)
	}
	for i := range skb.Frags {
		payloads = append(payloads, skb.Frags[i].Data)
	}
	s.payloadScratch = payloads
	var fragAcks []uint32
	if skb.Aggregated {
		fragAcks = skb.AppendFragAcks(s.ackScratch[:0])
	} else {
		fragAcks = append(s.ackScratch[:0], th.Ack)
	}
	s.ackScratch = fragAcks
	ep.Input(tcp.Segment{
		Hdr:        th,
		Payloads:   payloads,
		FragAcks:   fragAcks,
		NetPackets: skb.NetPackets,
		Aggregated: skb.Aggregated,
		SKB:        skb,
	})
}

// Output transmits one host packet from an endpoint: IP transmit processing
// plus device-queue handling, then the driver. Wired as every registered
// endpoint's Output.
func (s *Stack) Output(skb *buf.SKB) {
	s.stats.HostPacketsOut++
	s.meter.Charge(cycles.Tx, s.params.IPTxFixed+s.params.TxQueueFixed)
	if s.Tx == nil {
		panic("netstack: Tx not wired")
	}
	s.Tx.Transmit(skb)
}
