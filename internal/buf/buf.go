// Package buf provides the packet buffer and metadata structures of the
// simulated network stack, mirroring the roles of the Linux sk_buff.
//
// The paper's profiling (§2.2) shows that most of the buffer-management
// overhead of the receive path is the *metadata* (sk_buff) management, not
// the packet memory itself. The optimized path therefore allocates one SKB
// per aggregated packet instead of one per network frame, and the raw frames
// the NIC delivers are chained into it as fragments without copying (§3.2,
// §3.5). This package makes those costs explicit: every allocation, free and
// fragment attach charges the buffer category of the owning meter.
package buf

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/cycles"
)

// Kind distinguishes SKB flavors for cost accounting.
type Kind int

const (
	// KindData is a full-size data packet SKB.
	KindData Kind = iota
	// KindAck is a small ACK SKB.
	KindAck
)

// PacketAcks is the most ACKs one host packet can make its receiver emit:
// one per constituent frame of the largest aggregate, at the paper's
// Aggregation Limit of 20 (aggregate.DefaultConfig), plus one for a FIN.
// Every container that holds one packet's ACKs — the endpoint's pending
// ACKs, an SKB's template ACKs and the driver's expansions — takes it as
// its first size, so none doubles from empty; a larger Limit grows them
// once more.
const PacketAcks = 20 + 1

// Frag is one chained fragment of an aggregated packet: the payload bytes
// of one constituent network frame (§3.2: subsequent TCP fragments retain
// only their payload).
type Frag struct {
	// Data is the fragment payload.
	Data []byte
	// Buf is the pool buffer Data lies in (the whole constituent frame),
	// released when the SKB is freed; nil when the frame does not belong
	// to a pool (hand-built test frames), which is then never released.
	Buf []byte
	// Ack is the TCP acknowledgment number carried by the original
	// network packet, saved for the TCP layer's §3.4 processing.
	Ack uint32
	// TSVal is the original packet's timestamp value (kept for tests
	// asserting the §3.6 timestamp argument).
	TSVal uint32
}

// SKB is the packet metadata structure handed through the stack.
type SKB struct {
	// Kind is the accounting flavor the SKB was allocated under.
	Kind Kind
	// Head is the linear buffer: for received packets the full Ethernet
	// frame (and, for aggregates, the first constituent frame); for
	// transmitted packets the full frame to put on the wire.
	Head []byte
	// Pooled marks Head as a pool buffer: Free releases it. Whoever hands
	// Head on beyond the SKB's life (the driver putting it on the wire)
	// clears the mark first and passes ownership along with the bytes.
	Pooled bool
	// L3Offset is the offset of the IP header within Head.
	L3Offset int
	// Frags are the payloads of the second and subsequent aggregated
	// frames, in sequence order. Empty for ordinary packets.
	Frags []Frag
	// FirstAck is the TCP ACK number of the first constituent frame.
	FirstAck uint32
	// NetPackets is the number of network frames this SKB represents
	// (1 for ordinary packets, the aggregation count for aggregates).
	NetPackets int
	// Aggregated marks SKBs built by Receive Aggregation.
	Aggregated bool
	// CsumVerified marks the transport checksum as already validated
	// (by NIC offload, propagated through aggregation, §3.2).
	CsumVerified bool
	// RSSHash is the NIC's Toeplitz flow hash, propagated so the
	// stack's sharded demux never recomputes it in software (0 = not
	// hashed; the stack then hashes the four-tuple itself).
	RSSHash uint32
	// TemplateAcks, when non-nil, marks this SKB as an ACK template
	// (paper §4.2): Head holds the first ACK packet and TemplateAcks
	// holds the ACK numbers of the remaining ACKs to materialize at the
	// driver.
	TemplateAcks []uint32

	// Stage-boundary stamps (internal/telemetry), in simulated ns, carried
	// from the head constituent frame: sender transmit start, NIC ring
	// arrival, driver softirq dequeue, aggregation close, and stack TCP
	// demux entry. Zero = the boundary was not crossed (or stamping is
	// unwired). Stamping is an unconditional value write on the hot path;
	// it charges no cycles and schedules nothing, so the stamps exist
	// whether or not telemetry reads them.
	SentNs     uint64
	ArriveNs   uint64
	DequeueNs  uint64
	AggCloseNs uint64
	StackInNs  uint64

	alloc *Allocator
	freed bool
	// tmplCap keeps a freed template's TemplateAcks capacity for reuse
	// (TemplateAcks itself must go nil: non-nil marks a template).
	tmplCap []uint32
}

// L3 returns the bytes of Head from the IP header onward.
func (s *SKB) L3() []byte { return s.Head[s.L3Offset:] }

// SetTemplateAcks marks the SKB as an ACK template carrying a copy of acks
// (which must be non-empty), reusing the capacity of the SKB's previous
// template so that template building allocates nothing in steady state. An
// SKB's first template gets room for PacketAcks, carved from its
// allocator's storage when it has one, as does a larger one.
func (s *SKB) SetTemplateAcks(acks []uint32) {
	if cap(s.tmplCap) < len(acks) {
		var st *Store[uint32]
		if s.alloc != nil {
			st = s.alloc.store.tmplStore()
		}
		if cap(s.tmplCap) == 0 {
			s.tmplCap = st.Take(max(len(acks), PacketAcks))
		} else {
			s.tmplCap = st.Grow(s.tmplCap[:0], len(acks))
		}
	}
	s.TemplateAcks = append(s.tmplCap[:0], acks...)
}

// FragAcks returns the ACK numbers of all constituent frames in order,
// including the first. For ordinary packets it returns just FirstAck.
// This is the metadata the modified TCP layer consumes (§3.4).
func (s *SKB) FragAcks() []uint32 {
	return s.AppendFragAcks(make([]uint32, 0, 1+len(s.Frags)))
}

// AppendFragAcks appends the constituent ACK numbers to dst and returns
// it. The stack's hot path passes a per-CPU scratch slice here so a
// delivery allocates nothing (the TCP layer only ranges over the result).
func (s *SKB) AppendFragAcks(dst []uint32) []uint32 {
	dst = append(dst, s.FirstAck)
	for i := range s.Frags {
		dst = append(dst, s.Frags[i].Ack)
	}
	return dst
}

// Stats counts allocator activity; the sim and tests use it to assert the
// packet-vs-aggregate reduction factors.
type Stats struct {
	DataAllocs, DataFrees uint64
	AckAllocs, AckFrees   uint64
	FragAttaches          uint64
	Live                  int64
}

// Allocator allocates and frees SKBs, charging the buffer category of the
// owning meter per the cost table. It mirrors the mostly-lock-free Linux
// slab usage on this path (§2.3): no locked operations are charged even on
// SMP profiles.
type Allocator struct {
	meter  *cycles.Meter
	params *cost.Params
	stats  Stats
	free   []*SKB
	pool   *Pool
	store  *Storage
}

// Storage is a receiving machine's storage for SKB records and their
// fragment and template arrays: one Store for each, so the machine's
// aggregates and ACK templates carve them from shared pages. An allocator
// without one (SetStorage) allocates each record and array itself.
type Storage struct {
	skbs  Store[SKB]
	frags Store[Frag]
	tmpls Store[uint32]
}

// The stores of a nil Storage are nil: they allocate every array.

func (s *Storage) skbStore() *Store[SKB] {
	if s == nil {
		return nil
	}
	return &s.skbs
}

func (s *Storage) fragStore() *Store[Frag] {
	if s == nil {
		return nil
	}
	return &s.frags
}

func (s *Storage) tmplStore() *Store[uint32] {
	if s == nil {
		return nil
	}
	return &s.tmpls
}

// SetStorage makes the allocator carve SKB records and their fragment
// and template arrays from s, its machine's storage (nil: none).
func (a *Allocator) SetStorage(s *Storage) { a.store = s }

// NewAllocator returns an allocator charging m under p.
func NewAllocator(m *cycles.Meter, p *cost.Params) *Allocator {
	if m == nil || p == nil {
		panic("buf: allocator needs meter and params")
	}
	return &Allocator{meter: m, params: p}
}

// SetPool makes the allocator cut frame buffers from p and release the
// pool buffers of the SKBs it frees back into it (nil: no pooling).
func (a *Allocator) SetPool(p *Pool) { a.pool = p }

// Pool returns the allocator's frame-buffer pool (nil when unpooled).
func (a *Allocator) Pool() *Pool { return a.pool }

// FrameBuf returns an n-byte frame buffer with undefined contents, and
// whether it belongs to the allocator's pool — in which case whoever ends
// the frame's life must release it (Free, via SKB.Pooled or Frag.Buf, or
// Release). Pure host bookkeeping: no cycles are charged.
func (a *Allocator) FrameBuf(n int) (b []byte, pooled bool) {
	return a.pool.Get(n), a.pool != nil
}

// Release returns a pool frame buffer that never reached an SKB (a frame
// dropped before the stack saw it) to the allocator's pool.
func (a *Allocator) Release(b []byte) { a.pool.Put(b) }

// NewData allocates a data SKB around the given frame bytes, charging
// SKBAlloc. l3Offset locates the IP header within head.
func (a *Allocator) NewData(head []byte, l3Offset int) *SKB {
	a.meter.Charge(cycles.Buffer, a.params.SKBAlloc)
	a.stats.DataAllocs++
	a.stats.Live++
	s := a.get()
	s.Kind = KindData
	s.Head = head
	s.L3Offset = l3Offset
	s.NetPackets = 1
	return s
}

// NewAck allocates a small ACK SKB, charging AckSKBAlloc.
func (a *Allocator) NewAck(frame []byte, l3Offset int) *SKB {
	a.meter.Charge(cycles.Buffer, a.params.AckSKBAlloc)
	a.stats.AckAllocs++
	a.stats.Live++
	s := a.get()
	s.Kind = KindAck
	s.Head = frame
	s.L3Offset = l3Offset
	s.NetPackets = 1
	return s
}

// ChargeFrameBuf charges the per-frame packet-memory management cost
// (DataBufPerFrame). The NIC's receive buffer is managed once per network
// frame regardless of aggregation; the driver calls this for every frame.
func (a *Allocator) ChargeFrameBuf() {
	a.meter.Charge(cycles.Buffer, a.params.DataBufPerFrame)
}

// AttachFrag chains a fragment onto an aggregate SKB, charging FragAttach
// (§3.2: chaining sets fragment pointers; no data copy).
func (a *Allocator) AttachFrag(s *SKB, f Frag) {
	if s.freed {
		panic("buf: AttachFrag on freed SKB")
	}
	a.meter.Charge(cycles.Buffer, a.params.FragAttach)
	a.stats.FragAttaches++
	s.Frags = append(a.store.fragStore().Room(s.Frags, 1), f)
	s.NetPackets++
}

// FragRoom gives s, at its first aggregation, room for n fragments,
// carved from the allocator's storage when it has one. A recycled SKB keeps its room.
// Pure host bookkeeping: no cycles are charged.
func (a *Allocator) FragRoom(s *SKB, n int) {
	if cap(s.Frags) == 0 {
		s.Frags = a.store.fragStore().Take(n)
	}
}

// Free releases the SKB, charging the matching free cost. Double frees
// panic: they are stack bugs the simulation must surface, not tolerate.
func (a *Allocator) Free(s *SKB) {
	if s == nil {
		return
	}
	if s.freed {
		panic("buf: double free")
	}
	switch s.Kind {
	case KindData:
		a.meter.Charge(cycles.Buffer, a.params.SKBFree)
		a.stats.DataFrees++
	case KindAck:
		a.meter.Charge(cycles.Buffer, a.params.AckSKBFree)
		a.stats.AckFrees++
	default:
		panic(fmt.Sprintf("buf: free of unknown kind %d", int(s.Kind)))
	}
	a.stats.Live--
	s.freed = true
	if s.Pooled {
		a.pool.Put(s.Head)
	}
	s.Head = nil
	// Release the fragments' frame buffers and drop the references but keep
	// the backing array: an aggregate SKB's Frags regrow to the same length
	// every cycle, and reusing the capacity removes the per-aggregate slice
	// allocation.
	for i := range s.Frags {
		if s.Frags[i].Buf != nil {
			a.pool.Put(s.Frags[i].Buf)
		}
		s.Frags[i] = Frag{}
	}
	s.Frags = s.Frags[:0]
	// TemplateAcks goes nil (non-nil is the "this SKB is an ACK template"
	// marker); its capacity is kept aside for SetTemplateAcks.
	if s.TemplateAcks != nil {
		s.tmplCap = s.TemplateAcks[:0]
	}
	s.TemplateAcks = nil
	if len(a.free) < 1024 {
		a.free = append(a.free, s)
	}
}

// Stats returns a copy of the allocator's counters.
func (a *Allocator) Stats() Stats { return a.stats }

// get recycles a freed SKB or makes a new one, carved from the
// allocator's storage when it has one. Recycling keeps the simulator's Go-level allocation rate
// flat at high packet rates; it has no bearing on the charged cycle costs.
func (a *Allocator) get() *SKB {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		// Preserve the recycled fragment and template capacity.
		*s = SKB{alloc: a, Frags: s.Frags[:0], tmplCap: s.tmplCap}
		return s
	}
	s := a.store.skbStore().Record()
	s.alloc = a
	return s
}
