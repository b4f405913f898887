package buf

// The pool keeps two size classes, each the Go allocator size class the
// frames it holds would occupy anyway, so pooling costs no more memory per
// buffer than allocating one did. FrameBufCap holds a full-MSS Ethernet
// frame with the timestamp option (1514 bytes); SmallBufCap holds pure
// ACKs (66 bytes, 94 with three SACK blocks) and small requests.
const (
	FrameBufCap = 1536
	SmallBufCap = 256
)

// poisonByte fills released buffers in poison mode (race builds): a stale
// reader sees it instead of plausible old frame bytes.
const poisonByte = 0xdb

// Pool is a run-scoped free list of frame buffers: the host-side
// counterpart of the packet memory the cost model prices. Every simulated
// frame (data, retransmission, FIN, ACK, ACK-template expansion, Xen grant
// copy) is cut from it, and goes back at one explicit end of life — SKB
// free, link loss, a ring-full or queue-full drop, or the sender consuming
// a returned frame (ARCHITECTURE.md, "Frame buffer lifetime").
//
// A Pool is a plain LIFO slice per size class with no locking: a serial
// run shares one between its senders and the receiver, and the parallel
// scheduler gives each event lane its own and rebalances them at the epoch
// barrier, when no lane runs (Rebalance). It grows lazily, one buffer per
// miss, and never shrinks or pre-sizes. sync.Pool is deliberately not used: its GC-driven
// eviction would make the run's allocation count depend on GC timing.
//
// A nil *Pool is valid and allocates every buffer fresh (Put is a no-op),
// which is what unpooled allocators and hand-built test frames get.
type Pool struct {
	classes [2]freeList // SmallBufCap, FrameBufCap
	misses  uint64
}

// freeList is one size class of a Pool.
type freeList struct {
	free [][]byte
	// window counts Gets since the last Rebalance; demand is the largest
	// window seen, the stock a lane keeps across a barrier.
	window, demand int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns an n-byte buffer. Its contents are undefined (stale frame
// bytes, or poison in race builds): the caller must overwrite all n bytes.
// Requests beyond FrameBufCap are allocated to size and dropped again by
// Put.
func (p *Pool) Get(n int) []byte {
	if p == nil || n > FrameBufCap {
		return make([]byte, n)
	}
	cls, capacity := &p.classes[1], FrameBufCap
	if n <= SmallBufCap {
		cls, capacity = &p.classes[0], SmallBufCap
	}
	cls.window++
	k := len(cls.free)
	if k == 0 {
		p.misses++
		return make([]byte, n, capacity)
	}
	b := cls.free[k-1]
	cls.free[k-1] = nil
	cls.free = cls.free[:k-1]
	if poisonReleased {
		if !poisoned(b) {
			panic("buf: a released frame buffer was written after its release")
		}
		// Mark it issued, so that releasing it unwritten is not taken
		// for a double release.
		b[capacity-1] = 0
	}
	return b[:n]
}

// Put releases a buffer Get issued. The caller must hold the only live
// reference: releasing is the buffer's end of life. In race builds the
// buffer is poisoned, and releasing an already released buffer panics.
func (p *Pool) Put(b []byte) {
	if p == nil {
		return
	}
	var cls *freeList
	switch cap(b) {
	case SmallBufCap:
		cls = &p.classes[0]
	case FrameBufCap:
		cls = &p.classes[1]
	default:
		return
	}
	b = b[:cap(b)]
	if poisonReleased {
		if poisoned(b) {
			panic("buf: frame buffer released twice")
		}
		for i := range b {
			b[i] = poisonByte
		}
	}
	cls.free = append(cls.free, b)
}

// poisoned reports whether every byte of b is the poison byte. A live
// frame never is: its Ethernet type field alone rules it out.
func poisoned(b []byte) bool {
	for _, c := range b {
		if c != poisonByte {
			return false
		}
	}
	return true
}

// Misses returns how many buffers the pool has had to allocate: its whole
// population, since buffers never leave it. A run whose every frame is
// released at end of life reaches a steady population, so Misses stops
// growing with run length.
func (p *Pool) Misses() uint64 { return p.misses }

// Len returns the number of free buffers held.
func (p *Pool) Len() int { return len(p.classes[0].free) + len(p.classes[1].free) }

// Rebalance moves free buffers between per-lane pools at a parallel
// scheduler's epoch barrier, where no lane runs. Buffers drift one way per
// lane — data frames are cut on link lanes and released on CPU lanes, ACKs
// the reverse — so each lane first hands everything beyond its demand (the
// most Gets it has served between two barriers) to spare, and then every
// lane short of its demand refills from spare. A lane therefore misses only
// when it serves more Gets in one window than in any window before, and the
// population stays bounded. The order is fixed, so the allocation count is
// as deterministic as the schedule.
func Rebalance(spare *Pool, lanes []*Pool) {
	for c := range spare.classes {
		sp := &spare.classes[c]
		for _, p := range lanes {
			l := &p.classes[c]
			if l.window > l.demand {
				l.demand = l.window
			}
			l.window = 0
			if len(l.free) > l.demand {
				sp.free = append(sp.free, l.free[l.demand:]...)
				clear(l.free[l.demand:])
				l.free = l.free[:l.demand]
			}
		}
		for _, p := range lanes {
			l := &p.classes[c]
			need := l.demand - len(l.free)
			if need <= 0 {
				continue
			}
			k := max(len(sp.free)-need, 0)
			l.free = append(l.free, sp.free[k:]...)
			clear(sp.free[k:])
			sp.free = sp.free[:k]
		}
	}
}
