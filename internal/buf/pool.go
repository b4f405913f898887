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

// pageBufs is how many buffers of one size class a page holds. Both page
// sizes, 8 × FrameBufCap = 12,288 and 8 × SmallBufCap = 2,048 bytes, are
// exact Go allocator size classes, so a page wastes nothing.
const pageBufs = 8

// Pool is a run-scoped free list of frame buffers: the host-side
// counterpart of the packet memory the cost model prices. Every simulated
// frame (data, retransmission, FIN, ACK, ACK-template expansion, Xen grant
// copy) is cut from it, and goes back at one explicit end of life — SKB
// free, link loss, a ring-full or queue-full drop, or the sender consuming
// a returned frame (ARCHITECTURE.md, "Frame buffer lifetime").
//
// A Pool is a plain LIFO slice per size class with no locking: a run
// shares one between its senders and the receiver. When a class's free
// list is empty, Get carves the next buffer from that class's current
// page of pageBufs buffers, and allocates a new page only once the
// current one is used up — one allocation per eight buffers, as Linux
// carves receive buffers from pages (netdev_alloc_frag). A carved buffer's
// capacity ends at its own slot, so an append past it reallocates instead
// of writing into the next buffer. A new page also makes room on the free
// list for the class's population, so Put never grows it. The pool never
// shrinks or pre-sizes.
// sync.Pool is deliberately not used: its GC-driven eviction would make
// the run's allocation count depend on GC timing.
//
// A nil *Pool is valid and allocates every buffer fresh (Put is a no-op),
// which is what unpooled allocators and hand-built test frames get.
type Pool struct {
	classes [2]class // SmallBufCap, FrameBufCap
}

// class is one size class: its free buffers, the uncarved rest of its
// current page, and how many buffers it has carved.
type class struct {
	free   [][]byte
	page   []byte
	carved int
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
	k := len(cls.free)
	if k == 0 {
		if len(cls.page) == 0 {
			cls.page = make([]byte, pageBufs*capacity)
			if pop := cls.carved + pageBufs; cap(cls.free) < pop {
				cls.free = make([][]byte, 0, 2*pop) // it is empty: nothing to copy
			}
		}
		cls.carved++
		b := cls.page[:n:capacity]
		cls.page = cls.page[capacity:]
		return b
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
	var cls *class
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

// Misses returns how many buffers the pool has carved from its pages: its
// whole population, since buffers never leave it. A run whose every frame is
// released at end of life reaches a steady population, so Misses stops
// growing with run length.
func (p *Pool) Misses() uint64 { return uint64(p.classes[0].carved + p.classes[1].carved) }

// Len returns the number of free buffers held.
func (p *Pool) Len() int { return len(p.classes[0].free) + len(p.classes[1].free) }
