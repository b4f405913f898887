package buf

import (
	"fmt"
	"testing"
	"time"
)

// seededInputs is how many splitmix64-seeded inputs TestSeededFuzzBodies
// feeds the pool body: about 0.1 s of work on a 2-core host,
// inside a budget of 1 s (seededBudget).
const (
	seededInputs = 64
	seededBudget = time.Second
)

// splitmix64 is the SplitMix64 finalizer, the seeded inputs' generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// FuzzPool drives a pool through Gets and Puts decoded from the input and
// checks it against a model of its size classes (poolOps).
func FuzzPool(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0x0b, 0xfe, 0x0c, 0x02, 0, 1}) // one buffer of each class and an oversize one, then a Put
	f.Add(make([]byte, 2*2*pageBufs+2))                     // a page and more of one class, no Put
	f.Fuzz(poolOps)
}

// poolOps reads ops as two-byte operations, big-endian v. An even v gets a
// buffer of (v>>1) % (FrameBufCap+2) bytes, so every size from 0 to one
// past the frame class occurs; an odd v puts back the live buffer at index
// (v>>1) % live. Each live buffer's whole [:cap] holds a pattern of its
// own. On every Put and at the end the body checks that no live pattern
// was overwritten (carved buffers never alias), that a pooled buffer's cap
// is its class cap, and that Misses counts the buffers carved and Len the
// buffers put back less those reused.
func poolOps(t *testing.T, ops []byte) {
	type liveBuf struct {
		b  []byte
		id uint64
	}
	pattern := func(id uint64, j int) byte { return byte(splitmix64(id ^ uint64(j)<<32)) }
	fill := func(l liveBuf) {
		full := l.b[:cap(l.b)]
		for j := range full {
			full[j] = pattern(l.id, j)
		}
	}
	intact := func(l liveBuf) bool {
		for j, c := range l.b[:cap(l.b)] {
			if c != pattern(l.id, j) {
				return false
			}
		}
		return true
	}
	p := NewPool()
	var (
		live   []liveBuf
		free   [2]int // modelled free buffers: SmallBufCap, FrameBufCap
		carved int
		nextID uint64
	)
	check := func(op int) {
		for i, l := range live {
			if !intact(l) {
				t.Fatalf("op %d: live buffer %d (id %d, cap %d) was overwritten", op, i, l.id, cap(l.b))
			}
		}
		if p.Misses() != uint64(carved) || p.Len() != free[0]+free[1] {
			t.Fatalf("op %d: Misses %d, Len %d; want %d carved and %d free", op, p.Misses(), p.Len(), carved, free[0]+free[1])
		}
	}
	for op := 0; op+1 < len(ops); op += 2 {
		v := int(ops[op])<<8 | int(ops[op+1])
		if v&1 == 1 {
			if len(live) == 0 {
				continue
			}
			i := (v >> 1) % len(live)
			l := live[i]
			live = append(live[:i], live[i+1:]...)
			p.Put(l.b)
			switch cap(l.b) {
			case SmallBufCap:
				free[0]++
			case FrameBufCap:
				free[1]++
			}
			check(op)
			continue
		}
		n := (v >> 1) % (FrameBufCap + 2)
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("op %d: Get(%d) has length %d", op, n, len(b))
		}
		if n <= FrameBufCap {
			cls, want := 1, FrameBufCap
			if n <= SmallBufCap {
				cls, want = 0, SmallBufCap
			}
			if cap(b) != want {
				t.Fatalf("op %d: Get(%d) has cap %d, want the class cap %d", op, n, cap(b), want)
			}
			if free[cls] > 0 {
				free[cls]--
			} else {
				carved++
			}
		}
		l := liveBuf{b: b, id: nextID}
		nextID++
		fill(l)
		live = append(live, l)
	}
	check(len(ops))
}

// TestSeededFuzzBodies runs FuzzPool's body on seededInputs fixed inputs
// drawn from splitmix64, each 1 to 256 operations long, so a plain test
// run explores past the corpus without the fuzz engine. The elapsed time
// is logged against seededBudget rather than checked, so a slow host (or
// the race detector) cannot fail it.
func TestSeededFuzzBodies(t *testing.T) {
	begin := time.Now()
	for i := uint64(0); i < seededInputs; i++ {
		x := splitmix64(i)
		ops := make([]byte, 2*(1+x%256))
		for j := range ops {
			x = splitmix64(x)
			ops[j] = byte(x)
		}
		t.Run(fmt.Sprintf("Pool/%d", i), func(t *testing.T) { poolOps(t, ops) })
	}
	t.Logf("%d seeded inputs for the pool body in %v (budget %v)",
		seededInputs, time.Since(begin), seededBudget)
}
