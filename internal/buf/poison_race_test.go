//go:build race

package buf

import "testing"

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestPoisonOnRelease(t *testing.T) {
	p := NewPool()
	b := p.Get(64)
	for i := range b {
		b[i] = byte(i)
	}
	p.Put(b)
	for i, c := range b[:cap(b)] {
		if c != poisonByte {
			t.Fatalf("byte %d of a released buffer is %#x, want poison", i, c)
		}
	}
	mustPanic(t, "double release", func() { p.Put(b) })
}

func TestPoisonDetectsWriteAfterRelease(t *testing.T) {
	p := NewPool()
	b := p.Get(64)
	p.Put(b)
	b[3] = 1 // a stale owner writes after the end of life
	mustPanic(t, "Get of a buffer written after release", func() { p.Get(64) })
}
