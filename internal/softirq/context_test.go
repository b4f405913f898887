package softirq

import "testing"

func TestContextRunAndIdle(t *testing.T) {
	ctx, err := NewContext[int](8)
	if err != nil {
		t.Fatal(err)
	}
	var handled []int
	idles := 0
	ctx.Handle = func(v int) { handled = append(handled, v) }
	ctx.Idle = func() { idles++ }

	for i := 1; i <= 5; i++ {
		if !ctx.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	// Budget smaller than backlog: no idle flush yet.
	if n := ctx.Run(3); n != 3 {
		t.Fatalf("Run(3) = %d", n)
	}
	if idles != 0 {
		t.Error("Idle fired with items still queued")
	}
	// Draining run fires Idle exactly once.
	if n := ctx.Run(100); n != 2 {
		t.Fatalf("second Run = %d", n)
	}
	if idles != 1 {
		t.Errorf("idles = %d, want 1", idles)
	}
	for i, v := range handled {
		if v != i+1 {
			t.Fatalf("handled out of order: %v", handled)
		}
	}
	if len(handled) != 5 {
		t.Errorf("handled %d items, want 5", len(handled))
	}
	// An empty ring consumes nothing and still reports idle.
	if n := ctx.Run(100); n != 0 {
		t.Errorf("empty Run = %d", n)
	}
	if idles != 2 {
		t.Errorf("idles = %d after an empty run, want 2", idles)
	}
}

func TestContextOverflow(t *testing.T) {
	ctx, err := NewContext[int](2) // capacity rounds to 2
	if err != nil {
		t.Fatal(err)
	}
	var handled []int
	ctx.Handle = func(v int) { handled = append(handled, v) }
	if !ctx.Enqueue(1) || !ctx.Enqueue(2) {
		t.Fatal("ring should hold two items")
	}
	if ctx.Enqueue(3) {
		t.Error("overflow enqueue succeeded")
	}
	// The rejected item is gone; the two accepted ones are handled.
	if n := ctx.Run(100); n != 2 || len(handled) != 2 || handled[1] != 2 {
		t.Errorf("Run = %d, handled %v; want 2 items [1 2]", n, handled)
	}
	if _, err := NewContext[int](0); err == nil {
		t.Error("zero capacity accepted")
	}
}
