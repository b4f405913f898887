package cycles

import (
	"testing"
	"testing/quick"
)

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		PerByte:  "per-byte",
		Rx:       "rx",
		Tx:       "tx",
		Buffer:   "buffer",
		NonProto: "non-proto",
		Driver:   "driver",
		Misc:     "misc",
		Aggr:     "aggr",
		Xen:      "xen",
		Netback:  "netback",
		Netfront: "netfront",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Category(%d).String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Category(99).String(); got != "Category(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestCategoryValid(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if !c.Valid() {
			t.Errorf("category %v should be valid", c)
		}
	}
	for _, c := range []Category{-1, NumCategories, 100} {
		if c.Valid() {
			t.Errorf("category %d should be invalid", int(c))
		}
	}
}

func TestMeterChargeAndGet(t *testing.T) {
	var m Meter
	m.Charge(Rx, 100)
	m.Charge(Rx, 50)
	m.Charge(Tx, 25)
	if got := m.Get(Rx); got != 150 {
		t.Errorf("Get(Rx) = %d, want 150", got)
	}
	if got := m.Get(Tx); got != 25 {
		t.Errorf("Get(Tx) = %d, want 25", got)
	}
	if got := m.Get(Buffer); got != 0 {
		t.Errorf("Get(Buffer) = %d, want 0", got)
	}
	if got := m.Total(); got != 175 {
		t.Errorf("Total() = %d, want 175", got)
	}
}

func TestMeterChargeInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid category charge")
		}
	}()
	var m Meter
	m.Charge(NumCategories, 1)
}

func TestMeterGetInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid category read")
		}
	}()
	var m Meter
	m.Get(-1)
}

func TestMeterSum(t *testing.T) {
	var m Meter
	m.Charge(Rx, 10)
	m.Charge(Tx, 20)
	m.Charge(Buffer, 30)
	m.Charge(NonProto, 40)
	m.Charge(Driver, 1000)
	if got := m.Sum(PerPacketCategories...); got != 100 {
		t.Errorf("Sum(per-packet) = %d, want 100", got)
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Charge(Misc, 7)
	m.Reset()
	if m.Total() != 0 {
		t.Errorf("Total after Reset = %d, want 0", m.Total())
	}
}

func TestSnapshotSub(t *testing.T) {
	var m Meter
	m.Charge(Driver, 100)
	before := m.Snapshot()
	m.Charge(Driver, 40)
	m.Charge(Rx, 7)
	delta := m.Snapshot().Sub(before)
	if got := delta.Get(Driver); got != 40 {
		t.Errorf("delta Driver = %d, want 40", got)
	}
	if got := delta.Get(Rx); got != 7 {
		t.Errorf("delta Rx = %d, want 7", got)
	}
}

func TestSnapshotSubNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative subtraction")
		}
	}()
	var m Meter
	m.Charge(Rx, 5)
	later := m.Snapshot()
	m.Charge(Rx, 5)
	later.Sub(m.Snapshot())
}

func TestPerPacketBreakdown(t *testing.T) {
	var m Meter
	m.Charge(Rx, 1000)
	m.Charge(PerByte, 500)
	b := m.Snapshot().PerPacket(10)
	if got := b.Get(Rx); got != 100 {
		t.Errorf("per-packet Rx = %v, want 100", got)
	}
	if got := b.Get(PerByte); got != 50 {
		t.Errorf("per-packet PerByte = %v, want 50", got)
	}
	if got := b.Total(); got != 150 {
		t.Errorf("per-packet total = %v, want 150", got)
	}
	if got := b.Sum(Rx, PerByte); got != 150 {
		t.Errorf("per-packet Sum = %v, want 150", got)
	}
}

func TestPerPacketZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero packet count")
		}
	}()
	var m Meter
	m.Snapshot().PerPacket(0)
}

// Property: Total always equals the sum of per-category Gets, on the meter
// and on its snapshot.
func TestMeterInvariants_Quick(t *testing.T) {
	f := func(charges []uint16) bool {
		var m Meter
		var want uint64
		for i, ch := range charges {
			c := Category(i % int(NumCategories))
			m.Charge(c, uint64(ch))
			want += uint64(ch)
		}
		if m.Total() != want {
			return false
		}
		s := m.Snapshot()
		var sum uint64
		for c := Category(0); c < NumCategories; c++ {
			sum += s.Get(c)
		}
		return s.Total() == want && sum == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sub is the inverse of charging more.
func TestSnapshotSubInvariant_Quick(t *testing.T) {
	f := func(base, extra []uint16) bool {
		var m Meter
		for i, ch := range base {
			m.Charge(Category(i%int(NumCategories)), uint64(ch))
		}
		before := m.Snapshot()
		var added uint64
		for i, ch := range extra {
			m.Charge(Category(i%int(NumCategories)), uint64(ch))
			added += uint64(ch)
		}
		delta := m.Snapshot().Sub(before)
		return delta.Total() == added
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
