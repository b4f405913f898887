package checksum

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSumKnownVector(t *testing.T) {
	// RFC 1071 §3 worked example: words 0001 f203 f4f5 f6f7 sum to ddf2
	// (before complement).
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum(b); got != 0xddf2 {
		t.Errorf("Sum = %#04x, want 0xddf2", got)
	}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestSumOddLength(t *testing.T) {
	// Odd final byte is padded on the right with zero.
	if got, want := Sum([]byte{0xab}), uint16(0xab00); got != want {
		t.Errorf("odd Sum = %#04x, want %#04x", got, want)
	}
	want := fold(uint32(0x1234) + uint32(0x5600))
	if got := Sum([]byte{0x12, 0x34, 0x56}); got != want {
		t.Errorf("odd Sum = %#04x, want %#04x", got, want)
	}
}

func TestSumEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %#04x, want 0", got)
	}
	if got := Checksum(nil); got != 0xffff {
		t.Errorf("Checksum(nil) = %#04x, want 0xffff", got)
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(100)*2
		b := make([]byte, n)
		rng.Read(b)
		// Zero a checksum field at a random even offset, then insert
		// the computed checksum there and verify the whole buffer.
		off := rng.Intn(n/2) * 2
		b[off], b[off+1] = 0, 0
		c := Checksum(b)
		binary.BigEndian.PutUint16(b[off:], c)
		if !Verify(b) {
			t.Fatalf("trial %d: buffer does not verify after inserting checksum", trial)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	b := []byte{0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7}
	c := Checksum(b)
	binary.BigEndian.PutUint16(b[10:], c)
	if !Verify(b) {
		t.Fatal("valid header does not verify")
	}
	b[15] ^= 0x01
	if Verify(b) {
		t.Fatal("corrupted header verifies")
	}
}

func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		a := make([]byte, 2*(1+rng.Intn(50)))
		b := make([]byte, 2*(1+rng.Intn(50)))
		rng.Read(a)
		rng.Read(b)
		whole := Sum(append(append([]byte{}, a...), b...))
		if got := Combine(Sum(a), Sum(b)); got != whole {
			t.Fatalf("Combine mismatch: %#04x vs %#04x", got, whole)
		}
	}
}

func TestUpdate16MatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		b := make([]byte, 40)
		rng.Read(b)
		off := rng.Intn(20) * 2
		old := Checksum(b)
		oldVal := binary.BigEndian.Uint16(b[off:])
		newVal := uint16(rng.Intn(1 << 16))
		binary.BigEndian.PutUint16(b[off:], newVal)
		want := Checksum(b)
		if got := Update16(old, oldVal, newVal); got != want {
			t.Fatalf("trial %d: Update16 = %#04x, recompute = %#04x", trial, got, want)
		}
	}
}

func TestUpdate32MatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		b := make([]byte, 60)
		rng.Read(b)
		off := rng.Intn(14) * 4
		old := Checksum(b)
		oldVal := binary.BigEndian.Uint32(b[off:])
		newVal := rng.Uint32()
		binary.BigEndian.PutUint32(b[off:], newVal)
		want := Checksum(b)
		if got := Update32(old, oldVal, newVal); got != want {
			t.Fatalf("trial %d: Update32 = %#04x, recompute = %#04x", trial, got, want)
		}
	}
}

func TestTransportChecksum(t *testing.T) {
	src := [4]byte{192, 168, 0, 1}
	dst := [4]byte{192, 168, 0, 199}
	seg := make([]byte, 40)
	for i := range seg {
		seg[i] = byte(i * 7)
	}
	// Zero the TCP checksum field (offset 16) before computing.
	seg[16], seg[17] = 0, 0
	c := TransportChecksum(src, dst, 6, seg)
	binary.BigEndian.PutUint16(seg[16:], c)
	if !VerifyTransport(src, dst, 6, seg) {
		t.Fatal("segment does not verify after inserting transport checksum")
	}
	seg[30] ^= 0xff
	if VerifyTransport(src, dst, 6, seg) {
		t.Fatal("corrupted segment verifies")
	}
}

func TestPseudoHeaderSumProtocolSensitivity(t *testing.T) {
	src := [4]byte{10, 0, 0, 1}
	dst := [4]byte{10, 0, 0, 2}
	if PseudoHeaderSum(src, dst, 6, 100) == PseudoHeaderSum(src, dst, 17, 100) {
		t.Error("pseudo-header sum must depend on protocol")
	}
	if PseudoHeaderSum(src, dst, 6, 100) == PseudoHeaderSum(src, dst, 6, 101) {
		t.Error("pseudo-header sum must depend on length")
	}
}

// Property: for any buffer with its checksum inserted, Verify holds.
func TestChecksumInsertVerify_Quick(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 4 {
			return true
		}
		b := append([]byte{}, data...)
		if len(b)%2 == 1 {
			b = append(b, 0)
		}
		b[0], b[1] = 0, 0
		binary.BigEndian.PutUint16(b[0:], Checksum(b))
		return Verify(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Update16 is involutive — changing a field and changing it back
// restores the original checksum.
func TestUpdate16Involution_Quick(t *testing.T) {
	f := func(old, a, b uint16) bool {
		return Update16(Update16(old, a, b), b, a) == old
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Update32 composes from two Update16 steps in either order.
func TestUpdate32Composition_Quick(t *testing.T) {
	f := func(old uint16, a, b uint32) bool {
		viaHiLo := Update16(Update16(old, uint16(a>>16), uint16(b>>16)),
			uint16(a&0xffff), uint16(b&0xffff))
		viaLoHi := Update16(Update16(old, uint16(a&0xffff), uint16(b&0xffff)),
			uint16(a>>16), uint16(b>>16))
		got := Update32(old, a, b)
		return got == viaHiLo && got == viaLoHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceSum is the RFC 1071 loop Sum replaced: 16-bit big-endian words
// into a 32-bit accumulator, odd byte padded on the right. The word-wide
// Sum must agree with it bit for bit.
func referenceSum(b []byte) uint16 {
	var sum uint32
	n := len(b) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)&1 != 0 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return fold(sum)
}

func TestSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 2048+8)
	fills := map[string]func([]byte){
		"random": func(b []byte) { rng.Read(b) },
		"zeros":  func(b []byte) { clear(b) },
		"ones": func(b []byte) {
			for i := range b {
				b[i] = 0xff
			}
		},
	}
	for name, fill := range fills {
		for n := 0; n <= 2048; n++ {
			// Start at every alignment mod 8 over the run, so the word
			// loop sees unaligned slices too.
			off := n % 8
			b := buf[off : off+n]
			fill(b)
			if got, want := Sum(b), referenceSum(b); got != want {
				t.Fatalf("%s len %d: Sum = %#04x, reference %#04x", name, n, got, want)
			}
		}
	}
}

func FuzzSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xab})
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Sum(b), referenceSum(b); got != want {
			t.Fatalf("len %d: Sum = %#04x, reference %#04x", len(b), got, want)
		}
	})
}

func BenchmarkSum1448(b *testing.B) {
	buf := make([]byte, 1448)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1448)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum(buf)
	}
}

func BenchmarkChecksum1448(b *testing.B) {
	buf := make([]byte, 1448)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1448)
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

func BenchmarkUpdate32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Update32(0x1234, uint32(i), uint32(i+1448))
	}
}
