package ether

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/paper"
)

func TestParsePutRoundTrip(t *testing.T) {
	h := Header{
		Dst:  Addr{0x00, 0x1b, 0x21, 0xaa, 0xbb, 0xcc},
		Src:  Addr{0x00, 0x1b, 0x21, 0x11, 0x22, 0x33},
		Type: TypeIPv4,
	}
	b := make([]byte, HeaderLen)
	if err := h.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: got %+v, want %+v", got, h)
	}
}

func TestParseShort(t *testing.T) {
	if _, err := Parse(make([]byte, HeaderLen-1)); err == nil {
		t.Error("expected error for short frame")
	}
	if err := (Header{}).Put(make([]byte, 5)); err == nil {
		t.Error("expected error for short buffer")
	}
}

func TestPayload(t *testing.T) {
	b := make([]byte, HeaderLen+4)
	copy(b[HeaderLen:], []byte{1, 2, 3, 4})
	p, err := Payload(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte{1, 2, 3, 4}) {
		t.Errorf("payload = %v", p)
	}
	if _, err := Payload(make([]byte, 3)); err == nil {
		t.Error("expected error for short frame")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{0x00, 0x1b, 0x21, 0xaa, 0xbb, 0xcc}
	if got, want := a.String(), "00:1b:21:aa:bb:cc"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestWireOverheadConstant(t *testing.T) {
	// 1538 bytes of wire time per 1500-byte MTU frame: the basis of the
	// Gigabit packet rate the paper cites (§3.6).
	frame := HeaderLen + MTU + PerFrameOverhead
	if frame != 1538 {
		t.Errorf("wire bytes per MTU frame = %d, want 1538", frame)
	}
	row := paper.Get("unit/gigabit-pps")
	if pps := 1e9 / 8 / float64(frame); !row.In(pps) {
		t.Errorf("gigabit MTU packet rate = %.0f, want ~%v", pps, row.Paper)
	}
}

func TestHeaderRoundTrip_Quick(t *testing.T) {
	f := func(dst, src [6]byte, typ uint16) bool {
		h := Header{Dst: Addr(dst), Src: Addr(src), Type: typ}
		b := make([]byte, HeaderLen)
		if err := h.Put(b); err != nil {
			return false
		}
		got, err := Parse(b)
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
