package ipv4

import (
	"testing"
	"testing/quick"
)

func sampleHeader() Header {
	return Header{
		IHL:      MinHeaderLen,
		TOS:      0,
		TotalLen: MinHeaderLen + 1448 + 32,
		ID:       0x1c46,
		DF:       true,
		TTL:      64,
		Proto:    ProtoTCP,
		Src:      Addr{192, 168, 0, 1},
		Dst:      Addr{192, 168, 0, 199},
	}
}

func TestPutParseRoundTrip(t *testing.T) {
	h := sampleHeader()
	b := make([]byte, h.TotalLen)
	if err := h.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLen != h.TotalLen || got.ID != h.ID || got.Src != h.Src ||
		got.Dst != h.Dst || got.Proto != h.Proto || !got.DF || got.MF {
		t.Errorf("round trip mismatch: %+v vs %+v", got, h)
	}
	if !VerifyChecksum(b) {
		t.Error("serialized header fails checksum verification")
	}
}

func TestParseRejectsBadHeaders(t *testing.T) {
	h := sampleHeader()
	good := make([]byte, h.TotalLen)
	if err := h.Put(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"short", func(b []byte) []byte { return b[:10] }},
		{"bad version", func(b []byte) []byte { b[0] = 0x65; return b }},
		{"bad ihl", func(b []byte) []byte { b[0] = 0x41; return b }},
		{"truncated vs ihl", func(b []byte) []byte { b[0] = 0x4f; return b[:30] }},
		{"total below ihl", func(b []byte) []byte { b[2], b[3] = 0, 8; return b }},
		{"total beyond buffer", func(b []byte) []byte { b[2], b[3] = 0xff, 0xff; return b }},
	}
	for _, tc := range cases {
		b := append([]byte{}, good...)
		if _, err := Parse(tc.mutate(b)); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestFragmentFields(t *testing.T) {
	h := sampleHeader()
	h.DF = false
	h.MF = true
	h.FragOffset = 1480
	b := make([]byte, h.TotalLen)
	if err := h.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MF || got.FragOffset != 1480 || got.DF {
		t.Errorf("fragment fields: %+v", got)
	}
	if !got.IsFragment() {
		t.Error("IsFragment() = false for MF packet")
	}
	plain, _ := Parse(func() []byte {
		h2 := sampleHeader()
		b2 := make([]byte, h2.TotalLen)
		h2.Put(b2)
		return b2
	}())
	if plain.IsFragment() {
		t.Error("IsFragment() = true for plain packet")
	}
}

func TestPutRejectsMisalignedFragOffset(t *testing.T) {
	h := sampleHeader()
	h.FragOffset = 13
	b := make([]byte, h.TotalLen)
	if err := h.Put(b); err == nil {
		t.Error("expected error for non-multiple-of-8 fragment offset")
	}
}

func TestOptions(t *testing.T) {
	h := sampleHeader()
	h.Options = []byte{0x94, 0x04, 0x00, 0x00} // router alert
	h.TotalLen = h.Len() + 100
	b := make([]byte, h.TotalLen)
	if err := h.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasOptions() {
		t.Error("HasOptions() = false")
	}
	if got.IHL != 24 {
		t.Errorf("IHL = %d, want 24", got.IHL)
	}
	if got.TotalLen-got.IHL != 100 {
		t.Errorf("payload = %d bytes, want 100", got.TotalLen-got.IHL)
	}
}

func TestVerifyChecksumDetectsCorruption(t *testing.T) {
	h := sampleHeader()
	b := make([]byte, h.TotalLen)
	if err := h.Put(b); err != nil {
		t.Fatal(err)
	}
	b[13] ^= 0x40
	if VerifyChecksum(b) {
		t.Error("corrupted header passes checksum")
	}
	if VerifyChecksum(b[:8]) {
		t.Error("short buffer passes checksum")
	}
}

func TestSetTotalLenIncrementalChecksum(t *testing.T) {
	h := sampleHeader()
	b := make([]byte, h.TotalLen)
	if err := h.Put(b); err != nil {
		t.Fatal(err)
	}
	// Simulate the aggregation rewrite: grow total length to cover 20
	// coalesced fragments.
	newLen := MinHeaderLen + 32 + 20*1448
	if newLen > 0xffff {
		t.Fatal("test construction error: length overflow")
	}
	if err := SetTotalLen(b, newLen); err != nil {
		t.Fatal(err)
	}
	if !VerifyChecksum(b) {
		t.Error("header checksum invalid after incremental total-length rewrite")
	}
	got, err := Parse(append(b[:MinHeaderLen:MinHeaderLen], make([]byte, newLen-MinHeaderLen)...))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLen != newLen {
		t.Errorf("TotalLen = %d, want %d", got.TotalLen, newLen)
	}
}

func TestSetTotalLenRejectsBadInput(t *testing.T) {
	if err := SetTotalLen(make([]byte, 10), 100); err == nil {
		t.Error("expected error for short buffer")
	}
	b := make([]byte, 40)
	h := sampleHeader()
	h.TotalLen = 40
	h.Put(b)
	if err := SetTotalLen(b, 4); err == nil {
		t.Error("expected error for length below header")
	}
	if err := SetTotalLen(b, 70000); err == nil {
		t.Error("expected error for length above 16 bits")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{10, 1, 2, 3}
	if got := a.String(); got != "10.1.2.3" {
		t.Errorf("String() = %q", got)
	}
}

// Property: Put/Parse round-trips arbitrary well-formed headers and the
// checksum always verifies.
func TestRoundTrip_Quick(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, src, dst [4]byte, payloadLen uint16, df bool) bool {
		h := Header{
			IHL:      MinHeaderLen,
			TOS:      tos,
			TotalLen: MinHeaderLen + int(payloadLen%2000),
			ID:       id,
			DF:       df,
			TTL:      ttl,
			Proto:    ProtoTCP,
			Src:      Addr(src),
			Dst:      Addr(dst),
		}
		b := make([]byte, h.TotalLen)
		if err := h.Put(b); err != nil {
			return false
		}
		if !VerifyChecksum(b) {
			return false
		}
		got, err := Parse(b)
		if err != nil {
			return false
		}
		return got.TOS == tos && got.ID == id && got.TTL == ttl &&
			got.Src == Addr(src) && got.Dst == Addr(dst) &&
			got.TotalLen == h.TotalLen && got.DF == df
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SetTotalLen preserves checksum validity for any valid new length.
func TestSetTotalLenChecksum_Quick(t *testing.T) {
	f := func(id uint16, newLen uint16) bool {
		h := sampleHeader()
		h.ID = id
		b := make([]byte, h.TotalLen)
		if err := h.Put(b); err != nil {
			return false
		}
		nl := int(newLen)
		if nl < MinHeaderLen {
			nl = MinHeaderLen
		}
		if err := SetTotalLen(b, nl); err != nil {
			return false
		}
		return VerifyChecksum(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
