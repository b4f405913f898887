package ipv4

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParse decodes arbitrary bytes as an IPv4 header. Garbage and
// truncated input must error, never panic. A header that decodes must
// re-encode through Put to the same bytes (the reserved flag bit, which
// Header does not carry, aside) with a checksum VerifyChecksum accepts,
// and decode again to the same Header.
func FuzzParse(f *testing.F) {
	h := sampleHeader()
	b := make([]byte, h.TotalLen)
	if err := h.Put(b); err != nil {
		f.Fatal(err)
	}
	f.Add(b[:MinHeaderLen])
	f.Add(b)
	f.Fuzz(parseCase)
}

// parseCase is FuzzParse's body.
func parseCase(t *testing.T, b []byte) {
	VerifyChecksum(b)
	full, fullErr := Parse(b)
	h, err := ParseHeaderOnly(b)
	if err != nil {
		if fullErr == nil {
			t.Fatalf("Parse accepted what ParseHeaderOnly rejects: %v", err)
		}
		return
	}
	if len(b) < MinHeaderLen || len(b) < h.IHL || h.IHL < MinHeaderLen || h.IHL > MaxHeaderLen || h.TotalLen < h.IHL {
		t.Fatalf("ParseHeaderOnly accepted %d bytes as %+v", len(b), h)
	}
	if fullErr == nil && (full.TotalLen > len(b) || !reflect.DeepEqual(full, h)) {
		t.Fatalf("Parse = %+v on %d bytes, header-only %+v", full, len(b), h)
	}
	if fullErr != nil && h.TotalLen <= len(b) {
		t.Fatalf("Parse rejected a complete datagram: %v", fullErr)
	}
	for n := 0; n < h.IHL; n++ {
		if _, err := ParseHeaderOnly(b[:n]); err == nil {
			t.Fatalf("ParseHeaderOnly accepted the %d-byte prefix of a %d-byte header", n, h.IHL)
		}
	}

	out := make([]byte, h.Len())
	put := h
	if err := put.Put(out); err != nil {
		t.Fatalf("Put of a parsed header: %v", err)
	}
	if len(out) != h.IHL {
		t.Fatalf("re-encoded %d header bytes, parsed %d", len(out), h.IHL)
	}
	if !VerifyChecksum(out) {
		t.Fatal("Put wrote a header checksum VerifyChecksum rejects")
	}
	want := append([]byte(nil), b[:h.IHL]...)
	want[6] &^= 0x80                      // reserved flag bit
	want[10], want[11] = out[10], out[11] // checksum is recomputed
	if !bytes.Equal(out, want) {
		t.Fatalf("round trip:\n got %x\nwant %x", out, want)
	}
	again, err := ParseHeaderOnly(out)
	if err != nil {
		t.Fatal(err)
	}
	again.Checksum = h.Checksum
	if !reflect.DeepEqual(again, h) {
		t.Fatalf("re-parse = %+v, want %+v", again, h)
	}
}
