package ether

import (
	"bytes"
	"testing"
)

// FuzzParse decodes arbitrary bytes as an Ethernet header. Input shorter
// than a header must error, never panic; a decoded header re-encodes
// through Put to the same 14 bytes, and Payload is the rest.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderLen+4))
	f.Fuzz(parseCase)
}

// parseCase is FuzzParse's body.
func parseCase(t *testing.T, b []byte) {
	h, err := Parse(b)
	p, perr := Payload(b)
	if len(b) < HeaderLen {
		if err == nil || perr == nil {
			t.Fatalf("%d bytes parsed as a header", len(b))
		}
		return
	}
	if err != nil || perr != nil {
		t.Fatalf("%d-byte frame rejected: %v, %v", len(b), err, perr)
	}
	out := make([]byte, HeaderLen)
	if err := h.Put(out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, b[:HeaderLen]) {
		t.Fatalf("round trip:\n got %x\nwant %x", out, b[:HeaderLen])
	}
	if !bytes.Equal(p, b[HeaderLen:]) {
		t.Fatal("Payload is not the bytes after the header")
	}
	if err := h.Put(out[:HeaderLen-1]); err == nil {
		t.Fatal("Put into a short buffer succeeded")
	}
}
