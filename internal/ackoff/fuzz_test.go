package ackoff

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/packet"
	"repro/internal/tcpwire"
)

// FuzzExpand expands a template ACK built from fuzzed header fields
// (timestamps and SACK blocks optional) into the ACK numbers packed in
// extras, and requires every expanded frame to be byte for byte the ACK
// packet.Build makes for that ACK number and IP ID. The same extras
// expanded over the raw fuzz bytes as a template must error or succeed
// without a panic.
func FuzzExpand(f *testing.F) {
	f.Add(uint32(777), uint32(1000), uint16(9), uint16(65535), true, uint32(42), uint32(41), uint8(0), []byte("\x00\x00\x0f\x40\x00\x00\x14\xe8"))
	f.Add(uint32(1), uint32(0xfffffff0), uint16(0xfffe), uint16(0), false, uint32(0), uint32(0), uint8(3), []byte("\xff\xff\xff\xff\x00\x00\x00\x01\x00\x00\x05\xa8"))
	f.Fuzz(expandCase)
}

// expandCase is FuzzExpand's body.
func expandCase(t *testing.T, seq, ack uint32, ipid, window uint16, hasTS bool, tsVal, tsEcr uint32, sackBlocks uint8, extraBytes []byte) {
	spec := packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 2}, DstIP: ipv4.Addr{10, 0, 0, 1},
		SrcPort: 44000, DstPort: 5001,
		Seq: seq, Ack: ack,
		Flags: tcpwire.FlagACK, Window: window,
		HasTS: hasTS, TSVal: tsVal, TSEcr: tsEcr,
		IPID: ipid,
	}
	n := int(sackBlocks) % (tcpwire.MaxSACKBlocks + 1)
	for i := 0; i < n; i++ {
		start := ack + uint32(i+1)*2896
		spec.SACKBlocks = append(spec.SACKBlocks, tcpwire.SACKBlock{Start: start, End: start + 1448})
	}
	if len(extraBytes) > 64 {
		extraBytes = extraBytes[:64]
	}
	extras := make([]uint32, len(extraBytes)/4)
	for i := range extras {
		extras[i] = binary.BigEndian.Uint32(extraBytes[4*i:])
	}

	tpl := packet.MustBuild(spec)
	orig := append([]byte(nil), tpl...)
	out, err := Expand(tpl, ether.HeaderLen, extras)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(extras) {
		t.Fatalf("expanded %d ACKs from %d extras", len(out), len(extras))
	}
	for i, a := range extras {
		want := spec
		want.Ack, want.IPID = a, ipid+uint16(i)+1
		if !bytes.Equal(out[i], packet.MustBuild(want)) {
			t.Fatalf("expanded ACK %d (ack %d) differs from its individual build", i, a)
		}
	}
	if !bytes.Equal(tpl, orig) {
		t.Fatal("Expand mutated the template")
	}

	if got, err := Expand(extraBytes, int(sackBlocks)-8, extras); err == nil && len(got) != len(extras) {
		t.Fatalf("raw template expanded %d ACKs from %d extras", len(got), len(extras))
	}
}
