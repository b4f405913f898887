package tcpwire

import (
	"encoding/binary"
	"testing"
)

// sackSegment serializes a 20-byte base header followed by the given
// option bytes (padded to a 4-byte boundary with OptEnd), the way the
// packet builder lays SACK-carrying ACKs on the wire.
func sackSegment(t *testing.T, opts []byte) []byte {
	t.Helper()
	n := len(opts)
	if n%4 != 0 {
		n += 4 - n%4
	}
	b := make([]byte, MinHeaderLen+n)
	h := Header{SrcPort: 5001, DstPort: 33000, Ack: 9999, Flags: FlagACK, Window: 65535}
	if err := h.Put(b[:MinHeaderLen]); err != nil {
		t.Fatal(err)
	}
	copy(b[MinHeaderLen:], opts)
	b[12] = byte(len(b)/4) << 4
	return b
}

func TestBuildOptionsSACKRoundTrip(t *testing.T) {
	blocks := []SACKBlock{
		{Start: 5000, End: 6448},
		{Start: 1000, End: 2448},
		{Start: 9000, End: 10448},
	}
	opts := AppendOptions(nil, true, 111, 222, blocks)
	// NOP,NOP,TS(10) + NOP,NOP,SACK(2+8*3): exactly the 40-byte area.
	if len(opts) != 40 {
		t.Fatalf("options length = %d, want 40 (full area)", len(opts))
	}
	got, err := Parse(sackSegment(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTimestamp || got.TSVal != 111 || got.TSEcr != 222 {
		t.Errorf("timestamp lost beside SACK: %+v", got)
	}
	if len(got.SACKBlocks()) != 3 {
		t.Fatalf("parsed %d blocks, want 3", len(got.SACKBlocks()))
	}
	for i, b := range blocks {
		if got.SACKBlocks()[i] != b {
			t.Errorf("block %d = %+v, want %+v (RFC 2018 order must survive)",
				i, got.SACKBlocks()[i], b)
		}
	}
	if got.TimestampOnly {
		t.Error("TimestampOnly = true on a SACK-carrying ACK; aggregation would corrupt it")
	}
	if !got.OtherOptions {
		t.Error("OtherOptions = false with a SACK option present")
	}
}

func TestBuildOptionsBlockCap(t *testing.T) {
	many := make([]SACKBlock, 6)
	for i := range many {
		many[i] = SACKBlock{Start: uint32(i * 1000), End: uint32(i*1000 + 500)}
	}
	// Beside a timestamp only MaxSACKBlocks fit.
	got, err := Parse(sackSegment(t, AppendOptions(nil, true, 1, 2, many)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SACKBlocks()) != MaxSACKBlocks {
		t.Errorf("with TS: %d blocks, want %d", len(got.SACKBlocks()), MaxSACKBlocks)
	}
	// Without a timestamp the 40-byte area admits four.
	got, err = Parse(sackSegment(t, AppendOptions(nil, false, 0, 0, many)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SACKBlocks()) != 4 {
		t.Errorf("without TS: %d blocks, want 4", len(got.SACKBlocks()))
	}
	if got.HasTimestamp {
		t.Error("phantom timestamp parsed")
	}
	// The kept prefix must be the most recent blocks, never a truncated one.
	for i, b := range got.SACKBlocks() {
		if b != many[i] {
			t.Errorf("block %d = %+v, want %+v", i, b, many[i])
		}
	}
}

func TestBuildOptionsEmpty(t *testing.T) {
	if got := AppendOptions(nil, false, 0, 0, nil); got != nil {
		t.Errorf("AppendOptions with nothing requested = %v, want nil", got)
	}
	// Timestamp-only via AppendOptions parses back as TimestampOnly: the
	// aggregatable layout is preserved when no blocks are pending.
	h, err := Parse(sackSegment(t, AppendOptions(nil, true, 7, 8, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !h.TimestampOnly || h.TSVal != 7 || h.TSEcr != 8 {
		t.Errorf("timestamp-only layout misparsed: %+v", h)
	}
}

// TestParseSACKAllocFree pins the receive of a SACK-bearing ACK: the
// blocks land in the header's fixed array, so Parse allocates nothing.
func TestParseSACKAllocFree(t *testing.T) {
	blocks := []SACKBlock{{Start: 5000, End: 6448}, {Start: 1000, End: 2448}, {Start: 9000, End: 10448}}
	seg := sackSegment(t, AppendOptions(nil, true, 111, 222, blocks))
	var h Header
	var err error
	if n := testing.AllocsPerRun(1000, func() { h, err = Parse(seg) }); n != 0 {
		t.Errorf("Parse of a TS + 3-SACK segment allocates %.1f times", n)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := h.SACKBlocks(); len(got) != 3 || got[0] != blocks[0] || got[2] != blocks[2] {
		t.Errorf("SACKBlocks() = %+v, want %+v", got, blocks)
	}
}

// fuzzBlocks cuts up to n SACK blocks out of b, eight bytes each, padding
// a short tail with zeros.
func fuzzBlocks(b []byte, n int) []SACKBlock {
	var pad [8]byte
	blocks := make([]SACKBlock, n)
	for i := range blocks {
		w := pad[:]
		if len(b) >= 8 {
			w, b = b[:8], b[8:]
		} else if len(b) > 0 {
			copy(w, b)
			b = nil
		}
		blocks[i] = SACKBlock{Start: binary.BigEndian.Uint32(w[:4]), End: binary.BigEndian.Uint32(w[4:])}
	}
	return blocks
}

// FuzzParseOptions checks the options codec two ways. AppendOptions
// followed by Parse must round-trip a timestamp (when hasTS) and every
// block count the area admits beside it. Arbitrary option bytes, up to
// the 40-byte area, must never panic Parse nor yield more than four
// blocks.
func FuzzParseOptions(f *testing.F) {
	f.Fuzz(parseOptionsCase)
}

// parseOptionsCase is FuzzParseOptions's body.
func parseOptionsCase(t *testing.T, hasTS bool, tsVal, tsEcr uint32, nblocks uint8, blockBytes, raw []byte) {
	blocks := fuzzBlocks(blockBytes, int(nblocks)%(sackBudget(hasTS)+1))
	opts := AppendOptions(nil, hasTS, tsVal, tsEcr, blocks)
	if len(opts) != OptionsLen(hasTS, len(blocks)) {
		t.Fatalf("AppendOptions wrote %d bytes, OptionsLen says %d", len(opts), OptionsLen(hasTS, len(blocks)))
	}
	h, err := Parse(sackSegment(t, opts))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if h.HasTimestamp != hasTS || (hasTS && (h.TSVal != tsVal || h.TSEcr != tsEcr)) {
		t.Errorf("timestamp: got %v %d/%d, want %v %d/%d", h.HasTimestamp, h.TSVal, h.TSEcr, hasTS, tsVal, tsEcr)
	}
	got := h.SACKBlocks()
	if len(got) != len(blocks) {
		t.Fatalf("parsed %d blocks, wrote %d", len(got), len(blocks))
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Errorf("block %d = %+v, want %+v", i, got[i], blocks[i])
		}
	}
	if h.TimestampOnly != (hasTS && len(blocks) == 0) || h.OtherOptions != (len(blocks) > 0) {
		t.Errorf("layout flags TimestampOnly=%v OtherOptions=%v for TS %v, %d blocks",
			h.TimestampOnly, h.OtherOptions, hasTS, len(blocks))
	}

	if len(raw) > MaxHeaderLen-MinHeaderLen {
		raw = raw[:MaxHeaderLen-MinHeaderLen]
	}
	h, err = Parse(sackSegment(t, raw))
	if err == nil && len(h.SACKBlocks()) > maxAreaSACKBlocks {
		t.Errorf("%d blocks parsed from %d option bytes", len(h.SACKBlocks()), len(raw))
	}
}
