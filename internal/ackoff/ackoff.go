// Package ackoff implements the mechanics of Acknowledgment Offload, the
// paper's second optimization (§4): a sequence of near-identical TCP ACK
// packets is represented by a single template — the first ACK packet plus
// the list of subsequent ACK numbers — and materialized into individual
// packets just above the NIC.
//
// The TCP layer builds templates (see internal/tcp: flushAcks); the driver
// expands them (see internal/driver: Transmit). This package holds the
// shared expansion logic and its correctness contract: expanded ACKs are
// byte-identical to the packets an unmodified stack would have generated,
// assuming identical timestamps — the same assumption the paper makes
// (§4.2), valid because the batched ACKs are generated microseconds apart
// against a millisecond timestamp clock (§3.6).
package ackoff

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checksum"
	"repro/internal/tcpwire"
)

// Expand materializes the ACK packets described by a template.
//
// template is the serialized frame of the first ACK (headers with valid
// checksums); l3off is the IP header offset; extras are the ACK numbers of
// the subsequent ACKs. Each expanded packet differs from the template only
// in its TCP acknowledgment number, its IP ID (templates expand to
// consecutive IDs, as individually generated packets would have), and the
// two incrementally-updated checksums.
//
// The returned slice has len(extras) entries; the template itself is the
// first ACK and is not duplicated here.
func Expand(template []byte, l3off int, extras []uint32) ([][]byte, error) {
	if _, err := templateL4(template, l3off); err != nil {
		return nil, err
	}
	out := make([][]byte, 0, len(extras))
	for i, ackNum := range extras {
		cp := make([]byte, len(template))
		if err := ExpandTo(cp, template, l3off, i, ackNum); err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}

// ExpandTo materializes the i-th expanded ACK of a template (0-based, so
// its IP ID is the template's plus i+1) with acknowledgment number ackNum
// into dst, which must be len(template) bytes: Expand's per-packet step,
// for callers that supply their own (pooled) buffers.
func ExpandTo(dst, template []byte, l3off, i int, ackNum uint32) error {
	l4off, err := templateL4(template, l3off)
	if err != nil {
		return err
	}
	if len(dst) != len(template) {
		return fmt.Errorf("ackoff: destination of %d bytes for a %d-byte template", len(dst), len(template))
	}
	baseID := binary.BigEndian.Uint16(template[l3off+4:])
	copy(dst, template)
	if err := tcpwire.PatchAck(dst[l4off:], ackNum); err != nil {
		return fmt.Errorf("ackoff: %w", err)
	}
	patchIPID(dst[l3off:], baseID+uint16(i)+1)
	return nil
}

// templateL4 validates a template's IP header and returns the TCP header
// offset.
func templateL4(template []byte, l3off int) (int, error) {
	if l3off < 0 || len(template) < l3off+20 {
		return 0, fmt.Errorf("ackoff: template too short (%d bytes, l3off %d)", len(template), l3off)
	}
	ihl := int(template[l3off]&0x0f) * 4
	if ihl < 20 || len(template) < l3off+ihl+tcpwire.MinHeaderLen {
		return 0, fmt.Errorf("ackoff: malformed template IP header")
	}
	return l3off + ihl, nil
}

// patchIPID rewrites the IP identification field with an incremental
// header-checksum update (RFC 1624).
func patchIPID(l3 []byte, id uint16) {
	old := binary.BigEndian.Uint16(l3[4:6])
	cs := binary.BigEndian.Uint16(l3[10:12])
	binary.BigEndian.PutUint16(l3[4:6], id)
	binary.BigEndian.PutUint16(l3[10:12], checksum.Update16(cs, old, id))
}

// TemplateSavings reports how many host packets the transmit stack was
// spared for a template covering n ACKs: n-1 (one template replaces n
// stack traversals; the driver still emits n wire packets).
func TemplateSavings(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}
