package tcp

import (
	"testing"
	"unsafe"
)

// TestSegmentLayout pins the two per-segment records at 32 bytes each, with
// no padding: the retransmit queue and the out-of-order queue grow by them,
// so a field added or reordered in front of a wider one shows here first.
func TestSegmentLayout(t *testing.T) {
	if got := unsafe.Sizeof(sentSegment{}); got != 32 {
		t.Errorf("sentSegment is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(oooSegment{}); got != 32 {
		t.Errorf("oooSegment is %d bytes, want 32", got)
	}
}
