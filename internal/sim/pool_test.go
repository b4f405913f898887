package sim

import (
	"testing"

	"repro/internal/checksum"
)

func TestPatternPayloadSum(t *testing.T) {
	b := make([]byte, 1600)
	for _, seq := range []uint32{0, 1, 7, 0xfffffff0, 2654435761} {
		for n := 0; n <= len(b); n++ {
			got := PatternPayloadSum(seq, b[:n])
			for i := 0; i < n; i++ {
				if want := byte(((seq + uint32(i)) * 2654435761) >> 24); b[i] != want {
					t.Fatalf("seq %d len %d: byte %d = %#x, want %#x", seq, n, i, b[i], want)
				}
			}
			if want := checksum.Sum(b[:n]); got != want {
				t.Fatalf("seq %d len %d: sum %#04x, want %#04x", seq, n, got, want)
			}
		}
	}
}

// poolMisses is the buffer population of the run's one frame pool, which
// its senders share with the receiver.
func poolMisses(top *streamTopology) uint64 {
	return top.machine.Alloc.Pool().Misses()
}

// TestFramePoolLeakBound runs each shape to t and then to 2t: once warm,
// the frame pools' population must not grow with run length. A drop path
// that forgot to release its frame leaks a fixed share of all frames, so
// its misses grow with the frame count; a bounded population only steps up
// when the live set (in flight, in rings, in out-of-order queues) reaches
// a new high. The bound, one buffer per leakDivisor frames, is half the
// rate of the rarest drop injected here (loss, one frame in 100); the
// unaggregated baseline's live set swings widest, by about one buffer per
// 400 frames in this window. Drops too rare to show this way (ring and
// backlog overflow) have their own tests.
func TestFramePoolLeakBound(t *testing.T) {
	const leakDivisor = 200
	faults := func() StreamConfig {
		cfg := DefaultStreamConfig(SystemNativeSMP, OptFull)
		cfg.NICs, cfg.Connections, cfg.FlowSkew, cfg.Queues = 4, 40, 1.1, 2
		cfg.Loss = LossConfig{OneIn: 100, Seed: 1}
		cfg.SACK = true
		cfg.Reorder = ReorderConfig{OneIn: 50, Distance: 1}
		cfg.ReorderWindow = 4
		cfg.ChurnIntervalNs = 2_000_000
		return cfg
	}
	baseline := faults()
	baseline.Opt = OptNone
	xen := DefaultStreamConfig(SystemXen, OptFull)
	xenBase := DefaultStreamConfig(SystemXen, OptNone)
	for _, tc := range []struct {
		name string
		cfg  StreamConfig
	}{
		{"smp-q2-faults", faults()},
		{"smp-q2-faults-baseline", baseline},
		{"xen", xen},
		{"xen-baseline", xenBase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			top, err := buildStream(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			const warm = 100_000_000
			top.sim.RunUntil(warm)
			misses, frames := poolMisses(top), top.machine.NetFramesIn()
			top.sim.RunUntil(2 * warm)
			grew, more := poolMisses(top)-misses, top.machine.NetFramesIn()-frames
			if more == 0 {
				t.Fatal("no frames in the second interval")
			}
			t.Logf("population %d -> %d over %d more frames", misses, misses+grew, more)
			if grew > more/leakDivisor {
				t.Errorf("pool population grew by %d buffers over %d more frames (%d at %d ms)",
					grew, more, misses, warm/1_000_000)
			}
		})
	}
}
