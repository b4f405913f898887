package sim

import (
	"testing"

	"repro/internal/frontend"
	"repro/internal/netstack"
	"repro/internal/rss"
)

// migrationCase names one way to migrate a flow mid-burst.
type migrationCase struct {
	name string
	arfs bool // aRFS rule (per flow) vs indirection rewrite (per bucket)
}

// TestMigrationSafetyProperty is the migration-safety property test: a
// flow migrated mid-burst — by indirection rewrite or by aRFS rule, on the
// native and the paravirtual machine — must deliver every byte of the
// pattern stream to the application in order, with the cross-CPU transient
// visible as accounted shard steals (native; on Xen netback re-steers, so
// the guest sees none) and no aggregate merging frames across the
// migration boundary (enforced structurally by the pre-rewrite flush;
// verified here end-to-end by the byte-exact stream check, which any
// merge-across-boundary would corrupt or misorder).
func TestMigrationSafetyProperty(t *testing.T) {
	systems := []SystemKind{SystemNativeUP, SystemXen}
	cases := []migrationCase{{name: "indirection"}, {name: "arfs", arfs: true}}
	for _, sys := range systems {
		for _, mc := range cases {
			t.Run(sys.String()+"/"+mc.name, func(t *testing.T) {
				runMigrationCase(t, sys, mc)
			})
		}
	}
}

func runMigrationCase(t *testing.T, sys SystemKind, mc migrationCase) {
	cfg := DefaultStreamConfig(sys, OptFull)
	cfg.NICs = 2
	cfg.Connections = 8
	cfg.Queues = 2
	cfg.DurationNs = 20_000_000
	cfg.WarmupNs = 10_000_000
	if mc.arfs {
		// A rule table must exist for SteerFlow; the policy itself stays
		// off — the test drives the migration by hand.
		cfg.Steering.ARFS = true
	}
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-exact in-order verification of every flow's delivered stream.
	type verify struct {
		pos  uint32
		bad  int
		pre  uint64 // bytes delivered before the migration fired
		post uint64 // bytes delivered after
	}
	migrated := false
	states := make([]*verify, len(top.machine.Endpoints()))
	for i, ep := range top.machine.Endpoints() {
		v := &verify{pos: 1} // default IRS: first payload byte's sequence
		states[i] = v
		ep.AppSink = func(b []byte) {
			want := make([]byte, len(b))
			PatternPayload(v.pos, want)
			for j := range b {
				if b[j] != want[j] {
					v.bad++
				}
			}
			v.pos += uint32(len(b))
			if migrated {
				v.post += uint64(len(b))
			} else {
				v.pre += uint64(len(b))
			}
		}
	}

	// Mid-burst, migrate the first flow's bucket/rule back and forth
	// between the CPUs repeatedly: some rewrites are guaranteed to catch
	// frames the old CPU still holds (ring, raw queue), exercising the
	// cross-CPU transient every time.
	victim := netstack.FlowKey{
		Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
	}
	hash := rss.HashTCP4(victim.Src, victim.Dst, victim.SrcPort, victim.DstPort)
	bucket := rss.Bucket(hash)
	m := top.machine
	var migrate func()
	migrate = func() {
		owner := m.FlowTable().OwnerOf(victim, hash)
		target := (owner + 1) % m.CPUs()
		if mc.arfs {
			if _, err := m.SteerFlow(victim, hash, target); err != nil {
				t.Errorf("SteerFlow: %v", err)
			}
		} else {
			m.SteerBucket(bucket, target)
			if got := m.SteerMap().Queue(hash); got != target {
				t.Errorf("bucket %d owner = %d after rewrite, want %d", bucket, got, target)
			}
		}
		migrated = true
		if got := m.FlowTable().OwnerOf(victim, hash); got != target {
			t.Errorf("flow-table owner = %d after migration, want %d", got, target)
		}
		if top.sim.Now() < 18_000_000 {
			top.sim.After(500_000, migrate)
		}
	}
	top.sim.After(12_000_000, migrate)
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

	if !migrated {
		t.Fatal("migration event never fired")
	}
	var victimState *verify
	for i, ep := range top.machine.Endpoints() {
		v := states[i]
		if v.bad != 0 {
			t.Errorf("endpoint %d: %d bytes deviated from the in-order pattern", i, v.bad)
		}
		if v.pre == 0 || v.post == 0 {
			t.Errorf("endpoint %d delivered pre=%d post=%d bytes: migration not mid-burst", i, v.pre, v.post)
		}
		if got := ep.Stats().BytesToApp; got != v.pre+v.post {
			t.Errorf("endpoint %d: BytesToApp %d != verified %d", i, got, v.pre+v.post)
		}
		if i == 0 {
			victimState = v
		}
	}
	if victimState.post == 0 {
		t.Error("migrated flow stalled after the steering rewrite")
	}

	// The transient is accounted: natively, frames the old CPU still held
	// (ring, raw queue) demux as steals; on Xen netback re-steers onto the
	// new channel, so the guest must stay steal-free.
	var steals uint64
	for _, s := range shardStatsOf(m) {
		steals += s.Steals
	}
	if sys == SystemXen {
		if steals != 0 {
			t.Errorf("Xen guest saw %d steals; netback re-steering should hide the migration", steals)
		}
	} else if steals == 0 {
		t.Error("native migration produced no accounted steals: the transient was not exercised")
	}
}

// shardStatsOf snapshots the machine's per-shard stats.
func shardStatsOf(m *frontend.FrontEnd) []netstack.ShardStats {
	table := m.FlowTable()
	out := make([]netstack.ShardStats, table.Shards())
	for i := range out {
		out[i] = table.ShardStatsOf(i)
	}
	return out
}

// TestSteeringDisabledIdentical: a zero-value Steering config must be the
// exact PR 2 pipeline — same frames, bytes, busy cycles (the bit-for-bit
// claim the root goldens also pin for Queues=1; this covers multi-queue).
func TestSteeringDisabledIdentical(t *testing.T) {
	run := func(cfg StreamConfig) StreamResult {
		res, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		cfg := DefaultStreamConfig(sys, OptFull)
		cfg.NICs = 4
		cfg.Connections = 64
		cfg.Queues = 2
		cfg.FlowSkew = 1.1
		cfg.DurationNs = 20_000_000
		cfg.WarmupNs = 10_000_000
		a, b := run(cfg), run(cfg)
		if a.ThroughputMbps != b.ThroughputMbps || a.Frames != b.Frames ||
			a.CyclesPerPacket != b.CyclesPerPacket {
			t.Errorf("%v: identical configs diverge: %+v vs %+v", sys, a, b)
		}
		if a.Steer != nil {
			t.Errorf("%v: steering report present with steering off", sys)
		}
	}
}
